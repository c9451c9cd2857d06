#include "targets.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "qasm/qasm.h"
#include "service/journal.h"
#include "service/protocol.h"
#include "service/socket.h"
#include "util/error.h"

namespace bgls::fuzz {
namespace {

/// Oracle failure: not a rejection, a wrong answer. Prints and aborts
/// so both libFuzzer and the standalone driver record the input as a
/// crasher.
void fail(const char* what) {
  std::fprintf(stderr, "fuzz oracle failure: %s\n", what);
  std::abort();
}

std::string as_string(const std::uint8_t* data, std::size_t size) {
  return std::string(reinterpret_cast<const char*>(data), size);
}

}  // namespace

void one_qasm(const std::uint8_t* data, std::size_t size) {
  const std::string source = as_string(data, size);
  Circuit circuit;
  try {
    circuit = parse_qasm(source);
  } catch (const Error&) {
    return;  // clean rejection
  }
  // Accepted input must survive export → re-import: to_qasm's output is
  // claimed to be valid OpenQASM 2.0.
  std::string exported;
  try {
    exported = to_qasm(circuit);
  } catch (const Error&) {
    return;  // circuit contains a gate with no QASM spelling
  }
  try {
    (void)parse_qasm(exported);
  } catch (const Error&) {
    fail("to_qasm emitted text parse_qasm rejects");
  }
}

void one_protocol(const std::uint8_t* data, std::size_t size) {
  const std::string line = as_string(data, size);
  JsonValue message;
  try {
    message = JsonValue::parse(line);
  } catch (const Error&) {
    return;  // clean rejection
  }
  try {
    (void)service::parse_submit(message);
  } catch (const Error&) {
    return;  // well-formed JSON, malformed submit — clean rejection
  }
}

void one_journal(const std::uint8_t* data, std::size_t size) {
  const std::string raw = as_string(data, size);

  // Recovery over arbitrary bytes must never throw on content.
  {
    std::istringstream in(raw);
    std::size_t skipped = 0;
    try {
      (void)service::Journal::replay_stream(in, &skipped);
    } catch (const Error&) {
      fail("replay_stream threw on stream content");
    }
  }

  // CRC oracle: frame the input as one record body (newlines stripped —
  // a body occupies one line by construction) with its true checksum.
  // The framed line must recover as exactly one record when the body is
  // valid JSON, and as exactly one skip when it is not.
  std::string body = raw;
  std::erase_if(body, [](char c) { return c == '\n' || c == '\r'; });
  bool body_is_json = true;
  try {
    (void)JsonValue::parse(body);
  } catch (const Error&) {
    body_is_json = false;
  }
  std::string framed = "{\"crc\":";
  framed += std::to_string(service::Journal::crc32(body));
  framed += ",\"rec\":";
  framed += body;
  framed += "}\n";
  std::istringstream in(framed);
  std::size_t skipped = 0;
  const auto records = service::Journal::replay_stream(in, &skipped);
  if (body_is_json) {
    if (records.size() != 1 || skipped != 0) {
      fail("CRC-valid JSON body did not replay as one record");
    }
  } else {
    if (!records.empty() || skipped != 1) {
      fail("non-JSON body was neither recovered nor counted as skipped");
    }
  }
}

void one_framing(const std::uint8_t* data, std::size_t size) {
  if (size < 2) return;
  const std::size_t cap = data[0];
  const std::size_t chunk = std::size_t{data[1]} + 1;
  const std::string stream = as_string(data + 2, size - 2);

  std::vector<std::string> expected;
  for (std::size_t start = 0; start < stream.size();) {
    const std::size_t newline = stream.find('\n', start);
    const std::size_t end = std::min(newline, stream.size());
    expected.push_back(stream.substr(start, end - start));
    start = end + 1;
  }
  const auto over_cap =
      std::find_if(expected.begin(), expected.end(),
                   [&](const std::string& line) { return line.size() > cap; });

  // SOCK_SEQPACKET keeps every write one record, so each recv sees one
  // chunk: the reader meets the input's partial writes deterministically.
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_SEQPACKET, 0, fds) != 0) {
    fail("socketpair failed");
  }
  service::Socket reader(fds[0]);
  std::thread writer([&stream, chunk, fd = fds[1]] {
    for (std::size_t at = 0; at < stream.size(); at += chunk) {
      const std::size_t n = std::min(chunk, stream.size() - at);
      // Fails once the reader closed after rejecting a line.
      if (::send(fd, stream.data() + at, n, MSG_NOSIGNAL) < 0) break;
    }
    ::close(fd);
  });

  std::size_t returned = 0;
  bool rejected = false;
  std::string line;
  try {
    while (reader.read_line(line, cap)) {
      if (returned >= expected.size() || line != expected[returned]) {
        fail("read_line returned a line the stream does not hold there");
      }
      ++returned;
    }
  } catch (const service::LineTooLongError&) {
    rejected = true;
  }
  reader.close();  // unblocks a writer stuck on a full queue
  writer.join();
  if (returned != static_cast<std::size_t>(over_cap - expected.begin())) {
    fail("read_line did not return exactly the lines before the first "
         "over-cap one");
  }
  if (rejected != (over_cap != expected.end())) {
    fail(rejected ? "read_line rejected a line within the cap"
                  : "read_line accepted a line over the cap");
  }
}

}  // namespace bgls::fuzz
