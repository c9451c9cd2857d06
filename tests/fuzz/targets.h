/// \file targets.h
/// The fuzzed entry points, one per untrusted-byte surface.
///
/// Each target feeds raw bytes into a parser the daemon exposes to the
/// outside world and treats bgls::Error as the expected rejection path:
/// a target returns normally for both accepted and cleanly rejected
/// input, and anything else — a sanitizer report, an uncaught foreign
/// exception, a crash — is a finding. The same functions back the
/// libFuzzer harnesses (fuzz_*.cpp), the standalone replay/mutation
/// driver (standalone_main.cpp), and the always-on corpus regression
/// test (tests/test_fuzz_regressions.cpp), so a checked-in crasher is
/// replayed through exactly the code path that produced it.

#pragma once

#include <cstddef>
#include <cstdint>

namespace bgls::fuzz {

/// OpenQASM 2.0 import (qasm/qasm.cpp): parse, and when the source is
/// accepted, round-trip it through to_qasm and re-parse — the exported
/// text is claimed to be valid QASM, so a second-parse failure is a bug
/// even though the original input "worked".
void one_qasm(const std::uint8_t* data, std::size_t size);

/// ndjson wire protocol (service/protocol.cpp): JsonValue::parse of one
/// request line, then parse_submit on the result (which parses the
/// embedded QASM program too).
void one_protocol(const std::uint8_t* data, std::size_t size);

/// Journal recovery (service/journal.cpp): replay_stream over arbitrary
/// bytes. Recovery must never throw on content — a journal is by
/// definition read after a crash, so every malformed shape is a "skip",
/// not an error. Re-frames each recovered body and checks the second
/// replay loses nothing (recovery is idempotent).
void one_journal(const std::uint8_t* data, std::size_t size);

/// Request framing (service/socket.cpp): Socket::read_line over a
/// socketpair. Byte 0 is the line cap, byte 1 + 1 the write chunk size,
/// the rest the stream, written in those chunks. read_line must return
/// exactly the stream's '\n'-split lines (an unterminated tail counts)
/// up to the first line longer than the cap, and reject that one.
void one_framing(const std::uint8_t* data, std::size_t size);

}  // namespace bgls::fuzz
