#include "service/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstring>
#include <optional>
#include <utility>

#include "util/fault.h"
#include "util/parse.h"

namespace bgls::service {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  detail::throw_error<IoError>(what, ": ", std::strerror(errno));
}

/// A sockaddr large enough for both families, plus its used length.
struct Address {
  sockaddr_storage storage{};
  socklen_t length = 0;
  int family = AF_UNSPEC;
};

Address resolve(const Endpoint& endpoint) {
  Address address;
  if (endpoint.is_unix()) {
    auto* sun = reinterpret_cast<sockaddr_un*>(&address.storage);
    sun->sun_family = AF_UNIX;
    BGLS_REQUIRE(endpoint.unix_path.size() < sizeof(sun->sun_path),
                 "unix socket path too long (", endpoint.unix_path.size(),
                 " bytes): ", endpoint.unix_path);
    std::memcpy(sun->sun_path, endpoint.unix_path.c_str(),
                endpoint.unix_path.size() + 1);
    address.length = static_cast<socklen_t>(
        offsetof(sockaddr_un, sun_path) + endpoint.unix_path.size() + 1);
    address.family = AF_UNIX;
    return address;
  }
  auto* sin = reinterpret_cast<sockaddr_in*>(&address.storage);
  sin->sin_family = AF_INET;
  sin->sin_port = htons(static_cast<std::uint16_t>(endpoint.port));
  const std::string host = endpoint.host.empty() ? "127.0.0.1" : endpoint.host;
  if (inet_pton(AF_INET, host.c_str(), &sin->sin_addr) != 1) {
    detail::throw_error<IoError>("invalid IPv4 address '", host,
                                 "' (hostnames are not resolved; use a "
                                 "numeric address)");
  }
  address.length = sizeof(sockaddr_in);
  address.family = AF_INET;
  return address;
}

}  // namespace

Endpoint Endpoint::unix_socket(std::string path) {
  Endpoint endpoint;
  endpoint.unix_path = std::move(path);
  return endpoint;
}

Endpoint Endpoint::tcp(std::string host, int port) {
  Endpoint endpoint;
  endpoint.host = std::move(host);
  endpoint.port = port;
  return endpoint;
}

Endpoint Endpoint::parse(const std::string& spec) {
  if (spec.rfind("unix:", 0) == 0) {
    const std::string path = spec.substr(5);
    BGLS_REQUIRE(!path.empty(), "empty unix socket path in '", spec, "'");
    return unix_socket(path);
  }
  if (spec.rfind("tcp:", 0) == 0) {
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    BGLS_REQUIRE(colon != std::string::npos,
                 "expected tcp:host:port (or tcp::port), got '", spec, "'");
    const std::string port_text = rest.substr(colon + 1);
    // Checked parse (util/parse.h): the old strtol path capped a
    // 30-digit port at LONG_MAX instead of rejecting it outright.
    const std::optional<std::uint64_t> port =
        util::try_parse_u64(port_text);
    BGLS_REQUIRE(port.has_value() && *port <= 65535, "invalid port in '",
                 spec, "'");
    return tcp(rest.substr(0, colon), static_cast<int>(*port));
  }
  detail::throw_error<ValueError>(
      "endpoint must be 'unix:<path>' or 'tcp:<host>:<port>', got '", spec,
      "'");
}

std::string Endpoint::to_string() const {
  if (is_unix()) return "unix:" + unix_path;
  return "tcp:" + (host.empty() ? std::string("127.0.0.1") : host) + ":" +
         std::to_string(port);
}

// --- Socket ---------------------------------------------------------------

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      buffer_(std::move(other.buffer_)),
      start_(std::exchange(other.start_, 0)),
      scanned_(std::exchange(other.scanned_, 0)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
    start_ = std::exchange(other.start_, 0);
    scanned_ = std::exchange(other.scanned_, 0);
  }
  return *this;
}

void Socket::write_all(std::string_view data) {
  BGLS_REQUIRE(valid(), "write on a closed socket");
  std::size_t written = 0;
  while (written < data.size()) {
    // Fault point "socket_send": degrade to one-byte writes so short
    // sends (and the retry loop around them) get exercised.
    const std::size_t chunk_len =
        fault::should_fail("socket_send") ? 1 : data.size() - written;
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE instead of killing
    // the process with SIGPIPE.
    const ssize_t n =
        ::send(fd_, data.data() + written, chunk_len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("socket write failed");
    }
    written += static_cast<std::size_t>(n);
  }
}

bool Socket::read_line(std::string& line, std::size_t max_bytes) {
  BGLS_REQUIRE(valid(), "read on a closed socket");
  while (true) {
    // Scan only bytes not scanned before, and consume lines by offset,
    // so reading stays linear in the bytes received however long the
    // line or deep the pipeline.
    const std::size_t newline = buffer_.find('\n', scanned_);
    const std::size_t end =
        newline == std::string::npos ? buffer_.size() : newline;
    if (end - start_ > max_bytes) {
      detail::throw_error<LineTooLongError>("line longer than ", max_bytes,
                                            " bytes");
    }
    if (newline != std::string::npos) {
      line.assign(buffer_, start_, newline - start_);
      start_ = scanned_ = newline + 1;
      return true;
    }
    // Every complete line is consumed: drop them before reading more.
    // Only the partial line moves, and once (start_ stays 0 until it
    // completes).
    buffer_.erase(0, start_);
    start_ = 0;
    scanned_ = buffer_.size();
    // Fault point "socket_recv": behave as if the read was interrupted
    // (EINTR path) — the loop must simply retry.
    if (fault::should_fail("socket_recv")) continue;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("socket read failed");
    }
    if (n == 0) {
      // EOF: surface a trailing unterminated line once, then report
      // end of stream.
      if (buffer_.empty()) return false;
      line = std::move(buffer_);
      buffer_.clear();
      scanned_ = 0;
      return true;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

void Socket::shutdown_both() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// --- ServerSocket ---------------------------------------------------------

ServerSocket::~ServerSocket() {
  // Runs after any accepting thread has been joined (see header): the
  // descriptors can be released without racing a poll() on them.
  if (fd_ >= 0) ::close(fd_);
  if (wake_read_ >= 0) ::close(wake_read_);
  if (wake_write_ >= 0) ::close(wake_write_);
  if (fd_ >= 0 && endpoint_.is_unix()) {
    ::unlink(endpoint_.unix_path.c_str());
  }
}

void ServerSocket::listen_on(const Endpoint& endpoint) {
  BGLS_REQUIRE(fd_ < 0, "ServerSocket is already listening");
  const Address address = resolve(endpoint);
  endpoint_ = endpoint;
  fd_ = ::socket(address.family, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket() failed");

  if (endpoint.is_unix()) {
    // A previous daemon's stale socket file would make bind fail.
    ::unlink(endpoint.unix_path.c_str());
  } else {
    const int enable = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  }
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&address.storage),
             address.length) != 0) {
    throw_errno("cannot bind " + endpoint.to_string());
  }
  if (::listen(fd_, SOMAXCONN) != 0) {
    throw_errno("listen() failed on " + endpoint.to_string());
  }
  if (!endpoint.is_unix()) {
    // Read back the ephemeral port so clients can be pointed at it.
    sockaddr_in bound{};
    socklen_t length = sizeof(bound);
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &length) ==
        0) {
      endpoint_.port = ntohs(bound.sin_port);
    }
  }
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) throw_errno("pipe() failed");
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
}

Socket ServerSocket::accept() {
  BGLS_REQUIRE(fd_ >= 0, "accept() before listen_on()");
  while (!closed_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_read_, POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll() failed");
    }
    if (fds[1].revents != 0) return Socket{};  // close() woke us
    if (fds[0].revents == 0) continue;
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors: the connection stays queued until one is
        // released. Back off rather than spin; close() still wakes us.
        ::poll(&fds[1], 1, 100);
        continue;
      }
      return Socket{};  // listening socket was torn down
    }
    return Socket{client};
  }
  return Socket{};
}

void ServerSocket::close() noexcept {
  closed_.store(true, std::memory_order_release);
  if (wake_write_ >= 0) {
    const char byte = 'x';
    // Wakes the poll(); the descriptor itself is released by the
    // destructor, after the accepting thread joined.
    [[maybe_unused]] const ssize_t n = ::write(wake_write_, &byte, 1);
  }
}

Socket connect_to(const Endpoint& endpoint) {
  const Address address = resolve(endpoint);
  const int fd = ::socket(address.family, SOCK_STREAM, 0);
  if (fd < 0) {
    if (errno == EMFILE || errno == ENFILE) {
      detail::throw_error<DescriptorLimitError>(
          "cannot connect to ", endpoint.to_string(), ": ",
          std::strerror(errno));
    }
    throw_errno("socket() failed");
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address.storage),
                address.length) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("cannot connect to " + endpoint.to_string());
  }
  return Socket{fd};
}

}  // namespace bgls::service
