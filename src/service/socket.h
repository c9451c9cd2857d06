/// \file socket.h
/// Minimal POSIX stream-socket wrappers for the service layer: the
/// `bgls_serve` daemon and `bgls_client` speak newline-delimited JSON
/// over a Unix-domain or TCP socket, and all they need from the OS is
/// listen/accept/connect plus buffered line IO. No external dependency;
/// Linux/POSIX only (the daemon is gated out of non-UNIX builds in
/// CMake).
///
/// Blocking accept() is made interruptible with a self-pipe: close()
/// wakes the poll() so a serving thread can be shut down promptly —
/// the daemon's stop path relies on it.

#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "util/error.h"

namespace bgls::service {

/// Thrown on socket-level failures (connect refused, write on a closed
/// peer, bind errors, ...).
class IoError : public Error {
 public:
  using Error::Error;
};

/// Thrown by Socket::read_line when a line exceeds the caller's cap.
class LineTooLongError : public IoError {
 public:
  using IoError::IoError;
};

/// Thrown by connect_to when this process is out of file descriptors
/// (EMFILE/ENFILE): a local shortage, not a fault of the peer.
class DescriptorLimitError : public IoError {
 public:
  using IoError::IoError;
};

/// Where a server listens / a client connects: a Unix-domain socket
/// path or a TCP host:port.
struct Endpoint {
  std::string unix_path;  ///< non-empty = Unix-domain
  std::string host;       ///< TCP peer/bind address (empty = loopback)
  int port = 0;           ///< TCP port (0 = ephemeral when listening)

  [[nodiscard]] bool is_unix() const { return !unix_path.empty(); }

  [[nodiscard]] static Endpoint unix_socket(std::string path);
  [[nodiscard]] static Endpoint tcp(std::string host, int port);

  /// Parses "unix:/path/to.sock", "tcp:host:port", or "tcp::port"
  /// (loopback). Throws ValueError on anything else.
  [[nodiscard]] static Endpoint parse(const std::string& spec);

  /// The parseable spec string ("unix:..." / "tcp:host:port").
  [[nodiscard]] std::string to_string() const;
};

/// A connected stream socket with buffered line reads. Move-only;
/// closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  /// Writes all of `data` (SIGPIPE-safe); throws IoError on failure.
  void write_all(std::string_view data);

  /// Reads up to the next '\n' (consumed, not included) into `line`.
  /// Returns false on clean EOF with no buffered data; throws IoError
  /// on read failures, and LineTooLongError as soon as the line is
  /// known to exceed `max_bytes` (so a peer that never sends '\n'
  /// grows the buffer at most one read past the cap).
  bool read_line(std::string& line,
                 std::size_t max_bytes = std::numeric_limits<std::size_t>::max());

  /// Shuts down both directions (unblocks a peer's blocking read).
  void shutdown_both() noexcept;

  void close() noexcept;

 private:
  int fd_ = -1;
  std::string buffer_;       ///< received bytes; [start_, end) is unread
  std::size_t start_ = 0;    ///< where the next line begins in buffer_
  std::size_t scanned_ = 0;  ///< buffer_ holds no '\n' in [start_, scanned_)
};

/// A listening socket whose blocking accept() can be interrupted from
/// another thread by close(). Lifecycle contract: close() only
/// *signals* (accept returns an invalid Socket); the file descriptors
/// are released by the destructor, which must run after the accepting
/// thread has been joined — the daemon's stop path does exactly that.
class ServerSocket {
 public:
  ServerSocket() = default;
  ~ServerSocket();

  ServerSocket(const ServerSocket&) = delete;
  ServerSocket& operator=(const ServerSocket&) = delete;

  /// Binds and listens on `endpoint`. Unix paths: a stale socket file
  /// is unlinked first. TCP port 0 picks an ephemeral port (read it
  /// back from endpoint()). Throws IoError; at most once per instance.
  void listen_on(const Endpoint& endpoint);

  /// Blocks until a client connects (returns the connection) or the
  /// server is close()d (returns an invalid Socket).
  [[nodiscard]] Socket accept();

  /// Unblocks accept() permanently. Idempotent, thread-safe.
  void close() noexcept;

  [[nodiscard]] bool listening() const {
    return fd_ >= 0 && !closed_.load(std::memory_order_acquire);
  }

  /// The endpoint actually bound (TCP: with the resolved port).
  [[nodiscard]] const Endpoint& endpoint() const { return endpoint_; }

 private:
  int fd_ = -1;
  int wake_read_ = -1;   ///< self-pipe: poll()ed alongside the listen fd
  int wake_write_ = -1;  ///< written by close() to interrupt accept()
  std::atomic<bool> closed_{false};
  Endpoint endpoint_;
};

/// Connects to a listening endpoint; throws IoError on failure
/// (DescriptorLimitError when no descriptor is left for the socket).
[[nodiscard]] Socket connect_to(const Endpoint& endpoint);

}  // namespace bgls::service
