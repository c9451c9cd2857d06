/// \file line_server.h
/// LineServer — the ndjson request server under both serving processes:
/// `bgls_serve` (ServiceDaemon) and the `bgls_fleet` front (FleetDaemon).
///
/// One thread accepts connections; each connection gets a handler
/// thread that reads request lines until the peer disconnects (clients
/// may pipeline many requests over one connection) and dispatches each
/// by its "op" through the owner's handler table. LineServer answers
/// the ops both servers share (`logs`, `shutdown`), maps handler
/// exceptions onto the protocol's error slugs (service/protocol.h),
/// and records per-request metrics and slow-request logs under the
/// server's name.
///
/// Peers are bounded: a request line longer than kMaxRequestLineBytes
/// is answered `line_too_long` and its connection closed, and past the
/// server's connection cap the acceptor answers `too_many_connections`
/// and closes the socket without spawning a handler. start() lowers the
/// cap to what the process's descriptor limit holds, so a full server
/// refuses connections rather than running out of descriptors.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "service/socket.h"
#include "util/json_parser.h"
#include "util/json_writer.h"

namespace bgls::service {

/// Longest request line a LineServer reads, newline excluded. Far above
/// any real request; lines a fleet reads from workers and a client reads
/// from servers stay uncapped (a `result` line grows with the histogram).
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{16} << 20;

/// Open-connection caps, before start() fits them to the descriptor
/// limit. A fleet front holds one link per (client connection, worker)
/// plus a fresh health-ping connection, so its cap must sit below a
/// worker's: a full front would otherwise have its pings refused.
inline constexpr std::size_t kWorkerMaxConnections = 1024;
inline constexpr std::size_t kFleetMaxConnections = 512;
static_assert(kFleetMaxConnections < kWorkerMaxConnections,
              "a full fleet front must still reach its workers");

/// Builds one compact response line ({"ok":...,...}\n) via a filler
/// callback receiving the open JsonWriter object scope.
template <typename Fill>
std::string response_line(bool ok, Fill fill) {
  std::ostringstream os;
  JsonWriter json(os, JsonWriter::Style::kCompact);
  json.begin_object();
  json.key("ok").value(ok);
  fill(json);
  json.end_object();
  os << "\n";
  return os.str();
}

/// {"ok":false,"code":...,"error":...}\n
[[nodiscard]] std::string error_line(std::string_view code,
                                     std::string_view message);

class LineServer {
 public:
  /// One request as its handler sees it.
  struct Request {
    const JsonValue& message;  ///< the parsed request object
    const std::string& line;   ///< its raw text, without the newline
    Socket& socket;            ///< the client connection: write answers here
    /// Sockets a handler opens lazily on this connection, one slot per
    /// upstream server (the fleet's worker links); empty until used.
    std::vector<Socket>& links;
  };
  using Handler = std::function<void(const Request&)>;
  using Handlers = std::map<std::string, Handler, std::less<>>;

  struct Options {
    /// "daemon" or "fleet": names the series (bgls_<name>_requests_total
    /// ...) and is the log component of slow-request lines.
    std::string name;
    std::size_t max_connections = 0;
    /// Descriptors one connection can hold: its socket plus any links
    /// its handlers open (a fleet front: one per worker).
    std::size_t descriptors_per_connection = 1;
    /// Request lines slower than this are warn-logged; 0 disables.
    std::uint64_t slow_request_ms = 0;
    /// A job's trace id for slow-request logs (0 when unknown); called
    /// for requests that name a job but carry no trace_id. Must not throw.
    std::function<std::uint64_t(std::uint64_t job)> trace_of;
  };

  /// `handlers` maps each op to its handler; `logs` and `shutdown` are
  /// added here. Handlers run on connection threads, concurrently.
  LineServer(Options options, Handlers handlers);

  /// stop()s if still running.
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Binds `endpoint` and starts accepting. Throws IoError on bind
  /// failures, or when the descriptor limit holds no connection.
  void start(const Endpoint& endpoint);

  /// Stops accepting, disconnects every client, joins every handler
  /// thread, then releases wait_for_shutdown(). Idempotent.
  void stop();

  /// Blocks until a client sent `shutdown`, request_shutdown() or stop()
  /// ran.
  void wait_for_shutdown();
  /// The same, giving up after `timeout`; true when shutdown was
  /// requested (an interruptible sleep for background loops).
  bool wait_for_shutdown(std::chrono::milliseconds timeout);
  void request_shutdown();

  /// True from the start of stop(): long-running handlers poll it.
  [[nodiscard]] bool stopping() const {
    return stopping_.load(std::memory_order_acquire);
  }

  /// The bound endpoint (TCP: with the resolved ephemeral port).
  [[nodiscard]] const Endpoint& endpoint() const {
    return listener_.endpoint();
  }

 private:
  struct Connection {
    Socket socket;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  /// Joins and drops finished connections; caller holds
  /// connections_mutex_.
  void reap_locked();
  void serve(Connection& connection);
  /// Answers one request line (several for streaming handlers).
  void dispatch(const std::string& line, Socket& socket,
                std::vector<Socket>& links);
  void handle_logs(const Request& request);

  Options options_;
  Handlers handlers_;

  std::map<std::string, obs::Counter, std::less<>> requests_;
  obs::Counter other_requests_;
  obs::Histogram request_seconds_;
  obs::Counter connections_total_;
  obs::Gauge open_connections_;

  ServerSocket listener_;
  std::thread acceptor_;
  bool started_ = false;
  std::atomic<bool> stopping_{false};

  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;

  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
};

}  // namespace bgls::service
