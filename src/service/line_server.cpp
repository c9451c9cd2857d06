#include "service/line_server.h"

#include <sys/resource.h>

#include <algorithm>
#include <utility>

#include "obs/log.h"
#include "service/cost.h"
#include "service/journal.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "util/error.h"
#include "util/timing.h"

namespace bgls::service {
namespace {

/// Descriptors a server keeps beyond its connections: standard streams,
/// the listener and its wake pipe, journal and log files, a health ping.
constexpr std::size_t kReservedDescriptors = 32;

/// The largest cap up to `cap` whose connections fit the descriptor
/// limit, at `per_connection` descriptors each.
std::size_t fit_descriptor_limit(std::size_t cap, std::size_t per_connection) {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0 ||
      limit.rlim_cur == RLIM_INFINITY) {
    return cap;
  }
  const std::size_t usable =
      limit.rlim_cur > kReservedDescriptors
          ? static_cast<std::size_t>(limit.rlim_cur) - kReservedDescriptors
          : 0;
  return std::min(cap, usable / per_connection);
}

}  // namespace

std::string error_line(std::string_view code, std::string_view message) {
  return response_line(false, [&](JsonWriter& json) {
    json.key("code").value(code);
    json.key("error").value(message);
  });
}

LineServer::LineServer(Options options, Handlers handlers)
    : options_(std::move(options)), handlers_(std::move(handlers)) {
  handlers_.emplace("logs", [this](const Request& r) { handle_logs(r); });
  handlers_.emplace("shutdown", [this](const Request& r) {
    r.socket.write_all(response_line(true, [](JsonWriter&) {}));
    request_shutdown();
  });
  // Per-op counters are registered up front (the map is read-only
  // afterwards), so the request path only touches relaxed atomics.
  auto& registry = obs::MetricsRegistry::global();
  const std::string prefix = "bgls_" + options_.name + "_";
  const char* help = "Requests handled, by op";
  for (const auto& [op, handler] : handlers_) {
    requests_.emplace(op, registry.counter(prefix + "requests_total{op=\"" +
                                               op + "\"}",
                                           help));
  }
  other_requests_ =
      registry.counter(prefix + "requests_total{op=\"other\"}", help);
  request_seconds_ = registry.histogram(
      prefix + "request_seconds",
      "Wall time handling one request line (stream/wait ops include the "
      "time spent following the job)");
  connections_total_ = registry.counter(prefix + "connections_total",
                                        "Client connections accepted");
  open_connections_ = registry.gauge(prefix + "open_connections",
                                     "Client connections currently open");
}

LineServer::~LineServer() { stop(); }

void LineServer::start(const Endpoint& endpoint) {
  BGLS_REQUIRE(!started_, options_.name, " already started");
  const std::size_t cap = fit_descriptor_limit(
      options_.max_connections, options_.descriptors_per_connection);
  if (cap == 0) {
    detail::throw_error<IoError>(options_.name,
                                 ": the descriptor limit holds no connection");
  }
  if (cap < options_.max_connections) {
    obs::log(obs::LogLevel::kWarn, options_.name,
             "connection cap lowered to fit the descriptor limit",
             {{"max_connections", static_cast<std::uint64_t>(cap)}});
    options_.max_connections = cap;
  }
  listener_.listen_on(endpoint);
  started_ = true;
  acceptor_ = std::thread([this] { accept_loop(); });
}

void LineServer::stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  listener_.close();
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::unique_ptr<Connection>> connections;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    // Unblock handler threads stuck in read_line; fds are released when
    // the Connection objects die below, after the joins.
    for (auto& connection : connections_) connection->socket.shutdown_both();
    connections.swap(connections_);
  }
  for (auto& connection : connections) {
    if (connection->thread.joinable()) connection->thread.join();
  }
  started_ = false;
  request_shutdown();
}

void LineServer::wait_for_shutdown() {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  shutdown_cv_.wait(lock, [&] { return shutdown_requested_; });
}

bool LineServer::wait_for_shutdown(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  return shutdown_cv_.wait_for(lock, timeout,
                               [&] { return shutdown_requested_; });
}

void LineServer::request_shutdown() {
  {
    const std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void LineServer::accept_loop() {
  while (true) {
    Socket socket = listener_.accept();
    if (!socket.valid()) return;  // close()d
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    reap_locked();
    if (connections_.size() >= options_.max_connections) {
      // A fresh socket's send buffer is empty, so this cannot block.
      try {
        socket.write_all(error_line(
            "too_many_connections",
            options_.name + " already serves " +
                std::to_string(options_.max_connections) + " connections"));
      } catch (const IoError&) {
        // The peer left already.
      }
      continue;  // closes the socket
    }
    auto connection = std::make_unique<Connection>();
    connection->socket = std::move(socket);
    Connection* raw = connection.get();
    connection->thread = std::thread([this, raw] { serve(*raw); });
    connections_.push_back(std::move(connection));
  }
}

void LineServer::reap_locked() {
  std::erase_if(connections_, [](const std::unique_ptr<Connection>& c) {
    if (!c->done.load(std::memory_order_acquire)) return false;
    c->thread.join();
    return true;
  });
}

void LineServer::serve(Connection& connection) {
  connections_total_.add();
  open_connections_.add(1);
  std::vector<Socket> links;
  std::string line;
  try {
    while (connection.socket.read_line(line, kMaxRequestLineBytes)) {
      if (!line.empty()) dispatch(line, connection.socket, links);
    }
  } catch (const LineTooLongError& e) {
    try {
      connection.socket.write_all(error_line("line_too_long", e.what()));
    } catch (const IoError&) {
      // The peer left already.
    }
  } catch (const IoError&) {
    // Peer vanished mid-request/response — normal client churn.
  }
  open_connections_.sub(1);
  {
    // Release the descriptor now rather than at reaping, which waits for
    // the next accept — and a server out of descriptors cannot accept.
    // Under the lock stop() shuts sockets down with.
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    connection.socket.close();
  }
  connection.done.store(true, std::memory_order_release);
}

void LineServer::dispatch(const std::string& line, Socket& socket,
                          std::vector<Socket>& links) {
  const Stopwatch watch;
  std::string op;
  std::uint64_t job = 0;
  std::uint64_t trace_id = 0;
  const auto answer = [&](std::string_view code, const std::exception& e) {
    socket.write_all(error_line(code, e.what()));
  };
  try {
    const JsonValue message = JsonValue::parse(line);
    op = message.string_or("op", "");
    const auto counter = requests_.find(op);
    (counter != requests_.end() ? counter->second : other_requests_).add();
    // Read here, inside the try, so a malformed field is a bad_request
    // rather than an abort in the slow-request log below.
    job = message.u64_or("job", 0);
    trace_id = message.u64_or("trace_id", 0);
    const auto handler = handlers_.find(op);
    if (handler == handlers_.end()) {
      socket.write_all(error_line("unknown_op", "unknown op '" + op + "'"));
    } else {
      handler->second(Request{message, line, socket, links});
    }
  } catch (const IoError&) {
    throw;  // connection-level: let the handler loop exit
  } catch (const ServiceError& e) {
    answer(e.code(), e);
  } catch (const QueueFullError& e) {
    answer("queue_full", e);
  } catch (const TenantQuotaError& e) {
    // Retryable like queue_full: the tenant's backlog drains.
    answer("tenant_quota", e);
  } catch (const CostBudgetError& e) {
    // Retryable only for the backlog budget; a per-job over-budget
    // rejection re-fails identically, but the slug lets clients decide.
    answer("over_budget", e);
  } catch (const JournalError& e) {
    // Transient durability failure: the client should back off and
    // retry (bgls_client --retries does).
    answer("journal_error", e);
  } catch (const ParseError& e) {
    answer("parse_error", e);
  } catch (const std::exception& e) {
    // Unknown job ids, malformed fields, capability errors, ...
    answer("bad_request", e);
  }
  const double seconds = watch.seconds();
  request_seconds_.observe(seconds);
  if (options_.slow_request_ms > 0 &&
      seconds * 1000.0 >= static_cast<double>(options_.slow_request_ms)) {
    // Correlate through the job's trace when the request carries none.
    if (trace_id == 0 && job != 0 && options_.trace_of) {
      trace_id = options_.trace_of(job);
    }
    obs::log(obs::LogLevel::kWarn, options_.name, "slow request",
             {{"op", op}, {"ms", seconds * 1000.0}}, trace_id, job);
  }
}

void LineServer::handle_logs(const Request& request) {
  const JsonValue& message = request.message;
  const std::string level_name = message.string_or("level", "debug");
  obs::LogLevel min_level = obs::LogLevel::kDebug;
  BGLS_REQUIRE(obs::parse_log_level(level_name, &min_level),
               "unknown log level '", level_name,
               "' (expected debug/info/warn/error)");
  const std::uint64_t trace_id = message.u64_or("trace_id", 0);
  const std::uint64_t limit = message.u64_or("limit", 100);
  const std::vector<obs::LogRecord> records = obs::Logger::global().tail(
      static_cast<std::size_t>(limit), min_level, trace_id);
  request.socket.write_all(response_line(true, [&](JsonWriter& json) {
    json.key("count").value(static_cast<std::uint64_t>(records.size()));
    json.key("lines").begin_array();
    for (const obs::LogRecord& record : records) {
      json.value(obs::format_log_line(record));
    }
    json.end_array();
  }));
}

}  // namespace bgls::service
