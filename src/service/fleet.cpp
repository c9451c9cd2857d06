#include "service/fleet.h"

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "obs/exposition.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "service/protocol.h"
#include "util/json_writer.h"
#include "util/timing.h"

namespace bgls::service {
namespace {

/// Fleet series: placement, proxying, and health transitions.
struct FleetMetrics {
  obs::Counter forwarded;
  obs::Counter worker_down;
  obs::Counter health_failures;
  obs::Gauge live_workers;

  FleetMetrics() {
    auto& registry = obs::MetricsRegistry::global();
    forwarded = registry.counter("bgls_fleet_forwarded_total",
                                 "Requests proxied to a worker");
    worker_down = registry.counter(
        "bgls_fleet_worker_down_total",
        "Requests answered with the worker_down slug");
    health_failures = registry.counter(
        "bgls_fleet_health_failures_total",
        "Health pings that found a worker unresponsive");
    live_workers =
        registry.gauge("bgls_fleet_live_workers", "Workers currently alive");
  }

  static FleetMetrics& instance() {
    static FleetMetrics metrics;
    return metrics;
  }
};

/// Re-emits a parsed JSON value (the proxy rewrites ids inside
/// otherwise-opaque worker messages).
void write_value(JsonWriter& json, const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull: json.null(); return;
    case JsonValue::Kind::kBool: json.value(value.as_bool()); return;
    case JsonValue::Kind::kNumber:
      // Exact u64 round-trip when the token was a plain unsigned
      // integer (job ids, seeds); double otherwise.
      try {
        json.value(value.as_u64());
      } catch (const ValueError&) {
        json.value(value.as_double());
      }
      return;
    case JsonValue::Kind::kString: json.value(value.as_string()); return;
    case JsonValue::Kind::kArray:
      json.begin_array();
      for (const JsonValue& item : value.items()) write_value(json, item);
      json.end_array();
      return;
    case JsonValue::Kind::kObject:
      json.begin_object();
      for (const auto& [key, member] : value.members()) {
        json.key(key);
        write_value(json, member);
      }
      json.end_object();
      return;
  }
}

/// One message line with its "job" member (if any) replaced by `job`.
std::string with_job_id(const JsonValue& message, std::uint64_t job) {
  std::ostringstream os;
  JsonWriter json(os, JsonWriter::Style::kCompact);
  json.begin_object();
  bool wrote_job = false;
  for (const auto& [key, member] : message.members()) {
    json.key(key);
    if (key == "job") {
      json.value(job);
      wrote_job = true;
    } else {
      write_value(json, member);
    }
  }
  if (!wrote_job) json.key("job").value(job);
  json.end_object();
  os << "\n";
  return os.str();
}

/// One submit line with its trace context rewritten: the fleet's trace
/// id, and the fleet.place span as the worker's parent — the worker's
/// queue/run spans then stitch under the fleet's placement span.
std::string with_trace_context(const JsonValue& message,
                               std::uint64_t trace_id,
                               std::uint64_t parent_span_id) {
  std::ostringstream os;
  JsonWriter json(os, JsonWriter::Style::kCompact);
  json.begin_object();
  for (const auto& [key, member] : message.members()) {
    if (key == "trace_id" || key == "parent_span_id") continue;
    json.key(key);
    write_value(json, member);
  }
  json.key("trace_id").value(trace_id);
  json.key("parent_span_id").value(parent_span_id);
  json.end_object();
  os << "\n";
  return os.str();
}

/// Injects worker="N" into one Prometheus series line:
///   name{a="b"} v  →  name{worker="N",a="b"} v
///   name v         →  name{worker="N"} v
std::string with_worker_label(const std::string& line, std::size_t worker) {
  const std::string label = "worker=\"" + std::to_string(worker) + "\"";
  const std::size_t brace = line.find('{');
  const std::size_t space = line.find(' ');
  if (brace != std::string::npos &&
      (space == std::string::npos || brace < space)) {
    const bool empty_set = brace + 1 < line.size() && line[brace + 1] == '}';
    return line.substr(0, brace + 1) + label + (empty_set ? "" : ",") +
           line.substr(brace + 1);
  }
  if (space == std::string::npos) return line;  // malformed; pass through
  return line.substr(0, space) + "{" + label + "}" + line.substr(space);
}

/// True for a worker answer that refused the connection or the line: the
/// worker closes the link after it, but is up.
bool refuses_link(const std::string& answer) {
  if (!answer.starts_with(R"({"ok":false)")) return false;
  const std::string code = JsonValue::parse(answer).string_or("code", "");
  return code == "too_many_connections" || code == "line_too_long";
}

/// True for final (non-progress) frames carrying a terminal job state.
bool is_terminal_frame(const JsonValue& frame) {
  const std::string state = frame.string_or("state", "");
  return state == "done" || state == "failed" || state == "cancelled" ||
         state == "timeout";
}

}  // namespace

FleetDaemon::FleetDaemon(FleetOptions options)
    : options_(std::move(options)),
      server_({.name = "fleet",
               .max_connections = kFleetMaxConnections,
               .descriptors_per_connection = 1 + options_.workers.size(),
               .slow_request_ms = options_.slow_request_ms,
               .trace_of = [this](std::uint64_t job) { return trace_of(job); }},
              handlers()) {
  BGLS_REQUIRE(!options_.workers.empty(),
               "a fleet needs at least one --worker endpoint");
  workers_.reserve(options_.workers.size());
  for (const Endpoint& endpoint : options_.workers) {
    auto worker = std::make_unique<Worker>();
    worker->endpoint = endpoint;
    workers_.push_back(std::move(worker));
  }
}

LineServer::Handlers FleetDaemon::handlers() {
  // Counts every worker_down answer, whichever handler raised it.
  const auto counted = [this](void (FleetDaemon::*handle)(const Request&)) {
    return [this, handle](const Request& request) {
      try {
        (this->*handle)(request);
      } catch (const ServiceError& e) {
        if (e.code() == "worker_down") FleetMetrics::instance().worker_down.add();
        throw;
      }
    };
  };
  const auto job_op = counted(&FleetDaemon::handle_job_op);
  return {
      {"submit", counted(&FleetDaemon::handle_submit)},
      {"status", job_op},
      {"cancel", job_op},
      {"result", job_op},
      {"wait", job_op},
      {"stream", job_op},
      {"stats", counted(&FleetDaemon::handle_stats)},
      {"metrics", counted(&FleetDaemon::handle_metrics)},
      {"trace", counted(&FleetDaemon::handle_trace)},
      {"fleet", counted(&FleetDaemon::handle_fleet)},
      {"drain", counted(&FleetDaemon::handle_drain)},
      {"undrain", counted(&FleetDaemon::handle_drain)},
  };
}

FleetDaemon::~FleetDaemon() { stop(); }

void FleetDaemon::start() {
  server_.start(options_.endpoint);
  FleetMetrics::instance().live_workers.set(
      static_cast<std::int64_t>(workers_.size()));
  health_ = std::thread([this] { health_loop(); });
}

void FleetDaemon::stop() {
  server_.stop();  // also ends health_loop's wait
  if (health_.joinable()) health_.join();
}

void FleetDaemon::wait_for_shutdown() { server_.wait_for_shutdown(); }

void FleetDaemon::request_shutdown() { server_.request_shutdown(); }

std::vector<FleetDaemon::WorkerStatus> FleetDaemon::workers() const {
  std::vector<WorkerStatus> out;
  out.reserve(workers_.size());
  for (const auto& worker : workers_) {
    WorkerStatus status;
    status.endpoint = worker->endpoint;
    status.alive = worker->alive.load(std::memory_order_acquire);
    status.draining = worker->draining.load(std::memory_order_acquire);
    status.in_flight = worker->in_flight.load(std::memory_order_acquire);
    status.placed = worker->placed.load(std::memory_order_acquire);
    out.push_back(std::move(status));
  }
  return out;
}

std::string FleetDaemon::call(std::vector<Socket>& links, std::size_t worker,
                              std::string_view line) {
  // Re-emitting a request (trace fields, JsonWriter's \u00XX escapes)
  // can grow it past the cap it passed here; refuse it before a worker
  // does and drops the link.
  if (line.size() > kMaxRequestLineBytes + 1) {
    throw ServiceError("line_too_long",
                       "request grows to " + std::to_string(line.size() - 1) +
                           " bytes when forwarded, over the cap of " +
                           std::to_string(kMaxRequestLineBytes));
  }
  links.resize(workers_.size());
  Socket& link = links[worker];
  std::string answer;
  try {
    if (!link.valid()) link = connect_to(workers_[worker]->endpoint);
    std::string write_error;
    try {
      if (!line.empty()) link.write_all(line);
    } catch (const IoError& e) {
      write_error = e.what();  // a refusal may still be there to read
    }
    if (!link.read_line(answer)) {
      detail::throw_error<IoError>("worker closed the connection");
    }
    if (refuses_link(answer)) {
      link.close();
      return answer;
    }
    if (!write_error.empty()) detail::throw_error<IoError>(write_error);
  } catch (const DescriptorLimitError& e) {
    // Out of descriptors here, not a fault of the worker.
    throw ServiceError("too_many_connections", e.what());
  } catch (const IoError& e) {
    link.close();
    workers_[worker]->alive.store(false, std::memory_order_release);
    throw ServiceError("worker_down",
                       "worker " + workers_[worker]->endpoint.to_string() +
                           " failed mid-request (" + e.what() + ")");
  }
  return answer;
}

std::vector<std::pair<std::size_t, JsonValue>> FleetDaemon::ask_live_workers(
    std::vector<Socket>& links, const std::string& op) {
  std::vector<std::pair<std::size_t, JsonValue>> answers;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (!workers_[i]->alive.load(std::memory_order_acquire)) continue;
    try {
      JsonValue answer = JsonValue::parse(call(links, i, op_request_line(op)));
      if (answer.bool_or("ok", false)) answers.emplace_back(i, std::move(answer));
    } catch (const ServiceError&) {
      // Down, or out of reach for now: its counts come back later.
    }
  }
  return answers;
}

FleetDaemon::Route FleetDaemon::live_route(std::uint64_t global_id) const {
  Route route;
  {
    const std::lock_guard<std::mutex> lock(routes_mutex_);
    const auto it = routes_.find(global_id);
    if (it == routes_.end()) {
      throw ServiceError("unknown_job",
                         "unknown fleet job id " + std::to_string(global_id));
    }
    route = it->second;
  }
  if (!workers_[route.worker]->alive.load(std::memory_order_acquire)) {
    throw ServiceError("worker_down",
                       "job " + std::to_string(global_id) + " lives on " +
                           workers_[route.worker]->endpoint.to_string() +
                           ", which is down");
  }
  return route;
}

std::uint64_t FleetDaemon::trace_of(std::uint64_t global_id) const {
  const std::lock_guard<std::mutex> lock(routes_mutex_);
  const auto it = routes_.find(global_id);
  return it != routes_.end() ? it->second.trace->id() : 0;
}

std::size_t FleetDaemon::pick_worker_locked() const {
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::size_t best = kNone;
  std::uint64_t best_load = 0;
  // Scan from the round-robin cursor so equal loads rotate placement.
  for (std::size_t offset = 0; offset < workers_.size(); ++offset) {
    const std::size_t i = (placement_cursor_ + offset) % workers_.size();
    const Worker& worker = *workers_[i];
    if (!worker.alive.load(std::memory_order_acquire)) continue;
    if (worker.draining.load(std::memory_order_acquire)) continue;
    const std::uint64_t load = worker.in_flight.load(std::memory_order_acquire);
    if (best == kNone || load < best_load) {
      best = i;
      best_load = load;
    }
  }
  return best;
}

void FleetDaemon::handle_submit(const Request& request) {
  const JsonValue& message = request.message;
  // Placement + id allocation under one lock so concurrent submits
  // spread out; the proxying itself runs unlocked. The global id is
  // allocated *before* the worker answers so it can double as the
  // distributed trace id when the client did not mint one.
  std::size_t target;
  std::uint64_t global_id = 0;
  {
    const std::lock_guard<std::mutex> lock(routes_mutex_);
    target = pick_worker_locked();
    placement_cursor_ = (placement_cursor_ + 1) % workers_.size();
    if (target != std::numeric_limits<std::size_t>::max()) {
      global_id = next_global_id_++;
    }
  }
  if (target == std::numeric_limits<std::size_t>::max()) {
    throw ServiceError("worker_down",
                       "no live undrained worker to place the job on");
  }

  // The fleet's side of the distributed trace. The forwarded line gets
  // the (possibly fleet-minted) trace id and the fleet.place span as
  // parent_span_id; the worker's queue/run spans stitch under it. A
  // client-supplied parent_span_id becomes fleet.place's own parent.
  const std::uint64_t client_trace = message.u64_or("trace_id", 0);
  const std::uint64_t trace_id = client_trace != 0 ? client_trace : global_id;
  auto trace = std::make_shared<obs::Trace>(
      trace_id, message.u64_or("parent_span_id", 0));
  const std::string forward = with_trace_context(
      message, trace_id, obs::Trace::span_id(trace_id, "fleet.place", 0));

  const Stopwatch place_watch;
  const std::string response_text = call(request.links, target, forward);
  FleetMetrics::instance().forwarded.add();
  const JsonValue response = JsonValue::parse(response_text);
  if (!response.bool_or("ok", false) || response.find("job") == nullptr) {
    // Worker-side rejection (queue_full, tenant_quota, over_budget...):
    // forwarded verbatim — the slugs are the protocol's.
    request.socket.write_all(response_text + "\n");
    return;
  }
  const bool born_terminal = is_terminal_frame(response);
  if (obs::enabled()) {
    trace->record({obs::Trace::span_id(trace->id(), "fleet.place", 0),
                   trace->parent(), "fleet.place", 0,
                   place_watch.seconds()});
    if (born_terminal) {
      // The submit ack itself delivered the terminal state (cache hit,
      // or the job outran the ack) — there will be no later proxied
      // terminal frame, so record the job's one fleet.proxy span here.
      // Structure stays deterministic: every placed job's tree carries
      // fleet.place + fleet.proxy however the timing race lands.
      trace->record({obs::Trace::span_id(trace->id(), "fleet.proxy", 0),
                     trace->parent(), "fleet.proxy", 0, 0.0});
    }
  }
  const std::uint64_t remote_id = response.u64_or("job", 0);
  {
    const std::lock_guard<std::mutex> lock(routes_mutex_);
    Route route;
    route.worker = target;
    route.remote_id = remote_id;
    // Born-terminal jobs never count as in-flight.
    route.finished = born_terminal;
    route.trace = std::move(trace);
    if (!route.finished) {
      workers_[target]->in_flight.fetch_add(1, std::memory_order_acq_rel);
    }
    routes_[global_id] = std::move(route);
  }
  workers_[target]->placed.fetch_add(1, std::memory_order_acq_rel);
  request.socket.write_all(with_job_id(response, global_id));
}

void FleetDaemon::note_finished(std::uint64_t global_id,
                                const JsonValue& response,
                                double proxy_seconds) {
  if (!is_terminal_frame(response)) return;
  std::shared_ptr<obs::Trace> trace;
  {
    const std::lock_guard<std::mutex> lock(routes_mutex_);
    const auto it = routes_.find(global_id);
    if (it == routes_.end() || it->second.finished) return;
    it->second.finished = true;
    trace = it->second.trace;
    auto& in_flight = workers_[it->second.worker]->in_flight;
    std::uint64_t current = in_flight.load(std::memory_order_acquire);
    while (current > 0 &&
           !in_flight.compare_exchange_weak(current, current - 1,
                                            std::memory_order_acq_rel)) {
    }
  }
  // Exactly one fleet.proxy span per job — recorded at the first
  // terminal frame, whatever op observed it — so the merged tree is
  // deterministic however many times the client polled.
  if (obs::enabled()) {
    trace->record({obs::Trace::span_id(trace->id(), "fleet.proxy", 0),
                   trace->parent(), "fleet.proxy", 0, proxy_seconds});
  }
}

void FleetDaemon::handle_job_op(const Request& request) {
  const std::uint64_t global_id = job_field(request.message);
  const Route route = live_route(global_id);
  const Stopwatch proxy_watch;
  // stream answers with any number of progress frames before the final
  // response; every other op answers exactly one line. A non-progress
  // frame ends both shapes.
  std::string forward = with_job_id(request.message, route.remote_id);
  while (true) {
    const JsonValue frame =
        JsonValue::parse(call(request.links, route.worker, forward));
    note_finished(global_id, frame, proxy_watch.seconds());
    request.socket.write_all(with_job_id(frame, global_id));
    if (frame.string_or("type", "") != "progress") return;
    forward.clear();
  }
}

void FleetDaemon::handle_stats(const Request& request) {
  // Sum every live worker's counters; the per-backend / per-tenant
  // maps merge by key. Dead workers contribute nothing (their counts
  // come back when they do).
  std::map<std::string, std::uint64_t> totals;
  std::map<std::string, std::map<std::string, std::uint64_t>> maps;
  const auto answers = ask_live_workers(request.links, "stats");
  for (const auto& [worker, response] : answers) {
    for (const auto& [key, value] : response.members()) {
      if (key == "ok") continue;
      if (value.kind() == JsonValue::Kind::kNumber) {
        totals[key] += value.as_u64();
      } else if (value.kind() == JsonValue::Kind::kObject) {
        for (const auto& [inner, count] : value.members()) {
          maps[key][inner] += count.as_u64();
        }
      }
    }
  }
  request.socket.write_all(response_line(true, [&](JsonWriter& json) {
    json.key("workers").value(static_cast<std::uint64_t>(workers_.size()));
    json.key("workers_reachable").value(
        static_cast<std::uint64_t>(answers.size()));
    for (const auto& [key, value] : totals) json.key(key).value(value);
    for (const auto& [key, value] : maps) {
      json.key(key).begin_object();
      for (const auto& [inner, count] : value) json.key(inner).value(count);
      json.end_object();
    }
  }));
}

void FleetDaemon::handle_metrics(const Request& request) {
  // The fleet's own series first (no worker label — they describe the
  // front), then each live worker's scrape with worker="N" injected
  // into every series line. HELP/TYPE headers repeat per family name;
  // keep the first and drop duplicates so the merged exposition stays
  // valid.
  std::string text =
      obs::to_prometheus(obs::MetricsRegistry::global().snapshot());
  std::set<std::string> seen_headers;
  for (const auto& [worker, response] :
       ask_live_workers(request.links, "metrics")) {
    const std::string scrape = response.string_or("metrics", "");
    std::size_t start = 0;
    while (start < scrape.size()) {
      const std::size_t end = scrape.find('\n', start);
      const std::string line =
          scrape.substr(start, end == std::string::npos ? std::string::npos
                                                        : end - start);
      start = end == std::string::npos ? scrape.size() : end + 1;
      if (line.empty()) continue;
      if (line[0] == '#') {
        // "# HELP name ..." / "# TYPE name ..." — keyed per line text
        // minus the worker-independent suffix is fine: the whole line
        // is identical across workers.
        if (seen_headers.insert(line).second) text += line + "\n";
        continue;
      }
      text += with_worker_label(line, worker) + "\n";
    }
  }
  request.socket.write_all(response_line(true, [&](JsonWriter& json) {
    json.key("metrics").value(text);
  }));
}

void FleetDaemon::handle_trace(const Request& request) {
  const std::uint64_t global_id = job_field(request.message);
  const Route route = live_route(global_id);
  const JsonValue response = JsonValue::parse(call(
      request.links, route.worker, job_request_line("trace", route.remote_id)));
  if (!response.bool_or("ok", false)) {
    request.socket.write_all(with_job_id(response, global_id));
    return;
  }
  // Stitch: worker spans + the route's fleet spans, one tree under one
  // trace id, re-sorted into the canonical (name, index, id) order so
  // the merged view is byte-stable.
  std::vector<obs::SpanRecord> spans = parse_spans(response);
  const std::vector<obs::SpanRecord> fleet_spans = route.trace->spans();
  spans.insert(spans.end(), fleet_spans.begin(), fleet_spans.end());
  std::sort(spans.begin(), spans.end(),
            [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
              return std::tie(a.name, a.index, a.id) <
                     std::tie(b.name, b.index, b.id);
            });
  request.socket.write_all(response_line(true, [&](JsonWriter& json) {
    json.key("job").value(global_id);
    json.key("trace_id").value(route.trace->id());
    json.key("spans");
    write_spans(json, spans);
  }));
}

void FleetDaemon::handle_fleet(const Request& request) {
  const std::vector<WorkerStatus> status = workers();
  request.socket.write_all(response_line(true, [&](JsonWriter& json) {
    json.key("workers").begin_array();
    for (std::size_t i = 0; i < status.size(); ++i) {
      json.begin_object();
      json.key("worker").value(static_cast<std::uint64_t>(i));
      json.key("endpoint").value(status[i].endpoint.to_string());
      json.key("alive").value(status[i].alive);
      json.key("draining").value(status[i].draining);
      json.key("in_flight").value(status[i].in_flight);
      json.key("placed").value(status[i].placed);
      json.end_object();
    }
    json.end_array();
  }));
}

void FleetDaemon::handle_drain(const Request& request) {
  const bool drain = request.message.string_or("op", "") == "drain";
  const JsonValue* worker = request.message.find("worker");
  BGLS_REQUIRE(worker != nullptr, "drain/undrain needs a 'worker' index");
  const std::uint64_t index = worker->as_u64();
  BGLS_REQUIRE(index < workers_.size(), "worker index ", index,
               " out of range (", workers_.size(), " workers)");
  workers_[index]->draining.store(drain, std::memory_order_release);
  request.socket.write_all(response_line(true, [&](JsonWriter& json) {
    json.key("worker").value(index);
    json.key("draining").value(drain);
  }));
}

void FleetDaemon::health_loop() {
  // The interruptible sleep: shutdown wakes it immediately.
  while (!server_.wait_for_shutdown(options_.health_interval)) {
    std::int64_t live = 0;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      Worker& worker = *workers_[i];
      // A fresh connection per ping: the handlers' links are not
      // thread-safe, and a ping must not queue behind a blocking op.
      bool healthy = false;
      try {
        Socket socket = connect_to(worker.endpoint);
        socket.write_all(op_request_line("stats"));
        std::string response;
        // A worker at its connection cap refuses the ping, but is up.
        healthy = socket.read_line(response) &&
                  (JsonValue::parse(response).bool_or("ok", false) ||
                   refuses_link(response));
      } catch (const DescriptorLimitError&) {
        // Out of descriptors here: no news about the worker.
        healthy = worker.alive.load(std::memory_order_acquire);
      } catch (const std::exception&) {
        healthy = false;
      }
      if (!healthy) FleetMetrics::instance().health_failures.add();
      const bool was_alive =
          worker.alive.exchange(healthy, std::memory_order_acq_rel);
      if (healthy) {
        ++live;
        if (!was_alive) {
          obs::log(obs::LogLevel::kInfo, "fleet", "worker rejoined",
                   {{"worker", static_cast<std::uint64_t>(i)},
                    {"endpoint", worker.endpoint.to_string()}});
        }
      } else if (was_alive) {
        // Lost jobs stay routed here; their ops answer worker_down
        // until the worker comes back (journal replay restores them).
        obs::log(obs::LogLevel::kWarn, "fleet", "worker down",
                 {{"worker", static_cast<std::uint64_t>(i)},
                  {"endpoint", worker.endpoint.to_string()}});
      }
    }
    FleetMetrics::instance().live_workers.set(live);
  }
}

}  // namespace bgls::service
