/// \file session.h
/// bgls::Session — the runtime front door of the library.
///
/// A Session owns the long-lived execution context (the engine's
/// persistent thread pool), a backend registry reference, and a
/// BackendSelector, and exposes the whole sampling surface over
/// type-erased circuits:
///
///   Session session;
///   RunResult result = session.run(RunRequest()
///                                      .with_circuit(circuit)
///                                      .with_repetitions(100000)
///                                      .with_seed(7));          // kAuto
///
/// run() resolves the backend (explicit name > explicit id > the
/// selector for kAuto), validates the circuit against the backend's
/// capabilities up front (an unrunnable or measurement-less circuit
/// throws, even at 0 repetitions — never a silent empty result), and
/// dispatches into the templated core. Results are bit-identical to the
/// corresponding direct Simulator<State> run with the same options and
/// seed.
///
/// run_async() schedules the whole request on the persistent pool and
/// returns a future; run_batch() fans many circuits out through
/// Simulator::run_batch, routing each circuit to its own backend under
/// kAuto (grouped so every group still gets engine-level sharding).

#pragma once

#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "api/registry.h"
#include "api/run_types.h"
#include "api/selector.h"
#include "engine/context.h"
#include "obs/metrics.h"

namespace bgls {

/// Session construction knobs.
struct SessionOptions {
  /// Registry consulted for backend lookup; nullptr = the process-wide
  /// BackendRegistry::global(). The registry must outlive the session.
  BackendRegistry* registry = nullptr;
  /// Structural routing limits for automatic selection.
  BackendSelector::Thresholds selector_thresholds{};
  /// Fitted cost model behind the selector's predicted-cost rules
  /// (service/cost.h); the default is the committed-artifact fit.
  service::CostModel cost_model{};
};

/// Runtime facade over registry + selector + engine context.
/// Thread-safe: concurrent run()/run_async()/run_batch() calls are
/// allowed (each dispatch builds its own templated simulator).
class Session {
 public:
  explicit Session(SessionOptions options = {});

  /// How a request was (or would be) routed.
  struct Resolution {
    std::shared_ptr<Backend> backend;
    /// The selector's justification; empty for explicit picks.
    std::string reason;
  };

  /// Samples one request end to end (see file comment).
  [[nodiscard]] RunResult run(RunRequest request);

  /// Convenience: run `circuit` with defaults (kAuto backend).
  [[nodiscard]] RunResult run(Circuit circuit, std::uint64_t repetitions = 1,
                              std::uint64_t seed = 0);

  /// Schedules run(request) as a job on the persistent pool and
  /// returns immediately. Backend resolution and capability validation
  /// happen *now* (errors throw at submission); sampling errors inside
  /// the job surface from future::get(). Bit-identical to the
  /// synchronous run() for the same request.
  [[nodiscard]] std::future<RunResult> run_async(RunRequest request);

  /// Samples every circuit for request.repetitions (request.circuit is
  /// ignored). Under kAuto each circuit is routed independently;
  /// circuits landing on the same (backend, qubit count) are batched
  /// through one Simulator::run_batch so they share engine-level
  /// sharding — mixed widths are fine, each width gets its own
  /// prototype state. Results come back in input order.
  [[nodiscard]] std::vector<RunResult> run_batch(
      std::span<const Circuit> circuits, RunRequest request);

  /// Resolves which backend `request` would run `circuit` on, without
  /// running (explicit name > explicit id > selector).
  [[nodiscard]] Resolution resolve_backend(const Circuit& circuit,
                                           const RunRequest& request) const;

  /// The registry this session consults.
  [[nodiscard]] BackendRegistry& registry() const { return *registry_; }

  /// The automatic-selection rules in force.
  [[nodiscard]] const BackendSelector& selector() const { return selector_; }

  /// The engine context the session has pinned (null until a run
  /// needed worker threads). Runs with the same resolved thread count
  /// reuse it; the process-wide cache makes it the same pool the
  /// templated core resolves internally.
  [[nodiscard]] std::shared_ptr<EngineContext> engine_context() const;

  /// Point-in-time copy of the process-wide telemetry series
  /// (obs/metrics.h): kernel apply counts/timings, engine shard
  /// timings, pool occupancy, scheduler and daemon series when a
  /// service is running in-process. Benches record these into
  /// BENCH_*.json; empty when telemetry is compiled out. Static — the
  /// registry is process-wide — but exposed here because a Session is
  /// what runtime callers already hold.
  [[nodiscard]] static obs::MetricsSnapshot metrics_snapshot() {
    return obs::MetricsRegistry::global().snapshot();
  }

 private:
  /// Replaces `circuit` with its optimize_for_bgls fusion when the
  /// resolved backend can run the fused form; otherwise leaves it
  /// untouched (the hint never changes routing or rejects a circuit
  /// the backend runs fine unfused).
  static void apply_optimization(Circuit& circuit, const Backend& backend);

  /// Resolution + capability validation; throws with the reason.
  [[nodiscard]] Resolution resolve_checked(const Circuit& circuit,
                                           const RunRequest& request) const;

  /// Pins the shared context for `num_threads` (> 1) workers.
  std::shared_ptr<EngineContext> ensure_context(int num_threads);

  BackendRegistry* registry_;
  BackendSelector selector_;
  mutable std::mutex mutex_;
  std::shared_ptr<EngineContext> context_;
};

}  // namespace bgls
