/// \file session.h
/// bgls::Session — the runtime front door of the library.
///
/// A Session holds a backend registry reference and a BackendSelector,
/// and exposes the whole sampling surface over type-erased circuits:
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
/// run() is the one call into Backend::run. run_async() validates at
/// submission and runs run() on the process-wide pool
/// (EngineContext::shared); run_batch() validates every circuit, then
/// runs run() of circuit i under seed mix_key(seed, i) across that pool.
/// So every result carries its own RunStats and selection reason.

#pragma once

#include <future>
#include <memory>
#include <span>
#include <vector>

#include "api/registry.h"
#include "api/run_types.h"
#include "api/selector.h"
#include "obs/metrics.h"

namespace bgls {

/// Session construction knobs.
struct SessionOptions {
  /// Registry consulted for backend lookup; nullptr = the process-wide
  /// BackendRegistry::global(). The registry must outlive the session.
  BackendRegistry* registry = nullptr;
  /// Fitted cost model behind the selector's predicted-cost rules
  /// (service/cost.h); the default is the committed-artifact fit.
  service::CostModel cost_model{};
};

/// Runtime facade over registry + selector. Thread-safe: concurrent
/// run()/run_async()/run_batch() calls are allowed (each dispatch
/// builds its own templated simulator). Copyable: an async job holds
/// its own copy, so it may outlive the Session that submitted it.
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

  /// Schedules run(request) as a job on the shared pool for the
  /// request's thread count and returns immediately. Backend resolution
  /// and capability validation happen *now* (errors throw at
  /// submission), and so does deadline arming, so pool wait counts
  /// against the deadline; sampling errors inside the job surface from
  /// future::get(). Bit-identical to the synchronous run() for the same
  /// request. The job copies this Session, so the registry must
  /// outlive the job.
  [[nodiscard]] std::future<RunResult> run_async(RunRequest request);

  /// Samples every circuit for request.repetitions (request.circuit is
  /// ignored) and returns the results in input order. Every circuit is
  /// validated first, at 0 repetitions too, so one bad circuit fails the
  /// batch before any sampling. Result i is run() of the request with
  /// circuit i and seed mix_key(request.seed, i), routed on its own
  /// under kAuto; the circuits fan out across the shared pool. One
  /// cancellation token and deadline cover the whole batch. Progress,
  /// checkpoint, resume and trace are not applied.
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

  /// Point-in-time copy of the process-wide telemetry series
  /// (obs/metrics.h): kernel apply counts/timings, engine shard
  /// timings, pool occupancy, scheduler and daemon series when a
  /// service is running in-process. Benches record these into
  /// BENCH_*.json. Static — the registry is process-wide — but exposed
  /// here because a Session is what runtime callers already hold.
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
  void resolve_checked(const Circuit& circuit,
                       const RunRequest& request) const;

  BackendRegistry* registry_;
  BackendSelector selector_;
};

}  // namespace bgls
