#include "api/session.h"

#include <chrono>
#include <utility>

#include "core/optimize.h"
#include "engine/context.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/rng.h"

namespace bgls {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Arms the request's wall-clock deadline on its cancellation token
// (creating one when the caller did not supply a handle). Called on
// entry of every Session run path, so deadline_ms counts from
// submission — including pool wait for run_async.
void arm_cancellation(RunRequest& request) {
  if (request.deadline_ms == 0) return;
  if (!request.cancel_token.valid()) {
    request.cancel_token = CancellationToken::make();
  }
  request.cancel_token.set_deadline_after(
      std::chrono::milliseconds(request.deadline_ms));
}

}  // namespace

Session::Session(SessionOptions options)
    : registry_(options.registry != nullptr ? options.registry
                                            : &BackendRegistry::global()),
      selector_(options.cost_model) {}

void Session::apply_optimization(Circuit& circuit, const Backend& backend) {
  // Optimization is a performance hint, not a contract: fusion emits
  // dense matrix gates, so the fused form is used only when the
  // already-resolved backend can run it. A stabilizer-routed
  // pure-Clifford circuit keeps its original (polynomial) form instead
  // of being demoted or rejected — matrix backends get the fused one.
  Circuit fused = optimize_for_bgls(circuit);
  if (backend.can_run(fused)) circuit = std::move(fused);
}

Session::Resolution Session::resolve_backend(const Circuit& circuit,
                                             const RunRequest& request) const {
  if (!request.backend_name.empty()) {
    return {registry_->require(request.backend_name), ""};
  }
  if (request.backend != BackendId::kAuto) {
    // Several user backends may share kCustom; picking "whichever
    // registered first" would silently run the wrong one.
    BGLS_REQUIRE(request.backend != BackendId::kCustom,
                 "custom backends must be addressed by name "
                 "(with_backend(\"<registered name>\"))");
    return {registry_->require(request.backend), ""};
  }
  // Repetitions feed the cost comparisons (rules 2 and 4): trajectory
  // cost scales with shots, so the same circuit may route differently
  // at 10 reps and 10k reps.
  BackendSelector::Selection selection =
      selector_.select(circuit, request.repetitions);
  return {registry_->require(selection.id), std::move(selection.reason)};
}

void Session::resolve_checked(const Circuit& circuit,
                              const RunRequest& request) const {
  // Used by run_async and run_batch: submission must fail *now*, before
  // any sampling, so the extra up-front capability scan is worth paying
  // there (run() validates once, inside the dispatch).
  const Resolution resolution = resolve_backend(circuit, request);
  std::string reason;
  if (!resolution.backend->can_run(circuit, &reason)) {
    detail::throw_error<UnsupportedOperationError>(
        "backend '", resolution.backend->name(),
        "' cannot run this circuit: ", reason);
  }
  // Mirror the engine's up-front validation: run() samples measurement
  // records, so a measurement-less circuit is rejected at submission
  // (before any future is handed out) instead of inside the dispatch.
  BGLS_REQUIRE(circuit.has_measurements(),
               "circuit has no measurements to sample; append measure()");
}

RunResult Session::run(RunRequest request) {
  // Resolution happens unconditionally (on the unoptimized circuit, so
  // routing reflects what the caller wrote) — a 0-repetition request
  // still routes, and the dispatch below still validates the circuit
  // (Backend::run's require_runnable + the simulator's own checks) and
  // declares every measurement key on the empty result. Validation is
  // deliberately left to the dispatch so the circuit is scanned once,
  // not twice.
  Resolution resolution = resolve_backend(request.circuit, request);
  double optimize_seconds = 0.0;
  if (request.optimize_circuit) {
    request.optimize_circuit = false;
    const auto optimize_start = std::chrono::steady_clock::now();
    obs::TraceSpan span(request.trace, "optimize");
    apply_optimization(request.circuit, *resolution.backend);
    optimize_seconds = seconds_since(optimize_start);
  }
  arm_cancellation(request);
  const auto start = std::chrono::steady_clock::now();
  RunResult out;
  {
    obs::TraceSpan span(request.trace, "sample");
    out = resolution.backend->run(request);
  }
  out.wall_seconds = seconds_since(start);
  // Phase wall times (RunStats contract: scheduling-dependent, so they
  // never enter the byte-stable reports).
  out.stats.optimize_ms = optimize_seconds * 1000.0;
  out.stats.sample_ms = out.wall_seconds * 1000.0;
  out.selection_reason = std::move(resolution.reason);
  return out;
}

RunResult Session::run(Circuit circuit, std::uint64_t repetitions,
                       std::uint64_t seed) {
  return run(RunRequest()
                 .with_circuit(std::move(circuit))
                 .with_repetitions(repetitions)
                 .with_seed(seed));
}

std::future<RunResult> Session::run_async(RunRequest request) {
  resolve_checked(request.circuit, request);
  // Armed at submission: a job that waits out its whole budget in the
  // pool queue times out without sampling (the service contract). The
  // deadline is then zeroed, as JobScheduler::submit does, so run()
  // does not restart the clock at execution.
  arm_cancellation(request);
  request.deadline_ms = 0;
  // The job runs on the immortal shared pool (a job may hold its
  // pool's last reference, which must never tear the pool down from one
  // of its own workers). Pool choice is scheduling-only, so the records
  // match the synchronous run bit for bit.
  const std::shared_ptr<EngineContext> context = EngineContext::shared(
      ThreadPool::resolve_num_threads(request.num_threads));
  auto task = std::make_shared<std::packaged_task<RunResult()>>(
      [session = *this, request = std::move(request)]() mutable {
        request.cancel_token.throw_if_stopped();
        return session.run(std::move(request));
      });
  std::future<RunResult> future = task->get_future();
  context->pool().submit([task] { (*task)(); });
  return future;
}

std::vector<RunResult> Session::run_batch(std::span<const Circuit> circuits,
                                          RunRequest request) {
  for (const Circuit& circuit : circuits) {
    resolve_checked(circuit, request);
  }
  // One deadline/token covers the whole batch (it is one submission).
  arm_cancellation(request);
  request.deadline_ms = 0;
  // request.circuit is ignored, and per-circuit observation does not
  // apply: one sink would interleave the circuits' updates, and their
  // spans would collide in one trace.
  request.circuit = {};
  request.progress = {};
  request.checkpoint = {};
  request.resume = nullptr;
  request.trace = nullptr;
  std::vector<RunResult> results(circuits.size());
  const int threads = ThreadPool::resolve_num_threads(request.num_threads);
  const std::shared_ptr<EngineContext> context =
      threads > 1 ? EngineContext::shared(threads) : nullptr;
  run_indexed(context.get(), circuits.size(), [&](std::size_t i) {
    RunRequest one = request;
    one.circuit = circuits[i];
    one.seed = mix_key(request.seed, i);
    results[i] = run(std::move(one));
  });
  return results;
}

}  // namespace bgls
