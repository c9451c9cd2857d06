/// \file context.h
/// Long-lived execution context shared by sampling runs.
///
/// A run fans its shards out over a thread pool (core/simulator.h).
/// Spawning threads per call would dominate a tight loop of small runs,
/// so EngineContext::shared keeps one pool per thread count for the
/// life of the process (the qsim-style persistent executor). Every
/// multi-threaded run looks its pool up there; Session::run_async
/// schedules its jobs, and Session::run_batch its circuits, on the same
/// pools.
///
/// Also home to the shard executor (run_indexed) and the process-wide
/// engine telemetry series the sampling loops feed.

#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "engine/thread_pool.h"
#include "util/timing.h"

namespace bgls {

/// Reusable engine execution context: a resolved thread count plus the
/// long-lived pool backing it.
class EngineContext {
 public:
  /// Builds a private (uncached) context for `num_threads`-way runs
  /// (>= 1). The pool holds num_threads - 1 workers with a floor of
  /// one: a run adds the calling thread to reach num_threads-way
  /// concurrency, while asynchronous jobs run entirely on the workers.
  explicit EngineContext(int num_threads);

  EngineContext(const EngineContext&) = delete;
  EngineContext& operator=(const EngineContext&) = delete;

  /// Concurrency this context was built for (>= 1; already resolved,
  /// never the 0 = auto sentinel).
  [[nodiscard]] int num_threads() const { return num_threads_; }

  /// The long-lived worker pool.
  [[nodiscard]] ThreadPool& pool() { return pool_; }

  /// Process-wide shared context for a resolved thread count: every
  /// caller asking for the same count gets the same pool, and cached
  /// pools stay alive for the process lifetime (idle workers park on a
  /// condition variable). Persistence is load-bearing: async jobs run
  /// *on* the pool and may hold its last reference, and a pool must
  /// never be destroyed by one of its own workers. Thread-safe.
  [[nodiscard]] static std::shared_ptr<EngineContext> shared(int num_threads);

 private:
  int num_threads_;
  ThreadPool pool_;
};

/// Runs job(0) ... job(count - 1): across `context`'s pool (the calling
/// thread included), or in order on the calling thread when `context`
/// is null or there is at most one job. Jobs write indexed slots, so
/// the executor never changes a run's output.
template <typename Job>
void run_indexed(EngineContext* context, std::size_t count, Job&& job) {
  if (context == nullptr || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) job(i);
    return;
  }
  context->pool().parallel_for(count, std::forward<Job>(job));
}

namespace engine_detail {

/// Telemetry hooks (context.cpp) feeding the process-wide engine series
/// — bgls_engine_runs_total / bgls_engine_shards_total /
/// bgls_engine_shard_seconds.
void count_engine_run() noexcept;
void observe_shard(double seconds) noexcept;

/// RAII shard timer: counts the shard and observes its wall time into
/// bgls_engine_shard_seconds on destruction. Shards are coarse units
/// (at most 16 per run), so the clock-read pair is lost in the noise.
class ShardTimer {
 public:
  ShardTimer() = default;
  ~ShardTimer() { observe_shard(watch_.seconds()); }
  ShardTimer(const ShardTimer&) = delete;
  ShardTimer& operator=(const ShardTimer&) = delete;

 private:
  Stopwatch watch_;
};

}  // namespace engine_detail

}  // namespace bgls
