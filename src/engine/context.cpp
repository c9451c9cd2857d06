#include "engine/context.h"

#include <map>
#include <mutex>

#include "obs/metrics.h"
#include "util/error.h"

namespace bgls {

namespace {

int checked_worker_count(int num_threads) {
  BGLS_REQUIRE(num_threads >= 1,
               "engine context needs a resolved thread count >= 1, got ",
               num_threads);
  return num_threads > 1 ? num_threads - 1 : 1;
}

}  // namespace

EngineContext::EngineContext(int num_threads)
    : num_threads_(num_threads), pool_(checked_worker_count(num_threads)) {}

std::shared_ptr<EngineContext> EngineContext::shared(int num_threads) {
  // The cache holds strong references on purpose: a shared pool must
  // never be destroyed by one of its own workers (the last reference to
  // a context can be dropped inside an async job, which runs *on* the
  // pool — tearing the pool down there would make a worker join
  // itself). Keeping cached pools alive for the process lifetime makes
  // that impossible and is exactly the persistent-executor semantics
  // the cache exists for; idle workers just park on a condition
  // variable. The map itself is deliberately leaked so no pool is ever
  // torn down during static destruction, where late-exiting threads
  // could still touch it.
  static std::mutex mutex;
  static std::map<int, std::shared_ptr<EngineContext>>* cache =
      new std::map<int, std::shared_ptr<EngineContext>>();
  const std::lock_guard<std::mutex> lock(mutex);
  std::shared_ptr<EngineContext>& slot = (*cache)[num_threads];
  if (!slot) slot = std::make_shared<EngineContext>(num_threads);
  return slot;
}

namespace engine_detail {

namespace {

struct EngineMetrics {
  obs::Counter runs;
  obs::Counter shards;
  obs::Histogram shard_seconds;

  EngineMetrics() {
    auto& registry = obs::MetricsRegistry::global();
    runs = registry.counter(
        "bgls_engine_runs_total",
        "Sampling runs (run/sample; a batch counts one per circuit)");
    shards = registry.counter("bgls_engine_shards_total",
                              "Sampling shards executed");
    shard_seconds = registry.histogram(
        "bgls_engine_shard_seconds",
        "Per-shard wall time (trajectory shards: whole shard; dictionary "
        "path: the shard's accumulated resample time)");
  }

  static EngineMetrics& instance() {
    static EngineMetrics metrics;
    return metrics;
  }
};

}  // namespace

void count_engine_run() noexcept { EngineMetrics::instance().runs.add(); }

void observe_shard(double seconds) noexcept {
  EngineMetrics& metrics = EngineMetrics::instance();
  metrics.shards.add();
  metrics.shard_seconds.observe(seconds);
}

}  // namespace engine_detail

}  // namespace bgls
