/// \file test_result_cache.cpp
/// The deterministic result cache (service/result_cache.h): key
/// semantics (scheduling-only knobs excluded, side-effectful requests
/// uncacheable), LRU bounds, and the scheduler integration — a hit is
/// an instantly terminal job whose report is byte-identical to a fresh
/// sample at any thread count.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "engine_test_helpers.h"
#include "service/report.h"
#include "service/result_cache.h"
#include "service/scheduler.h"

namespace bgls {
namespace {

using service::JobInfo;
using service::JobScheduler;
using service::JobState;
using service::ResultCache;
using service::ResultCacheOptions;
using service::SchedulerOptions;

RunRequest cacheable_job(std::uint64_t seed = 5, std::uint64_t reps = 400) {
  return RunRequest()
      .with_circuit(testing::trajectory_workload(3, 0.05))
      .with_repetitions(reps)
      .with_seed(seed);
}

TEST(ResultCache, KeyIgnoresSchedulingOnlyKnobs) {
  const auto base = ResultCache::key_for(cacheable_job());
  ASSERT_TRUE(base.has_value());
  // Threads, priority, tenant, deadline: never change the sampled
  // records, so they share the base key.
  EXPECT_EQ(ResultCache::key_for(cacheable_job().with_threads(7)), *base);
  EXPECT_EQ(ResultCache::key_for(cacheable_job().with_priority(9)), *base);
  EXPECT_EQ(ResultCache::key_for(cacheable_job().with_tenant("acme")), *base);
  EXPECT_EQ(ResultCache::key_for(cacheable_job().with_deadline_ms(500)),
            *base);
  // Result-determining fields key apart.
  EXPECT_NE(ResultCache::key_for(cacheable_job(6)), *base);
  EXPECT_NE(ResultCache::key_for(cacheable_job(5, 401)), *base);
  EXPECT_NE(ResultCache::key_for(cacheable_job().with_optimization()), *base);
  EXPECT_NE(ResultCache::key_for(
                RunRequest()
                    .with_circuit(testing::trajectory_workload(3, 0.06))
                    .with_repetitions(400)
                    .with_seed(5)),
            *base);
}

TEST(ResultCache, SideEffectfulRequestsAreNotCacheable) {
  // A hit would skip the progress/checkpoint side effects, and a
  // resumed run's result depends on the checkpoint.
  EXPECT_EQ(ResultCache::key_for(cacheable_job().with_progress(50, nullptr)),
            std::nullopt);
  EXPECT_EQ(
      ResultCache::key_for(cacheable_job().with_checkpoint(50, nullptr)),
      std::nullopt);
  EXPECT_EQ(ResultCache::key_for(cacheable_job().with_resume(
                std::make_shared<RunCheckpoint>())),
            std::nullopt);
  // Unresolved symbolic parameters have no canonical serialization.
  Circuit symbolic{h(0), rz(Param(Symbol{"theta"}), 0)};
  symbolic.append(measure({0}, "m"));
  EXPECT_EQ(ResultCache::key_for(RunRequest().with_circuit(symbolic)),
            std::nullopt);
}

TEST(ResultCache, LruEvictsOldestPastBounds) {
  ResultCacheOptions options;
  options.max_entries = 2;
  ResultCache cache(options);
  const auto result = std::make_shared<const RunResult>();
  cache.insert("a", result);
  cache.insert("b", result);
  EXPECT_NE(cache.lookup("a"), nullptr);  // refresh a: b is now LRU
  cache.insert("c", result);
  EXPECT_EQ(cache.lookup("b"), nullptr);
  EXPECT_NE(cache.lookup("a"), nullptr);
  EXPECT_NE(cache.lookup("c"), nullptr);
  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ResultCache, SchedulerHitIsByteIdenticalAcrossThreadCounts) {
  SchedulerOptions options;
  options.result_cache = std::make_shared<service::ResultCache>();
  JobScheduler scheduler(options);

  const std::uint64_t first = scheduler.submit(cacheable_job().with_threads(1));
  const JobInfo first_info = scheduler.wait(first);
  ASSERT_EQ(first_info.state, JobState::kDone);
  EXPECT_FALSE(first_info.from_cache);

  // Same request at a different thread count: answered from the cache,
  // instantly terminal (never started), report byte-identical.
  const std::uint64_t second =
      scheduler.submit(cacheable_job().with_threads(4));
  const JobInfo second_info = scheduler.wait(second);
  ASSERT_EQ(second_info.state, JobState::kDone);
  EXPECT_TRUE(second_info.from_cache);
  EXPECT_EQ(second_info.start_order, 0u);
  const service::RunReportContext context =
      service::report_context(cacheable_job(), 3);
  EXPECT_EQ(service::run_report_string(context, *second_info.result),
            service::run_report_string(context, *first_info.result));

  // Different seed: a miss that samples normally.
  const std::uint64_t third = scheduler.submit(cacheable_job(77));
  EXPECT_FALSE(scheduler.wait(third).from_cache);

  const service::SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.cache_hits, 1u);
  const ResultCache::Stats cache_stats = options.result_cache->stats();
  EXPECT_EQ(cache_stats.hits, 1u);
  EXPECT_EQ(cache_stats.entries, 2u);
}

TEST(ResultCache, SharedCacheAnswersAcrossSchedulers) {
  // The cache outlives a scheduler: a second (restarted) scheduler
  // sharing it answers without re-sampling — the fleet's workers could
  // even share one in-process cache.
  const auto cache = std::make_shared<service::ResultCache>();
  SchedulerOptions options;
  options.result_cache = cache;
  Counts histogram;
  {
    JobScheduler scheduler(options);
    const JobInfo info = scheduler.wait(scheduler.submit(cacheable_job()));
    ASSERT_EQ(info.state, JobState::kDone);
    histogram = info.result->measurements.histogram("m");
  }
  JobScheduler scheduler(options);
  const JobInfo info = scheduler.wait(scheduler.submit(cacheable_job()));
  EXPECT_TRUE(info.from_cache);
  EXPECT_EQ(info.result->measurements.histogram("m"), histogram);
}

}  // namespace
}  // namespace bgls
