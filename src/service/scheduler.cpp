#include "service/scheduler.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace bgls::service {

std::string_view job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kTimedOut: return "timeout";
  }
  return "?";
}

bool is_terminal(JobState state) {
  return state != JobState::kQueued && state != JobState::kRunning;
}

/// Internal job record. Guarded by the scheduler mutex except where
/// noted.
struct JobScheduler::Job {
  std::uint64_t id = 0;
  std::uint64_t seq = 0;  // FIFO tie-break within a priority class
  int priority = 0;
  /// Owning tenant ("" = the anonymous default tenant).
  std::string tenant;
  /// Weighted-fair virtual start tag: max(global vtime, tenant vtime)
  /// at admission. Dispatch prefers lower tags (after priority).
  double vtime = 0.0;
  /// What the tenant's vtime was charged for this job (predicted
  /// seconds, floor 1 ms so zero-cost estimates still advance time).
  double cost_units = 0.0;
  /// CostModel estimate at admission; 0 when none was possible.
  double predicted_seconds = 0.0;
  /// What the job's canonical report echoes (JobInfo::report_context).
  RunReportContext report_context;
  /// Answered from the result cache (instantly terminal, never ran).
  bool from_cache = false;
  /// Canonical cache key when the request is cacheable and missed (the
  /// completed result is inserted under it); empty otherwise.
  std::string cache_key;
  RunRequest request;
  /// Job-owned stop handle; also reachable by the caller when they
  /// supplied a token in the request. Cancel/deadline-safe to touch
  /// without the lock.
  CancellationToken token;
  JobState state = JobState::kQueued;
  std::string error;
  std::shared_ptr<const RunResult> result;
  std::vector<ProgressUpdate> updates;
  std::uint64_t completed_repetitions = 0;
  std::uint64_t start_order = 0;
  std::chrono::steady_clock::time_point submitted_at;
  std::chrono::steady_clock::time_point started_at;
  std::chrono::steady_clock::time_point finished_at;
  /// First cancel() request, for the cancel-latency series.
  bool cancel_requested = false;
  std::chrono::steady_clock::time_point cancel_requested_at;
  /// Latest resumable snapshot (core/checkpoint.h), fed by the
  /// checkpoint sink installed at submit; what retries resume from.
  std::shared_ptr<const RunCheckpoint> checkpoint;
  /// Transient-failure retries consumed.
  std::uint64_t retries = 0;
  /// Earliest time a re-queued job may start (retry backoff).
  std::chrono::steady_clock::time_point ready_at;
  /// The job's trace (span IDs derived from the job id).
  std::shared_ptr<obs::Trace> trace;
};

namespace {

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Scheduler series: process-wide (several schedulers — e.g. in tests —
/// accumulate into the same series; per-instance numbers live in
/// SchedulerStats).
struct SchedulerMetrics {
  obs::Counter submitted;
  obs::Counter rejected;
  obs::Counter evicted;
  obs::Counter done;
  obs::Counter failed;
  obs::Counter cancelled;
  obs::Counter timed_out;
  obs::Counter retried;
  obs::Counter resumed;
  /// Admission rejections by reason (rejected aggregates all of them).
  obs::Counter rejected_queue_full;
  obs::Counter rejected_tenant_quota;
  obs::Counter rejected_over_budget;
  obs::Counter rejected_backlog;
  obs::Gauge queue_depth;
  obs::Gauge running;
  obs::Histogram queue_wait;
  obs::Histogram run_seconds;
  obs::Histogram cancel_latency;

  SchedulerMetrics() {
    auto& registry = obs::MetricsRegistry::global();
    submitted = registry.counter("bgls_scheduler_submitted_total",
                                 "Jobs admitted to the queue");
    rejected = registry.counter(
        "bgls_scheduler_rejected_total",
        "Submissions rejected by admission control (all reasons)");
    const char* reject_help = "Admission rejections, by reason";
    rejected_queue_full = registry.counter(
        "bgls_admission_rejected_total{reason=\"queue_full\"}", reject_help);
    rejected_tenant_quota = registry.counter(
        "bgls_admission_rejected_total{reason=\"tenant_quota\"}",
        reject_help);
    rejected_over_budget = registry.counter(
        "bgls_admission_rejected_total{reason=\"over_budget\"}", reject_help);
    rejected_backlog = registry.counter(
        "bgls_admission_rejected_total{reason=\"backlog\"}", reject_help);
    evicted = registry.counter(
        "bgls_scheduler_evicted_total",
        "Terminal jobs forgotten by the retention bound");
    const char* help = "Jobs finished, by terminal state";
    done = registry.counter("bgls_scheduler_jobs_total{state=\"done\"}", help);
    failed =
        registry.counter("bgls_scheduler_jobs_total{state=\"failed\"}", help);
    cancelled = registry.counter(
        "bgls_scheduler_jobs_total{state=\"cancelled\"}", help);
    timed_out = registry.counter(
        "bgls_scheduler_jobs_total{state=\"timeout\"}", help);
    retried = registry.counter(
        "bgls_jobs_retried_total",
        "Transiently failed jobs re-queued with backoff");
    resumed = registry.counter(
        "bgls_jobs_resumed_total",
        "Runs started from a checkpoint (retries, journal replays)");
    queue_depth = registry.gauge("bgls_scheduler_queue_depth",
                                 "Jobs currently queued (not yet running)");
    running =
        registry.gauge("bgls_scheduler_running", "Jobs currently executing");
    queue_wait = registry.histogram(
        "bgls_scheduler_queue_wait_seconds",
        "Time from admission to run start (or to terminal, for jobs "
        "that never ran)");
    run_seconds = registry.histogram("bgls_scheduler_run_seconds",
                                     "Job execution wall time");
    cancel_latency = registry.histogram(
        "bgls_scheduler_cancel_latency_seconds",
        "Time from cancel() to the job reaching a terminal state");
  }

  static SchedulerMetrics& instance() {
    static SchedulerMetrics metrics;
    return metrics;
  }
};

/// One admission rejection: counts it (in `rejected`, the total series
/// and its reason's `series`), warn-logs the reason, the tenant and
/// `field`, then throws E with `message`.
template <typename E, typename... Message>
[[noreturn]] void reject(std::uint64_t& rejected, obs::Counter& series,
                         std::string_view reason, const std::string& tenant,
                         obs::LogField field, std::uint64_t trace_id,
                         Message&&... message) {
  ++rejected;
  SchedulerMetrics::instance().rejected.add();
  series.add();
  obs::log(obs::LogLevel::kWarn, "scheduler", "admission rejected",
           {{"reason", reason}, {"tenant", tenant}, std::move(field)},
           trace_id);
  detail::throw_error<E>(std::forward<Message>(message)...);
}

/// Tenant names become metric label values; keep the exposition text
/// parseable whatever arrives on the wire.
std::string metric_safe_label(const std::string& name) {
  std::string out = name.empty() ? "default" : name;
  for (char& c : out) {
    if (c == '"' || c == '\\' || c == '\n' || c == '{' || c == '}') c = '_';
  }
  return out;
}

}  // namespace

/// Dispatch order: higher priority first, then lower weighted-fair
/// virtual time, then earlier submission. Returns "a is worse than b"
/// (take_next_locked scans for the max element).
bool JobScheduler::dispatch_less(const JobPtr& a, const JobPtr& b) {
  if (a->priority != b->priority) return a->priority < b->priority;
  if (a->vtime != b->vtime) return a->vtime > b->vtime;
  return a->seq > b->seq;
}

JobScheduler::JobScheduler(SchedulerOptions options)
    : options_(options) {
  const int runners = std::max(1, options_.max_concurrent_jobs);
  runners_.reserve(static_cast<std::size_t>(runners));
  for (int i = 0; i < runners; ++i) {
    runners_.emplace_back([this] { runner_loop(); });
  }
}

JobScheduler::~JobScheduler() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    // Queued jobs become cancelled without running; running jobs get
    // their tokens cancelled and finish (as kCancelled) on their own
    // runner before it observes stopping_.
    std::uint64_t shutdown_cancelled = 0;
    for (auto& [id, job] : jobs_) {
      if (job->state == JobState::kQueued) {
        job->state = JobState::kCancelled;
        job->error = "scheduler shut down";
        job->finished_at = std::chrono::steady_clock::now();
        ++stats_.cancelled;
        ++shutdown_cancelled;
      }
      job->token.cancel();
    }
    queue_.clear();
    delayed_.clear();
    predicted_backlog_seconds_ = 0.0;
    for (auto& [name, tenant] : tenants_) tenant.queued = 0;
    // Process-wide series must see the shutdown like SchedulerStats
    // does: the queue is gone (a stale nonzero gauge would outlive this
    // scheduler forever) and shutdown-cancelled jobs count as
    // cancelled terminals.
    SchedulerMetrics& metrics = SchedulerMetrics::instance();
    if (shutdown_cancelled > 0) metrics.cancelled.add(shutdown_cancelled);
    metrics.queue_depth.set(0);
  }
  work_available_.notify_all();
  job_changed_.notify_all();
  for (std::thread& runner : runners_) runner.join();
}

std::uint64_t JobScheduler::submit(RunRequest request) {
  const std::uint64_t every = request.progress.every;
  if (every > 0) {
    const std::uint64_t updates =
        request.repetitions / every + (request.repetitions % every != 0);
    if (updates > kMaxProgressUpdates) {
      detail::throw_error<ValueError>(
          "progress every ", every, " repetitions of ", request.repetitions,
          " asks for ", updates, " updates; a job keeps at most ",
          kMaxProgressUpdates, ": raise progress_every");
    }
  }
  return submit_impl(std::move(request), 0);
}

std::uint64_t JobScheduler::resubmit(RunRequest request,
                                     std::uint64_t forced_id) {
  BGLS_REQUIRE(forced_id > 0, "resubmit needs the journaled job id");
  return submit_impl(std::move(request), forced_id);
}

void JobScheduler::reserve_ids_through(std::uint64_t max_id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  next_id_ = std::max(next_id_, max_id + 1);
}

std::uint64_t JobScheduler::submit_impl(RunRequest request,
                                        std::uint64_t forced_id) {
  JobPtr job = std::make_shared<Job>();
  job->priority = request.priority;
  job->tenant = request.tenant;
  job->report_context = report_context(request, request.circuit.num_qubits());
  job->submitted_at = std::chrono::steady_clock::now();

  // Result cache: a hit never consumes a queue slot, a runner, or the
  // tenant's fair share — the job is admitted as instantly terminal.
  // Journal replays (forced_id) bypass the cache: their result must
  // come from the same code path that produced it originally.
  std::shared_ptr<const RunResult> cached;
  if (options_.result_cache != nullptr && forced_id == 0) {
    if (std::optional<std::string> key = ResultCache::key_for(request)) {
      job->cache_key = std::move(*key);
      cached = options_.result_cache->lookup(job->cache_key);
    }
  }
  // Cost estimate (pure function of the request — computed outside the
  // lock). Negative = no estimate possible; such jobs bypass the cost
  // budgets and fail later with their real error if unrunnable.
  const double predicted =
      cached != nullptr ? 0.0 : estimate_seconds(request);
  job->predicted_seconds = std::max(predicted, 0.0);

  // The job's stop handle: reuse a caller-supplied token (so the caller
  // can cancel directly) or mint one. The deadline is armed *now* —
  // time spent queued counts against the budget, the service contract.
  job->token = request.cancel_token.valid() ? request.cancel_token
                                            : CancellationToken::make();
  if (request.deadline_ms > 0) {
    job->token.set_deadline(job->submitted_at +
                            std::chrono::milliseconds(request.deadline_ms));
  }
  request.cancel_token = job->token;
  // Deadline already armed; Session::run must not re-arm it later
  // (that would restart the clock at execution).
  request.deadline_ms = 0;
  job->checkpoint = request.resume;  // replayed jobs resume from here

  std::optional<JobInfo> terminal;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    BGLS_REQUIRE(!stopping_, "scheduler is shutting down");
    SchedulerMetrics& metrics = SchedulerMetrics::instance();
    if (forced_id == 0 && cached == nullptr) {
      // Admission control. The depth bound counts retry-delayed jobs
      // too: they re-enter the ready queue when their backoff elapses,
      // so ignoring them would let a retry flood grow the backlog
      // unboundedly past max_queue_depth.
      const std::size_t backlog = queue_.size() + delayed_.size();
      if (backlog >= options_.max_queue_depth) {
        reject<QueueFullError>(
            stats_.rejected, metrics.rejected_queue_full, "queue_full",
            job->tenant, {"backlog", static_cast<std::uint64_t>(backlog)},
            request.trace_id, "job rejected: queue is full (", backlog,
            " of ", options_.max_queue_depth,
            " slots, retry-delayed jobs included); retry later or raise "
            "max_queue_depth");
      }
      TenantState& tenant = tenant_locked(job->tenant);
      if (tenant.quota.max_queued > 0 &&
          tenant.queued >= tenant.quota.max_queued) {
        reject<TenantQuotaError>(
            stats_.rejected, metrics.rejected_tenant_quota, "tenant_quota",
            job->tenant, {"queued", tenant.queued}, request.trace_id,
            "job rejected: tenant '", metric_safe_label(job->tenant),
            "' is at its queued-job quota (", tenant.queued, " of ",
            tenant.quota.max_queued, "); retry later");
      }
      if (predicted >= 0.0 && options_.max_job_seconds > 0.0 &&
          predicted > options_.max_job_seconds) {
        reject<CostBudgetError>(
            stats_.rejected, metrics.rejected_over_budget, "over_budget",
            job->tenant, {"predicted_seconds", predicted}, request.trace_id,
            "job rejected: predicted cost ", predicted,
            " s exceeds the per-job budget of ", options_.max_job_seconds,
            " s; shrink the circuit or repetitions");
      }
      if (predicted >= 0.0 && options_.max_queue_seconds > 0.0 &&
          predicted_backlog_seconds_ + predicted >
              options_.max_queue_seconds) {
        reject<CostBudgetError>(
            stats_.rejected, metrics.rejected_backlog, "backlog", job->tenant,
            {"backlog_seconds", predicted_backlog_seconds_ + predicted},
            request.trace_id, "job rejected: predicted backlog of ",
            predicted_backlog_seconds_ + predicted,
            " s exceeds the queue budget of ", options_.max_queue_seconds,
            " s; retry once the backlog drains");
      }
    }
    if (forced_id != 0) {
      BGLS_REQUIRE(jobs_.count(forced_id) == 0,
                   "job id ", forced_id, " is already known");
      next_id_ = std::max(next_id_, forced_id + 1);
    }
    job->id = forced_id != 0 ? forced_id : next_id_++;
    job->seq = job->id;
    job->request = std::move(request);
    // One trace per job. A propagated context wins: span IDs then
    // derive from the cross-process trace id and the queue/run spans
    // hang under the caller's parent span (the fleet front's
    // fleet.place). Otherwise the job id identifies the trace —
    // stable across runs and thread counts either way.
    const std::uint64_t trace_id =
        job->request.trace_id != 0 ? job->request.trace_id : job->id;
    job->trace =
        std::make_shared<obs::Trace>(trace_id, job->request.trace_parent);
    // Session/engine spans (optimize/sample/shard/evolve) open with no
    // enclosing span on their thread; the root fallback parents them
    // under the job's "run" span, one deterministic tree regardless of
    // which thread records them.
    job->trace->set_root(obs::Trace::span_id(trace_id, "run", 0));
    job->request.trace = job->trace.get();

    TenantState& tenant = tenant_locked(job->tenant);
    ++stats_.submitted;
    metrics.submitted.add();
    tenant.submitted_metric.add();

    if (cached != nullptr) {
      // Cache hit: the job is born terminal with the original result
      // (byte-identical by the determinism contract) — no queue slot,
      // no runner, no fair-share charge. start_order stays 0 (it never
      // ran) and stats record it as completed like any other job.
      job->from_cache = true;
      jobs_.emplace(job->id, job);
      ++stats_.cache_hits;
      terminal = finish_locked(job, JobState::kDone, {}, std::move(cached));
    } else {
      // Record every progress update on the job (for poll/stream
      // replays), then forward to any caller-supplied sink.
      Job* raw = job.get();  // jobs_ keeps the record alive for our lifetime
      ProgressFn user_sink = std::move(raw->request.progress.sink);
      if (raw->request.progress.every > 0) {
        raw->request.progress.sink =
            [this, raw, user_sink](const ProgressUpdate& update) {
              {
                const std::lock_guard<std::mutex> inner(mutex_);
                raw->updates.push_back(update);
                raw->completed_repetitions = update.completed_repetitions;
              }
              job_changed_.notify_all();
              if (user_sink) user_sink(update);
            };
      }

      // Capture resumable snapshots on the job (what retries and the
      // journal resume from), then forward to any caller sink.
      const std::uint64_t checkpoint_every =
          raw->request.checkpoint.every > 0 ? raw->request.checkpoint.every
                                            : options_.checkpoint_every;
      if (checkpoint_every > 0) {
        std::function<void(const RunCheckpoint&)> user_ckpt =
            std::move(raw->request.checkpoint.sink);
        raw->request.checkpoint.every = checkpoint_every;
        raw->request.checkpoint.sink = [this, raw, user_ckpt](
                                           const RunCheckpoint& update) {
          auto copy = std::make_shared<const RunCheckpoint>(update);
          {
            const std::lock_guard<std::mutex> inner(mutex_);
            raw->checkpoint = copy;
          }
          if (options_.on_checkpoint) {
            try {
              options_.on_checkpoint(raw->id, copy);
            } catch (...) {
              // A lost checkpoint record only means a post-crash resume
              // starts from an earlier snapshot.
            }
          }
          if (user_ckpt) user_ckpt(update);
        };
      }

      // Weighted-fair start tag: a tenant's jobs are spaced out along
      // the virtual time axis by predicted-cost/weight, so heavier
      // weights pack more work per unit of virtual time. The max with
      // the global clock stops an idle tenant from hoarding credit.
      job->cost_units = std::max(job->predicted_seconds, 0.001);
      job->vtime = std::max(global_vtime_, tenant.vtime);
      tenant.vtime =
          job->vtime + job->cost_units / std::max(tenant.quota.weight, 1e-9);
      ++tenant.queued;
      predicted_backlog_seconds_ += job->predicted_seconds;
      jobs_.emplace(job->id, job);
      queue_.push_back(job);
      metrics.queue_depth.set(
          static_cast<std::int64_t>(queue_.size() + delayed_.size()));
    }
  }
  if (job->from_cache) {
    notify_terminal(terminal);  // already terminal: wait()ers, not runners
  } else {
    work_available_.notify_one();
  }
  return job->id;
}

bool JobScheduler::cancel(std::uint64_t id) {
  JobPtr job;
  std::optional<JobInfo> terminal;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end() || is_terminal(it->second->state)) return false;
    job = it->second;
    if (!job->cancel_requested) {
      job->cancel_requested = true;
      job->cancel_requested_at = std::chrono::steady_clock::now();
    }
    if (job->state == JobState::kQueued) {
      // Cancelled before running: removed from the queue (or the retry
      // backoff list) so it stops counting against admission control,
      // and terminal immediately. Queues are at most max_queue_depth
      // deep, so the linear erase is cheap.
      std::erase(queue_, job);
      std::erase(delayed_, job);
      release_queued_locked(*job);
      SchedulerMetrics::instance().queue_depth.set(
          static_cast<std::int64_t>(queue_.size() + delayed_.size()));
      terminal = finish_locked(job, JobState::kCancelled,
                               "cancelled while queued", nullptr);
    }
  }
  // Running jobs stop cooperatively at their next gate/shard check.
  job->token.cancel();
  notify_terminal(terminal);
  return true;
}

JobInfo JobScheduler::info(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_locked(*find_locked(id));
}

JobInfo JobScheduler::wait(std::uint64_t id,
                           std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(mutex_);
  // Copy of the shared_ptr: the job record stays alive across the
  // unlocked waiting even if retention evicts it from jobs_.
  const JobPtr job = find_locked(id);
  const auto done = [&] { return is_terminal(job->state); };
  if (timeout == std::chrono::milliseconds::max()) {
    job_changed_.wait(lock, done);
  } else {
    job_changed_.wait_for(lock, timeout, done);
  }
  return snapshot_locked(*job);
}

std::vector<ProgressUpdate> JobScheduler::progress_since(
    std::uint64_t id, std::size_t since) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const JobPtr job = find_locked(id);
  if (since >= job->updates.size()) return {};
  return {job->updates.begin() + static_cast<std::ptrdiff_t>(since),
          job->updates.end()};
}

bool JobScheduler::wait_progress(std::uint64_t id, std::size_t since,
                                 std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(mutex_);
  const JobPtr job = find_locked(id);  // survives eviction (see wait)
  return job_changed_.wait_for(lock, timeout, [&] {
    return job->updates.size() > since || is_terminal(job->state);
  });
}

SchedulerStats JobScheduler::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  SchedulerStats out = stats_;
  out.queue_depth = queue_.size() + delayed_.size();
  std::size_t running = 0;
  for (const auto& [id, job] : jobs_) {
    if (job->state == JobState::kRunning) ++running;
  }
  out.running = running;
  return out;
}

void JobScheduler::promote_delayed_locked() {
  const auto now = std::chrono::steady_clock::now();
  auto it = delayed_.begin();
  while (it != delayed_.end()) {
    if ((*it)->ready_at <= now) {
      queue_.push_back(std::move(*it));
      it = delayed_.erase(it);
      continue;
    }
    ++it;
  }
}

JobScheduler::JobPtr JobScheduler::take_next_locked() {
  // Every job in queue_ is kQueued: a queued job ends only through
  // cancel() or the destructor, and both take it out of the queue.
  auto best = queue_.end();
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    const TenantState& tenant = tenant_locked((*it)->tenant);
    const bool eligible = tenant.quota.max_running == 0 ||
                          tenant.running < tenant.quota.max_running;
    if (eligible && (best == queue_.end() || dispatch_less(*best, *it))) {
      best = it;
    }
  }
  if (best == queue_.end()) return nullptr;
  JobPtr job = std::move(*best);
  queue_.erase(best);
  release_queued_locked(*job);
  // The global clock follows dispatched start tags so tenants going
  // from idle to busy start at "now" in virtual time rather than
  // cashing in every idle second as credit.
  global_vtime_ = std::max(global_vtime_, job->vtime);
  SchedulerMetrics::instance().queue_depth.set(
      static_cast<std::int64_t>(queue_.size() + delayed_.size()));
  return job;
}

void JobScheduler::release_queued_locked(const Job& job) {
  TenantState& tenant = tenant_locked(job.tenant);
  if (tenant.queued > 0) --tenant.queued;
  predicted_backlog_seconds_ =
      std::max(0.0, predicted_backlog_seconds_ - job.predicted_seconds);
}

void JobScheduler::runner_loop() {
  while (true) {
    JobPtr job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      while (true) {
        promote_delayed_locked();
        if (stopping_) break;
        job = take_next_locked();
        if (job != nullptr) break;
        if (!delayed_.empty()) {
          // Sleep until the earliest backoff elapses (or new work /
          // shutdown wakes us).
          auto next = delayed_.front()->ready_at;
          for (const JobPtr& waiting : delayed_) {
            next = std::min(next, waiting->ready_at);
          }
          work_available_.wait_until(lock, next);
        } else {
          // Queue empty, or nothing eligible under the per-tenant
          // running caps — a finishing job re-notifies work_available_.
          work_available_.wait(lock);
        }
      }
      if (stopping_) return;
      // A deadline that expired in the queue never samples.
      if (job->token.stop_kind() == StopKind::kDeadline) {
        const std::optional<JobInfo> terminal =
            finish_locked(job, JobState::kTimedOut,
                          "deadline exceeded while queued", nullptr);
        lock.unlock();
        notify_terminal(terminal);
        continue;
      }
      SchedulerMetrics& metrics = SchedulerMetrics::instance();
      job->state = JobState::kRunning;
      ++tenant_locked(job->tenant).running;
      job->started_at = std::chrono::steady_clock::now();
      job->start_order = next_start_order_++;
      const double queue_wait =
          seconds_between(job->submitted_at, job->started_at);
      metrics.queue_wait.observe(queue_wait);
      metrics.running.add(1);
      // Queue wait as a manually recorded span: no scope existed while
      // the job sat in the queue.
      job->trace->record({obs::Trace::span_id(job->trace->id(), "queue", 0),
                          job->trace->parent(), "queue", 0, queue_wait});
    }
    job_changed_.notify_all();
    run_job(job);
  }
}

void JobScheduler::run_job(const JobPtr& job) {
  if (job->request.resume != nullptr) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.resumed;
    }
    SchedulerMetrics::instance().resumed.add();
  }
  JobState state = JobState::kDone;
  // Invalid-request failures (bad circuit, unsupported operation,
  // malformed input) are deterministic — retrying them re-fails; every
  // other failure (injected faults, resource errors) may be transient.
  bool transient = true;
  std::string error;
  std::shared_ptr<RunResult> result;
  try {
    result = std::make_shared<RunResult>(session_.run(job->request));
    // Scheduling-side wall time into the job's RunStats (never part of
    // the byte-stable reports — see core/simulator.h).
    result->stats.queue_wait_ms =
        seconds_between(job->submitted_at, job->started_at) * 1000.0;
  } catch (const CancelledError& e) {
    state = JobState::kCancelled;
    error = e.what();
  } catch (const DeadlineExceededError& e) {
    state = JobState::kTimedOut;
    error = e.what();
  } catch (const ValueError& e) {
    state = JobState::kFailed;
    transient = false;
    error = e.what();
  } catch (const ParseError& e) {
    state = JobState::kFailed;
    transient = false;
    error = e.what();
  } catch (const UnsupportedOperationError& e) {
    state = JobState::kFailed;
    transient = false;
    error = e.what();
  } catch (const std::exception& e) {
    state = JobState::kFailed;
    error = e.what();
  }
  if (result != nullptr && options_.result_cache != nullptr &&
      !job->cache_key.empty()) {
    // Cached before the job turns terminal, so whoever sees it done
    // finds the entry (the insert takes the cache's own lock).
    // Concurrent duplicates are identical by determinism; insert keeps
    // the first.
    options_.result_cache->insert(job->cache_key, result);
  }

  std::optional<JobInfo> terminal;
  bool requeued = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    requeued = state == JobState::kFailed && transient && !stopping_ &&
               !job->cancel_requested &&
               job->retries < static_cast<std::uint64_t>(
                                  std::max(0, options_.max_retries));
    if (requeued) {
      // Transient failure with retry budget left: exponential backoff
      // with deterministic jitter (seeded by job id and attempt so
      // retry storms decorrelate without perturbing run results).
      SchedulerMetrics& metrics = SchedulerMetrics::instance();
      const auto now = std::chrono::steady_clock::now();
      ++job->retries;
      ++stats_.retried;
      metrics.retried.add();
      metrics.running.sub(1);
      metrics.run_seconds.observe(seconds_between(job->started_at, now));
      const std::uint64_t base = options_.backoff_base_ms;
      std::uint64_t backoff = base << std::min<std::uint64_t>(
                                  job->retries - 1, 16);
      if (base > 0) {
        Rng jitter(job->id * 31 + job->retries);
        backoff += jitter.uniform_int(base);
      }
      obs::log(obs::LogLevel::kWarn, "scheduler", "job retried",
               {{"attempt", job->retries},
                {"backoff_ms", backoff},
                {"error", error}},
               job->trace->id(), job->id);
      requeue_locked(job, now + std::chrono::milliseconds(backoff));
    } else {
      terminal = finish_locked(job, state, std::move(error), std::move(result));
    }
  }
  if (requeued) {
    work_available_.notify_one();
  } else {
    // The finished job freed a runner slot *and* dropped its tenant's
    // running count — queued work that was ineligible under a
    // per-tenant cap may be dispatchable now, so every waiting runner
    // gets to rescan.
    work_available_.notify_all();
  }
  notify_terminal(terminal);
}

void JobScheduler::requeue_locked(
    const JobPtr& job, std::chrono::steady_clock::time_point ready_at) {
  if (job->checkpoint) job->request.resume = job->checkpoint;
  job->state = JobState::kQueued;
  job->ready_at = ready_at;
  // Back from running to queued: the tenant's running slot frees up and
  // its backlog share returns. The original vtime tag is kept — the
  // fair-share charge was paid at submission, and a retried job
  // should resume ahead of work submitted after it.
  TenantState& tenant = tenant_locked(job->tenant);
  if (tenant.running > 0) --tenant.running;
  ++tenant.queued;
  predicted_backlog_seconds_ += job->predicted_seconds;
  if (ready_at <= std::chrono::steady_clock::now()) {
    queue_.push_back(job);
  } else {
    delayed_.push_back(job);
  }
  SchedulerMetrics::instance().queue_depth.set(
      static_cast<std::int64_t>(queue_.size() + delayed_.size()));
}

std::optional<JobInfo> JobScheduler::finish_locked(
    const JobPtr& job, JobState state, std::string error,
    std::shared_ptr<const RunResult> result) {
  const bool ran = job->state == JobState::kRunning;
  job->state = state;
  job->error = std::move(error);
  job->result = std::move(result);
  job->finished_at = std::chrono::steady_clock::now();
  SchedulerMetrics& metrics = SchedulerMetrics::instance();
  TenantState& tenant = tenant_locked(job->tenant);
  switch (state) {
    case JobState::kDone:
      ++stats_.completed;
      ++stats_.completed_per_backend[job->result->backend_name];
      ++stats_.completed_per_tenant[metric_safe_label(job->tenant)];
      tenant.completed_metric.add();
      metrics.done.add();
      break;
    case JobState::kFailed:
      ++stats_.failed;
      metrics.failed.add();
      break;
    case JobState::kCancelled:
      ++stats_.cancelled;
      metrics.cancelled.add();
      break;
    case JobState::kTimedOut:
      ++stats_.timed_out;
      metrics.timed_out.add();
      break;
    default: break;
  }
  if (ran) {
    if (tenant.running > 0) --tenant.running;
    metrics.running.sub(1);
    const double run_seconds =
        seconds_between(job->started_at, job->finished_at);
    metrics.run_seconds.observe(run_seconds);
    job->trace->record({obs::Trace::span_id(job->trace->id(), "run", 0),
                        job->trace->parent(), "run", 0, run_seconds});
  } else if (!job->from_cache) {
    // Ended in the queue: all of its life was queue wait.
    metrics.queue_wait.observe(
        seconds_between(job->submitted_at, job->finished_at));
  }
  if (job->cancel_requested) {
    metrics.cancel_latency.observe(
        seconds_between(job->cancel_requested_at, job->finished_at));
  }

  terminal_order_.push_back(job->id);
  // Retention bound: a long-lived daemon must not accumulate every job
  // (circuit + result + progress history) forever. Oldest-finished
  // jobs are forgotten first; live jobs are never in terminal_order_.
  while (terminal_order_.size() > options_.max_retained_jobs) {
    const std::uint64_t evicted_id = terminal_order_.front();
    jobs_.erase(evicted_id);
    terminal_order_.pop_front();
    // The per-state counters in stats_ were folded in above, so
    // forgetting the record loses no history — only the eviction
    // itself is worth counting.
    ++stats_.evicted;
    metrics.evicted.add();
    if (options_.on_evict) {
      // Called under the scheduler lock (documented in
      // SchedulerOptions): the hook appends a journal record and must
      // not call back into the scheduler.
      try {
        options_.on_evict(evicted_id);
      } catch (...) {
      }
    }
  }
  // Jobs cancelled by shutdown stay incomplete for the journal.
  if (!options_.on_terminal || stopping_) return std::nullopt;
  return snapshot_locked(*job);
}

void JobScheduler::notify_terminal(const std::optional<JobInfo>& terminal) {
  if (terminal) {
    try {
      options_.on_terminal(*terminal);
    } catch (...) {
    }
  }
  job_changed_.notify_all();
}

double JobScheduler::estimate_seconds(const RunRequest& request) const {
  // Pure function of the request (the session's selector and cost model
  // are immutable after construction), so callable without the lock.
  try {
    const CircuitProfile profile = profile_circuit(request.circuit);
    const BackendSelector& selector = session_.selector();
    BackendId id = request.backend;
    if (!request.backend_name.empty()) {
      id = session_.registry().require(request.backend_name)->id();
    } else if (id == BackendId::kAuto) {
      id = selector.select(profile, request.repetitions).id;
    }
    if (id == BackendId::kCustom) return -1.0;  // no closed-form cost
    return selector.cost_model().predict_seconds(profile,
                                                 request.repetitions, id);
  } catch (...) {
    // Unknown backend, unroutable circuit, ... — admission lets it
    // through so the job fails later with its real error.
    return -1.0;
  }
}

JobScheduler::TenantState& JobScheduler::tenant_locked(
    const std::string& tenant) {
  const auto it = tenants_.find(tenant);
  if (it != tenants_.end()) return it->second;
  TenantState state;
  const auto quota = options_.tenant_quotas.find(tenant);
  state.quota = quota != options_.tenant_quotas.end() ? quota->second
                                                      : TenantQuota{};
  // Per-tenant series, registered on first sight (the registry
  // deduplicates by name, so several schedulers share them).
  auto& registry = obs::MetricsRegistry::global();
  const std::string label = metric_safe_label(tenant);
  state.submitted_metric = registry.counter(
      "bgls_tenant_submitted_total{tenant=\"" + label + "\"}",
      "Jobs admitted, by tenant");
  state.completed_metric = registry.counter(
      "bgls_tenant_completed_total{tenant=\"" + label + "\"}",
      "Jobs completed (cache hits included), by tenant");
  return tenants_.emplace(tenant, std::move(state)).first->second;
}

JobInfo JobScheduler::snapshot_locked(const Job& job) const {
  JobInfo info;
  info.id = job.id;
  info.state = job.state;
  info.priority = job.priority;
  info.tenant = job.tenant;
  info.from_cache = job.from_cache;
  info.predicted_seconds = job.predicted_seconds;
  info.report_context = job.report_context;
  info.error = job.error;
  info.completed_repetitions = job.completed_repetitions;
  info.total_repetitions = job.request.repetitions;
  info.progress_updates = job.updates.size();
  info.result = job.result;
  info.start_order = job.start_order;
  info.retries = job.retries;
  info.trace = job.trace;
  const auto ended = is_terminal(job.state) ? job.finished_at
                                            : std::chrono::steady_clock::now();
  const auto started = job.start_order > 0 ? job.started_at : ended;
  info.queue_seconds = seconds_between(job.submitted_at, started);
  if (job.start_order > 0) {
    info.run_seconds = seconds_between(job.started_at, ended);
  }
  return info;
}

JobScheduler::JobPtr JobScheduler::find_locked(std::uint64_t id) const {
  const auto it = jobs_.find(id);
  BGLS_REQUIRE(it != jobs_.end(),
               "unknown job id ", id,
               " (never submitted, or evicted by the retention bound)");
  return it->second;
}

}  // namespace bgls::service
