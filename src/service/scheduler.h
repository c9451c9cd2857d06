/// \file scheduler.h
/// JobScheduler — the long-lived sampling service's work queue.
///
/// The Session facade (api/session.h) runs one request at a time; a
/// *service* multiplexes many heterogeneous requests from many clients
/// against bounded resources. The scheduler adds exactly the missing
/// layer, the shape qsim-style deployments use for a persistent
/// simulator process:
///
///  - a priority queue of RunRequest jobs (higher priority first, ties
///    by weighted-fair virtual time, then FIFO) drained by a fixed set
///    of runner threads; the sampling itself still fans out on the
///    shared EngineContext pool through the Session, so one big job
///    saturates the machine while small ones queue behind it;
///  - multi-tenancy: every request carries a tenant name; tenants get
///    weighted-fair scheduling (virtual time charged at predicted cost
///    over weight, so a 2:1 weight ratio converges to a 2:1 share of
///    completed work under saturation) plus per-tenant queued/running
///    caps;
///  - admission control: submissions beyond max_queue_depth (queued
///    plus retry-delayed jobs) are rejected with QueueFullError; over
///    a tenant's quota with TenantQuotaError; over the predicted-cost
///    budgets (service/cost.h) with CostBudgetError — a service sheds
///    load at the door instead of accumulating unbounded work;
///  - a deterministic result cache (service/result_cache.h, opt-in):
///    repeat submissions of a cacheable request are answered as
///    instantly terminal jobs holding the original result — reports
///    stay byte-identical without re-sampling;
///  - per-job cooperative cancellation and wall-clock deadlines
///    (util/cancellation.h): cancel() aborts a queued job instantly and
///    a running one within a bounded number of gate/shard steps;
///    deadlines count from submission, so a job that waited out its
///    budget in the queue times out without sampling;
///  - streaming partial histograms: every job records its
///    ProgressUpdate sequence (core/progress.h), replayable from any
///    offset — the daemon's poll/stream endpoints read it.
///
/// Aborted or failed jobs never corrupt the scheduler or the shared
/// pool: a later identical submission returns bit-identical results
/// (pinned by tests/test_scheduler.cpp).

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "core/progress.h"
#include "obs/trace.h"
#include "service/cost.h"
#include "service/report.h"
#include "service/result_cache.h"
#include "util/cancellation.h"
#include "util/error.h"

namespace bgls::service {

/// Thrown by submit() when admission control rejects the job (queued
/// plus retry-delayed jobs at max_queue_depth).
class QueueFullError : public Error {
 public:
  using Error::Error;
};

/// Thrown by submit() when the request's tenant is at its queued cap.
class TenantQuotaError : public Error {
 public:
  using Error::Error;
};

/// Lifecycle of a job. Queued/Running are transient; the other four are
/// terminal.
enum class JobState {
  kQueued,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
  kTimedOut,
};

/// Lowercase wire name ("queued", "running", "done", "failed",
/// "cancelled", "timeout").
[[nodiscard]] std::string_view job_state_name(JobState state);

/// True for the four end states.
[[nodiscard]] bool is_terminal(JobState state);

/// Snapshot of one job, returned by info()/wait().
struct JobInfo {
  std::uint64_t id = 0;
  JobState state = JobState::kQueued;
  int priority = 0;
  /// Owning tenant ("" = the anonymous default tenant).
  std::string tenant;
  /// Answered from the result cache without sampling (instantly
  /// terminal; start_order stays 0).
  bool from_cache = false;
  /// CostModel estimate at admission, seconds (0 when no estimate was
  /// possible — custom backends have no closed form).
  double predicted_seconds = 0.0;
  /// The submit knobs the canonical report echoes (service/report.h),
  /// fixed at submit with the circuit's own width, as bgls_run reports
  /// it.
  RunReportContext report_context;
  /// What went wrong (kFailed), or the cancellation/timeout message.
  std::string error;
  /// Streaming progress: repetitions covered by the latest update and
  /// the number of updates recorded so far.
  std::uint64_t completed_repetitions = 0;
  std::uint64_t total_repetitions = 0;
  std::size_t progress_updates = 0;
  /// The final result (kDone only).
  std::shared_ptr<const RunResult> result;
  /// Queue wait and execution wall time, seconds (so far, for live
  /// jobs).
  double queue_seconds = 0.0;
  double run_seconds = 0.0;
  /// 1-based order in which the job started running; 0 = never started
  /// (tests pin priority ordering with it).
  std::uint64_t start_order = 0;
  /// Transient-failure retries consumed so far (SchedulerOptions::
  /// max_retries bounds them).
  std::uint64_t retries = 0;
  /// The job's telemetry trace (obs/trace.h): queue/run spans from the
  /// scheduler plus shard/phase spans from the layers below, with span
  /// IDs deterministically derived from the job id.
  std::shared_ptr<const obs::Trace> trace;
};

/// Aggregate counters for the stats endpoint. The per-state counters
/// (submitted/rejected/completed/...) are *monotonic over the
/// scheduler's lifetime*: a job's terminal state is folded in at the
/// terminal transition, before retention eviction can forget the job,
/// so totals survive max_retained_jobs pruning.
struct SchedulerStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t timed_out = 0;
  /// Terminal jobs forgotten by the retention bound (their ids became
  /// unknown; the counters above still include them).
  std::uint64_t evicted = 0;
  /// Crash-safety counters: transient-failure retries, and runs that
  /// started from a checkpoint (retry resumes, journal replays).
  std::uint64_t retried = 0;
  std::uint64_t resumed = 0;
  std::size_t queue_depth = 0;
  std::size_t running = 0;
  /// Submissions answered from the result cache (included in
  /// submitted/completed).
  std::uint64_t cache_hits = 0;
  /// Completed jobs per executing backend name — the routing decisions
  /// (RunResult::selection_reason carries the per-job why).
  std::map<std::string, std::uint64_t> completed_per_backend;
  /// Completed jobs (cache hits included) per tenant name.
  std::map<std::string, std::uint64_t> completed_per_tenant;
};

/// Per-tenant scheduling quota.
struct TenantQuota {
  /// Weighted-fair share: a tenant's virtual time advances by
  /// predicted-cost/weight per admitted job, so a weight-2 tenant gets
  /// twice the completed work of a weight-1 tenant under saturation.
  double weight = 1.0;
  /// Cap on the tenant's queued (incl. retry-delayed) jobs; 0 = only
  /// the global max_queue_depth applies.
  std::size_t max_queued = 0;
  /// Cap on the tenant's concurrently running jobs; 0 = only
  /// max_concurrent_jobs applies.
  std::size_t max_running = 0;
};

/// Construction knobs.
struct SchedulerOptions {
  /// Dedicated job-runner threads (concurrent jobs). Each job's
  /// sampling fans out on the shared EngineContext pool via the
  /// Session, so this bounds *jobs* in flight, not threads used.
  int max_concurrent_jobs = 1;
  /// Admission bound on queued (not yet running) jobs, counting both
  /// the ready heap and retry-backoff jobs waiting in delayed_.
  std::size_t max_queue_depth = 64;
  /// Explicit per-tenant quotas; tenants not listed (the anonymous ""
  /// tenant included) get a default TenantQuota.
  std::map<std::string, TenantQuota> tenant_quotas;
  /// Cost-aware admission budgets, applied to the CostModel estimate
  /// (the Session's selector model, so routing and admission agree).
  /// 0 disables the respective budget. Jobs whose backend has no
  /// closed-form cost (custom backends) bypass both.
  double max_job_seconds = 0.0;
  /// Cap on the summed predicted seconds of queued + delayed work; a
  /// rejection here is retryable — the backlog drains.
  double max_queue_seconds = 0.0;
  /// Deterministic result cache; null = off. Shareable between
  /// schedulers (it is internally locked).
  std::shared_ptr<ResultCache> result_cache;
  /// Retention bound on *terminal* jobs: when more than this many
  /// finished/aborted jobs are held, the oldest-finished are evicted
  /// (their id becomes unknown; results and progress must be fetched
  /// before then). Keeps a long-lived daemon's memory bounded — live
  /// (queued/running) jobs are never evicted.
  std::size_t max_retained_jobs = 1024;
  /// Checkpoint cadence installed on every job (repetitions between
  /// resumable snapshots; 0 = off). A job's own checkpoint cadence, if
  /// set, wins. Checkpoints feed the retry resume path and the
  /// on_checkpoint journal hook.
  std::uint64_t checkpoint_every = 0;
  /// Transiently failed jobs (anything but invalid-request errors) are
  /// re-queued up to this many times, resuming from their latest
  /// checkpoint, with exponential backoff: the k-th retry waits
  /// backoff_base_ms * 2^(k-1) plus deterministic jitter in
  /// [0, backoff_base_ms).
  int max_retries = 0;
  std::uint64_t backoff_base_ms = 100;
  /// Event hooks for write-ahead journaling (service/journal.h). All
  /// are optional, invoked outside the scheduler lock (on_evict inside
  /// it — it must not call back into the scheduler), and exceptions
  /// they throw are swallowed: losing a journal record only means the
  /// affected job replays more work after a crash (determinism makes
  /// the re-run byte-identical). on_terminal fires exactly once per
  /// terminal job (inside submit() for a cache hit), except for jobs
  /// cancelled by scheduler shutdown: they stay incomplete in the
  /// journal so a restart resumes them.
  std::function<void(const JobInfo&)> on_terminal;
  std::function<void(std::uint64_t)> on_evict;
  std::function<void(std::uint64_t, std::shared_ptr<const RunCheckpoint>)>
      on_checkpoint;
};

/// Priority work queue over a Session (see file comment). Thread-safe:
/// every public method may be called from any thread.
class JobScheduler {
 public:
  explicit JobScheduler(SchedulerOptions options = {});

  /// Cancels every queued and running job and joins the runners.
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Cap on the progress updates one job may ask for,
  /// ceil(repetitions / progress.every): the scheduler keeps every
  /// update, cumulative histograms included, until the job is evicted.
  static constexpr std::uint64_t kMaxProgressUpdates = 1024;

  /// Enqueues `request` and returns its job id. Uses request.priority,
  /// arms request.deadline_ms on the job's cancellation token *now*
  /// (queue wait counts), and records request.progress updates for
  /// progress_since() — a caller-supplied progress sink still receives
  /// every update. Throws ValueError when the progress cadence asks for
  /// more than kMaxProgressUpdates updates, and QueueFullError when the
  /// queue is at max_queue_depth.
  std::uint64_t submit(RunRequest request);

  /// submit() variant for journal replay: enqueues `request` under the
  /// id it had in the journaled previous life (so clients polling that
  /// id keep working) and advances the id counter past it. Bypasses
  /// admission control — replayed jobs were already admitted once.
  std::uint64_t resubmit(RunRequest request, std::uint64_t forced_id);

  /// Ensures future job ids start after `max_id` (journal replay calls
  /// this for terminal jobs it answers from memory without
  /// resubmitting).
  void reserve_ids_through(std::uint64_t max_id);

  /// Requests cancellation: a queued job is cancelled immediately, a
  /// running one within a bounded number of gate/shard steps. Returns
  /// false for unknown ids and jobs already in a terminal state.
  bool cancel(std::uint64_t id);

  /// Snapshot of a job; throws ValueError for unknown ids.
  [[nodiscard]] JobInfo info(std::uint64_t id) const;

  /// Blocks until the job reaches a terminal state (or `timeout`
  /// passes) and returns the snapshot.
  JobInfo wait(std::uint64_t id,
               std::chrono::milliseconds timeout =
                   std::chrono::milliseconds::max()) const;

  /// The job's recorded progress updates starting at index `since`
  /// (replay cursor for streaming endpoints).
  [[nodiscard]] std::vector<ProgressUpdate> progress_since(
      std::uint64_t id, std::size_t since) const;

  /// Blocks until the job has recorded more than `since` updates or
  /// reached a terminal state (or `timeout` passed). Returns true when
  /// either happened — the streaming endpoint's poll primitive.
  bool wait_progress(std::uint64_t id, std::size_t since,
                     std::chrono::milliseconds timeout) const;

  /// Aggregate counters.
  [[nodiscard]] SchedulerStats stats() const;

 private:
  struct Job;
  using JobPtr = std::shared_ptr<Job>;

  /// Per-tenant scheduling state (guarded by mutex_).
  struct TenantState {
    TenantQuota quota;
    /// Weighted-fair virtual time: the finish tag of the tenant's most
    /// recently admitted job.
    double vtime = 0.0;
    std::size_t queued = 0;   // jobs in queue_ or delayed_
    std::size_t running = 0;  // jobs currently executing
    /// Process-wide per-tenant series, registered on first sight.
    obs::Counter submitted_metric;
    obs::Counter completed_metric;
  };

  /// Dispatch order: higher priority first, then lower virtual time
  /// (weighted-fair), then FIFO. Returns "a is worse than b".
  static bool dispatch_less(const JobPtr& a, const JobPtr& b);

  std::uint64_t submit_impl(RunRequest request, std::uint64_t forced_id);
  /// CostModel estimate for `request` via the session's selector;
  /// negative when no estimate is possible (custom backend, unrunnable
  /// circuit — those fail later with their real error).
  [[nodiscard]] double estimate_seconds(const RunRequest& request) const;
  /// The tenant's state, created (with its quota and metric series
  /// registered) on first sight.
  TenantState& tenant_locked(const std::string& tenant);
  /// Pops the best dispatchable job — per-tenant running caps respected
  /// — or null when nothing is eligible.
  JobPtr take_next_locked();
  /// Returns a job leaving queue_/delayed_ its tenant's queued slot and
  /// its share of the predicted backlog.
  void release_queued_locked(const Job& job);
  void runner_loop();
  /// Executes one dequeued job outside the lock.
  void run_job(const JobPtr& job);
  /// Re-queues a transiently failed job to resume from its latest
  /// checkpoint; jobs with a future `ready_at` wait in delayed_.
  void requeue_locked(const JobPtr& job,
                      std::chrono::steady_clock::time_point ready_at);
  /// Moves delayed_ jobs whose backoff has elapsed into the ready heap.
  void promote_delayed_locked();
  /// The one terminal transition, whichever way the job ended (cache
  /// hit, cancel or deadline while queued, end of run): state and
  /// result, per-state counters and metrics, run time and span (or
  /// queue wait), cancel latency, then eviction of the oldest terminal
  /// jobs beyond max_retained_jobs.
  /// Returns the snapshot for on_terminal (none without a hook or
  /// during shutdown); pass it to notify_terminal once unlocked.
  [[nodiscard]] std::optional<JobInfo> finish_locked(
      const JobPtr& job, JobState state, std::string error,
      std::shared_ptr<const RunResult> result);
  /// Fires on_terminal for finish_locked's snapshot, if any, then wakes
  /// wait()ers. Call without the lock.
  void notify_terminal(const std::optional<JobInfo>& terminal);
  [[nodiscard]] JobInfo snapshot_locked(const Job& job) const;
  [[nodiscard]] JobPtr find_locked(std::uint64_t id) const;

  SchedulerOptions options_;
  Session session_;

  mutable std::mutex mutex_;
  /// Signals runners about new work or shutdown.
  std::condition_variable work_available_;
  /// Broadcast on every job state change and progress update (wait /
  /// wait_progress).
  mutable std::condition_variable job_changed_;
  std::map<std::uint64_t, JobPtr> jobs_;
  /// Ready jobs; take_next_locked scans for the dispatch_less-best
  /// eligible entry (admission bounds the depth, so O(depth) per
  /// dispatch is cheap and keeps per-tenant eligibility exact).
  std::vector<JobPtr> queue_;
  /// Retried jobs waiting out their backoff (ready_at in the future).
  std::vector<JobPtr> delayed_;
  /// Weighted-fair bookkeeping (see TenantState).
  std::map<std::string, TenantState> tenants_;
  double global_vtime_ = 0.0;
  /// Summed predicted seconds of jobs in queue_ + delayed_ (the
  /// max_queue_seconds admission budget).
  double predicted_backlog_seconds_ = 0.0;
  /// Terminal job ids in completion order — the eviction queue.
  std::deque<std::uint64_t> terminal_order_;
  std::vector<std::thread> runners_;
  SchedulerStats stats_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_start_order_ = 1;
  bool stopping_ = false;
};

}  // namespace bgls::service
