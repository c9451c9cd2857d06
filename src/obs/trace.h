/// \file trace.h
/// Per-job traces: named, timed spans with deterministic IDs.
///
/// A Trace collects SpanRecords for one unit of work (one scheduler
/// job, one Session::run). TraceSpan is the RAII recorder: it times a
/// scope on the steady clock and appends a record on destruction.
///
/// Span IDs are *derived*, not allocated: FNV-1a over (trace id, span
/// name, caller-supplied index). The same job therefore produces the
/// same span IDs regardless of thread count or interleaving — shard
/// span N of job 7 has one identity whether 1 or 16 workers raced for
/// it — which is what lets tests assert on traces. Durations of course
/// still vary; identity and structure do not.
///
/// Nesting is tracked per thread: a span started while another span of
/// the *same trace* is open on the *same thread* records that span as
/// its parent. A span with no enclosing same-trace span on its thread
/// parents under the trace's *root* span (settable; defaults to the
/// propagated parent_span_id, or 0). The root fallback is what keeps
/// trees byte-stable across thread counts: an engine shard runs inline
/// on the caller's thread at 1 thread (inside the session's "sample"
/// span) but on a pool thread at N — pinning its parent to the root
/// gives one structure either way. Spans that must not inherit the
/// caller's scope pass Nest::kRoot explicitly.
///
/// Cross-process propagation: a Trace constructed with a nonzero
/// parent_span_id hangs its top-level spans under a span recorded by
/// another process (the fleet front), so merged trees stitch cleanly.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"  // enabled()

namespace bgls::obs {

/// One finished span: identity, structure, and measured duration.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::string name;
  std::uint64_t index = 0;  // caller-chosen ordinal (shard number, ...)
  double seconds = 0.0;
};

/// Collects spans for one job. Thread-safe; record() is a short
/// critical section off the sampling hot path (spans wrap shards and
/// phases, not per-amplitude work).
class Trace {
 public:
  explicit Trace(std::uint64_t trace_id, std::uint64_t parent_span_id = 0)
      : id_(trace_id), parent_(parent_span_id), root_(parent_span_id) {}

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  /// The propagated parent span id this trace hangs under (0 = none).
  /// Top-level local spans (queue/run, fleet.place) use it as parent.
  [[nodiscard]] std::uint64_t parent() const noexcept { return parent_; }

  /// Default parent for spans opened with no enclosing same-trace span
  /// on their thread. The scheduler points it at the job's "run" span
  /// before execution starts so engine/session spans attach there.
  [[nodiscard]] std::uint64_t root() const noexcept {
    return root_.load(std::memory_order_relaxed);
  }
  void set_root(std::uint64_t span_id) noexcept {
    root_.store(span_id, std::memory_order_relaxed);
  }

  /// The deterministic span ID for (trace, name, index): 64-bit FNV-1a.
  [[nodiscard]] static std::uint64_t span_id(std::uint64_t trace_id,
                                             std::string_view name,
                                             std::uint64_t index) noexcept;

  void record(SpanRecord record);

  /// All finished spans, sorted by (name, index, id) — a deterministic
  /// order independent of completion interleaving.
  [[nodiscard]] std::vector<SpanRecord> spans() const;

 private:
  std::uint64_t id_;
  std::uint64_t parent_ = 0;
  std::atomic<std::uint64_t> root_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII scoped timer appending one SpanRecord to a Trace. A null trace
/// (or telemetry disabled at start) makes the span a no-op. `index`
/// disambiguates sibling spans sharing a name — pass the shard/chunk
/// ordinal; serial phases use the default 0.
class TraceSpan {
 public:
  /// Parent selection when no enclosing same-trace span is open on this
  /// thread (both modes then fall back to the trace's root()):
  /// kEnclosing links under the innermost open span; kRoot ignores the
  /// thread's span stack entirely — for work (engine shards) that may
  /// run inline *or* on a pool thread and must parent identically.
  enum class Nest { kEnclosing, kRoot };

  TraceSpan(Trace* trace, std::string_view name, std::uint64_t index = 0,
            Nest nest = Nest::kEnclosing);
  ~TraceSpan() { finish(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Records the span early; the destructor then does nothing.
  void finish();

  /// This span's deterministic ID (0 when inert).
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  Trace* trace_ = nullptr;  // null once finished/inert
  std::string name_;
  std::uint64_t index_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::chrono::steady_clock::time_point start_;
  TraceSpan* enclosing_ = nullptr;  // previous top of this thread's stack
};

}  // namespace bgls::obs
