/// \file cancellation.h
/// Cooperative cancellation and deadlines for long-running runs.
///
/// A CancellationToken is a cheap copyable handle to shared stop state:
/// any holder may cancel() it or arm a wall-clock deadline, and the
/// sampling loops (Simulator's per-gate and per-shard checks) poll it
/// at bounded intervals and abort by throwing
/// CancelledError / DeadlineExceededError. Cancellation is *cooperative*
/// and scheduling-only: an aborted run's partial work is discarded,
/// nothing shared (thread pools, cached contexts, other in-flight runs)
/// is touched, so later runs on the same pool are bit-identical to runs
/// on a fresh one — pinned by tests/test_cancellation.cpp.
///
/// A default-constructed token is *inert*: it holds no state, every
/// check is a null-pointer test, and it can never request a stop — the
/// zero-cost default for the vast majority of runs that never need
/// cancellation.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>

#include "util/error.h"

namespace bgls {

/// Thrown by a run whose CancellationToken was cancel()ed.
class CancelledError : public Error {
 public:
  using Error::Error;
};

/// Thrown by a run whose CancellationToken deadline passed.
class DeadlineExceededError : public Error {
 public:
  using Error::Error;
};

/// Why a token asks a run to stop.
enum class StopKind {
  kNone,      ///< keep running
  kCancelled, ///< cancel() was called
  kDeadline,  ///< the armed deadline passed
};

/// Copyable handle to shared cancellation state (see file comment).
/// Thread-safe: cancel()/set_deadline()/stop_kind() may race freely.
class CancellationToken {
 public:
  /// Inert token: valid() is false and stop is never requested.
  CancellationToken() = default;

  /// A fresh active token (not yet cancelled, no deadline).
  [[nodiscard]] static CancellationToken make() {
    CancellationToken token;
    token.state_ = std::make_shared<State>();
    return token;
  }

  /// True when this token carries shared state (can be cancelled).
  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  // The mutators are const: they touch the *shared* stop state, not
  // the handle, so any copy — including one held by const reference —
  // may request the stop.

  /// Requests a stop. Idempotent; no-op on an inert token.
  void cancel() const noexcept {
    if (state_) state_->cancelled.store(true, std::memory_order_release);
  }

  /// Arms (or replaces) the absolute deadline. No-op on an inert token.
  void set_deadline(std::chrono::steady_clock::time_point deadline) const {
    if (state_) {
      state_->deadline_ns.store(deadline.time_since_epoch().count(),
                                std::memory_order_release);
    }
  }

  /// Arms the deadline `timeout` from now.
  void set_deadline_after(std::chrono::milliseconds timeout) const {
    set_deadline(std::chrono::steady_clock::now() + timeout);
  }

  /// Current stop request, if any. cancel() wins over an expired
  /// deadline so an explicitly cancelled run reports kCancelled even
  /// when its deadline has also passed.
  [[nodiscard]] StopKind stop_kind() const {
    if (!state_) return StopKind::kNone;
    if (state_->cancelled.load(std::memory_order_acquire)) {
      return StopKind::kCancelled;
    }
    const std::int64_t deadline =
        state_->deadline_ns.load(std::memory_order_acquire);
    if (deadline != kNoDeadline &&
        std::chrono::steady_clock::now().time_since_epoch().count() >=
            deadline) {
      return StopKind::kDeadline;
    }
    return StopKind::kNone;
  }

  /// True when a stop has been requested (by either mechanism).
  [[nodiscard]] bool stop_requested() const {
    return stop_kind() != StopKind::kNone;
  }

  /// The cooperative check the sampling loops call: throws
  /// CancelledError or DeadlineExceededError when a stop is requested,
  /// returns otherwise. Inert tokens return immediately.
  void throw_if_stopped() const {
    switch (stop_kind()) {
      case StopKind::kNone:
        return;
      case StopKind::kCancelled:
        throw CancelledError("run cancelled by its CancellationToken");
      case StopKind::kDeadline:
        throw DeadlineExceededError("run exceeded its deadline");
    }
  }

 private:
  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::max();

  struct State {
    std::atomic<bool> cancelled{false};
    std::atomic<std::int64_t> deadline_ns{kNoDeadline};
  };

  std::shared_ptr<State> state_;
};

}  // namespace bgls
