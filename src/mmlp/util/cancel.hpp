// Cooperative cancellation and deadlines for solver execution.
//
// A CancelToken is a tiny shared flag + optional steady-clock deadline.
// The party that wants to stop work calls cancel() (or arms a deadline
// up front); the parties doing the work poll expired() at natural
// checkpoints and unwind by throwing CancelledError. Nothing is
// preempted: a chunk that is already executing runs to completion, so
// the per-index write discipline of the parallel substrate is never
// interrupted mid-slot and caches stay structurally valid.
//
// Propagation is scope-based rather than parameter-based: engine::solve
// installs the request's token with a CancelScope, and every layer below
// — the bulk scheduler's claim loop, the serial parallel_for fallback,
// explicit cancel::checkpoint() calls in long per-agent loops — reads
// the active token through current_cancel_token(). ThreadPool::run_bulk
// snapshots the caller's active token into the BulkJob at registration
// and re-installs it around each chunk body, so worker threads and
// nested bulk regions observe the same token as the caller.
//
// CancelledError deliberately does NOT derive from CheckError: a
// deadline is not a contract violation, and the wire layer maps it to
// its own `timeout` / `cancelled` error codes (engine/wire.cpp) instead
// of the generic `validate`.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>

namespace mmlp {

/// Why a unit of work was abandoned.
enum class CancelReason : std::uint8_t {
  kCancelled,  // explicit cancel() call
  kDeadline,   // armed deadline passed
};

/// Thrown from a cancellation checkpoint once the active token has
/// expired. Caught by engine::solve and converted into the
/// SolveStatus::kTimeout / kCancelled result taxonomy; it should not
/// normally escape to callers of the engine API.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(CancelReason reason)
      : std::runtime_error(reason == CancelReason::kDeadline
                               ? "deadline exceeded"
                               : "operation cancelled"),
        reason_(reason) {}

  CancelReason reason() const noexcept { return reason_; }

 private:
  CancelReason reason_;
};

/// Shared cancel flag + optional deadline. Thread-safe: cancel() and
/// the polling side may race freely. A token is one-shot — once
/// expired it stays expired (there is no reset; make a new token per
/// request).
class CancelToken {
 public:
  using clock = std::chrono::steady_clock;

  CancelToken() = default;

  /// Request cooperative cancellation. Idempotent.
  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }

  /// Arm a deadline `ms` milliseconds from now. ms == 0 leaves the
  /// token without a deadline (the wire convention: deadline_ms 0 =
  /// unlimited).
  void set_deadline_after_ms(std::int64_t ms) noexcept {
    if (ms <= 0) {
      return;
    }
    deadline_ns_.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            (clock::now() + std::chrono::milliseconds(ms)).time_since_epoch())
            .count(),
        std::memory_order_release);
  }

  bool cancel_requested() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  bool deadline_passed() const noexcept {
    const std::int64_t deadline =
        deadline_ns_.load(std::memory_order_acquire);
    if (deadline == 0) {
      return false;
    }
    return clock::now().time_since_epoch().count() >= deadline;
  }

  /// True once the token is cancelled or its deadline has passed.
  bool expired() const noexcept {
    return cancel_requested() || deadline_passed();
  }

  /// An explicit cancel wins over a deadline when both hold — the
  /// caller's intent is the stronger signal.
  CancelReason reason() const noexcept {
    return cancel_requested() ? CancelReason::kCancelled
                              : CancelReason::kDeadline;
  }

  /// Throw CancelledError when expired; no-op otherwise.
  void raise_if_expired() const {
    if (cancel_requested()) {
      throw CancelledError(CancelReason::kCancelled);
    }
    if (deadline_passed()) {
      throw CancelledError(CancelReason::kDeadline);
    }
  }

 private:
  std::atomic<bool> cancelled_{false};
  // Deadline as steady-clock nanoseconds since epoch; 0 = none.
  std::atomic<std::int64_t> deadline_ns_{0};
};

namespace cancel {

/// The token installed for the current thread (nullptr when none).
const CancelToken* current_token() noexcept;

/// Cancellation checkpoint: throws CancelledError when the current
/// thread's active token has expired. Cheap when no token is installed
/// (one thread-local read). Long serial loops — per-view-orbit LP
/// solves, per-round stabilization steps — call this so deadlines fire
/// even on a single-thread pool where the bulk scheduler's per-chunk
/// check never runs.
void checkpoint();

/// RAII scope installing `token` as the current thread's active token;
/// restores the previous token on destruction. Passing nullptr is a
/// no-op scope (useful for unconditioned call sites).
class CancelScope {
 public:
  explicit CancelScope(const CancelToken* token) noexcept;
  ~CancelScope();

  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  const CancelToken* previous_;
};

}  // namespace cancel

}  // namespace mmlp
