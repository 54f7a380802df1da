// Shared-memory parallel execution substrate.
//
// The LOCAL-model simulator and the per-agent algorithm loops are
// embarrassingly parallel over agents; this module provides a worker
// pool and a deterministic parallel_for built on it. Tasks write only
// to their own output slots (message-passing discipline — no shared
// mutable state between iterations), so parallel execution is bitwise
// reproducible regardless of the thread count.
//
// Scheduler design (the ROADMAP item 3 multi-core push):
//
//   * submit() path — one deque per worker with work stealing. A
//     submitted task lands on one worker's queue (round-robin); idle
//     workers steal from the back of their peers' queues. No global
//     task queue, so submissions never serialize every worker on one
//     lock.
//
//   * bulk path (run_bulk, what parallel_for / chunked_parallel_for
//     compile to) — a BulkJob descriptor lives on the caller's stack:
//     an atomic cursor over [0, count), a trampoline function pointer
//     and a context pointer. The caller registers the job (one mutex
//     acquisition), wakes the workers, and then claims and executes
//     chunks itself alongside them; every executor claims disjoint
//     [begin, end) ranges via compare-and-swap on the cursor. There is
//     no per-chunk allocation, no per-chunk lock, and no per-chunk
//     std::function — the scheduler costs one mutex acquisition per
//     participant per parallel region, not per chunk.
//
//   * chunk sizing is guided and cost-adaptive: a claim takes
//     remaining/(4·(workers+1)) items, shrunk once the measured
//     per-item cost is known so one chunk targets ~200 µs — long
//     enough to amortise the claim, short enough that stragglers
//     rebalance.
//
//   * nesting — a parallel_for from inside a worker registers its job
//     like any other caller and participates in it; idle workers help.
//     Nested regions therefore run in parallel (they used to fall back
//     to serial), and there is no deadlock because a bulk caller never
//     blocks on a resource another bulk caller holds.
//
// Determinism is unaffected by any of this: chunk boundaries and claim
// order vary run to run, but bodies write per-index slots only, and
// every ordered floating-point fold (the eq. (10) gather) is per-agent
// in a fixed ascending order. tests/test_thread_invariance.cpp pins
// bitwise equality across pool sizes on every registered solver.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "mmlp/util/cancel.hpp"

namespace mmlp {

/// Fixed-size worker pool: per-worker task deques with stealing, plus
/// the allocation-free bulk-dispatch path for chunked loops.
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means the MMLP_THREADS
  /// environment override, falling back to
  /// std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Cumulative per-worker activity since pool construction. busy_ns is
  /// time spent inside submitted tasks and bulk chunks, idle_ns time
  /// blocked waiting for work, tasks the number of submitted tasks
  /// executed, chunks the number of bulk chunks executed, steals the
  /// number of tasks taken from another worker's queue. The
  /// observability surface for ROADMAP item 3: a scaling-efficiency
  /// loss shows up directly as idle_ns growing faster than busy_ns on
  /// some workers, and a submit-path imbalance as a high steal count.
  struct WorkerStats {
    std::uint64_t busy_ns = 0;
    std::uint64_t idle_ns = 0;
    std::uint64_t tasks = 0;
    std::uint64_t chunks = 0;
    std::uint64_t steals = 0;
  };

  /// Snapshot of every worker's stats, indexed by worker. Relaxed reads
  /// — concurrent with running tasks, values are monotone but may lag.
  std::vector<WorkerStats> worker_stats() const;

  /// Submitted-but-not-yet-started tasks across all worker queues (a
  /// point-in-time snapshot; surfaced by the wire `stats` op so a
  /// serving backlog is observable in production).
  std::size_t queue_depth() const;

  /// Enqueue a task. CONTRACT: tasks must not let exceptions escape — a
  /// throw from a raw submitted task crosses the worker's noexcept
  /// boundary and std::terminates the process. Callers that need
  /// exception propagation must go through parallel_for /
  /// chunked_parallel_for, which wrap every body invocation, abandon the
  /// remaining chunks, and rethrow the first exception in the caller
  /// (contract tested in tests/test_parallel.cpp).
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished. Covers the submit()
  /// path only; bulk regions complete before run_bulk returns. Must not
  /// be called from inside a pool task.
  void wait_idle();

  /// The bulk-dispatch body: executes indices [begin, end) against the
  /// caller-owned context. A plain function pointer so the fast path
  /// never materialises a std::function.
  using BulkBody = void (*)(void* ctx, std::size_t begin, std::size_t end);

  /// Execute body over [0, count) in dynamically sized chunks, using
  /// the calling thread plus every idle worker. Blocks until all
  /// indices completed (or a body threw — remaining chunks are then
  /// abandoned and the first exception rethrown here). `min_grain`
  /// bounds the chunk size from below (0 = auto). Reentrant: may be
  /// called concurrently from several threads and from inside pool
  /// workers (nested regions run in parallel). Performs no heap
  /// allocation. Honors the caller's active CancelToken
  /// (cancel::current_token()): once the token expires, executors stop
  /// claiming chunks and run_bulk rethrows CancelledError — already
  /// running chunk bodies complete normally first, so per-index output
  /// slots are never left half-written.
  void run_bulk(std::size_t count, std::size_t min_grain, BulkBody body,
                void* ctx);

  /// Process-wide pool. Lazily constructed on first use, sized by
  /// set_global_thread_count() when that was called earlier, otherwise
  /// by MMLP_THREADS, otherwise to the hardware.
  static ThreadPool& global();

 private:
  // Padded so two workers bumping their own counters never share a
  // cache line; written only by the owning worker, read by anyone.
  struct alignas(64) WorkerCounters {
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> idle_ns{0};
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> chunks{0};
    std::atomic<std::uint64_t> steals{0};
  };

  /// One bulk parallel region. Lives on the run_bulk caller's stack;
  /// workers reach it through the pool's job list and are accounted in
  /// `attached` (guarded by sched_mutex_) so the caller can wait for
  /// every executor to leave before the frame dies.
  struct BulkJob {
    std::atomic<std::size_t> cursor{0};
    std::size_t count = 0;
    std::size_t min_grain = 1;
    BulkBody body = nullptr;
    void* ctx = nullptr;
    /// Rolling per-item cost estimate (ns), updated after each chunk;
    /// drives the adaptive chunk sizing. 0 = not yet measured.
    std::atomic<std::uint64_t> ns_per_item{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;  // first exception; guarded by error_mutex
    std::mutex error_mutex;
    int attached = 0;  // executors inside the claim loop; sched_mutex_
    /// Cooperative cancellation: snapshot of the run_bulk caller's
    /// active CancelToken (cancel::current_token()). Checked in the
    /// claim loop before each chunk, and re-installed around the body
    /// so workers and nested regions observe the caller's token. An
    /// expired token marks the job failed through the same
    /// poison-the-cursor path as a thrown body exception.
    const CancelToken* cancel = nullptr;
  };

  struct alignas(64) TaskQueue {
    mutable std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void worker_loop(std::size_t worker_index);
  bool try_run_task(std::size_t worker_index);
  std::size_t chunk_size(const BulkJob& job, std::size_t cur) const;
  /// Claim-and-execute chunks of `job` until it is drained or failed.
  void execute_chunks(BulkJob& job, WorkerCounters* counters);

  std::vector<WorkerCounters> counters_;
  std::vector<TaskQueue> queues_;
  std::vector<std::thread> workers_;

  // Scheduler state: job registry, sleep/wake and completion signals.
  std::mutex sched_mutex_;
  std::condition_variable cv_work_;  // workers sleeping for work
  std::condition_variable cv_done_;  // bulk callers + wait_idle callers
  std::vector<BulkJob*> jobs_;       // active bulk regions (registered order)
  std::atomic<std::size_t> queued_tasks_{0};  // submitted, not yet started
  std::atomic<std::size_t> in_flight_{0};     // submitted, not yet finished
  std::atomic<std::size_t> next_queue_{0};    // round-robin submit target
  bool stop_ = false;  // guarded by sched_mutex_
};

/// Execute fn(i) for i in [0, count) across the pool, in chunks.
/// Blocks until all iterations complete. fn must only write to
/// per-index state. `grain` bounds the chunk size from below (0 =
/// auto). If fn throws, remaining chunks are abandoned and the first
/// exception is rethrown in the caller, so a CheckError inside a
/// parallel loop stays catchable.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn,
                  ThreadPool* pool = nullptr, std::size_t grain = 0);

/// Serial fallback used by tests to compare against parallel runs.
void serial_for(std::size_t count, const std::function<void(std::size_t)>& fn);

/// Configure the worker count of ThreadPool::global() before its first
/// use (0 = MMLP_THREADS env, else hardware concurrency). Throws
/// CheckError when the global pool already exists with a different size
/// — the pool cannot be resized once workers hold references to it.
/// Used by the bench harness's --threads flag / MMLP_THREADS override.
void set_global_thread_count(std::size_t num_threads);

/// Chunked variant for loops whose bodies amortise per-worker scratch
/// (ball collectors, view/LP workspaces, materialization arenas):
/// body(begin, end) is called once per dynamically sized chunk. The
/// body must only write per-index state, exactly as with parallel_for;
/// count == 0 returns without invoking the body. On a pool of one
/// worker (or fewer) the body runs once over the whole range on the
/// calling thread. Exceptions thrown inside the body follow the
/// parallel_for contract: remaining chunks are abandoned and the first
/// exception is rethrown in the caller — including when the throw
/// happens in the last chunk or when count is smaller than the worker
/// count (tested edge cases in tests/test_parallel.cpp). The dispatch
/// itself performs zero heap allocations: the body is reached through
/// a function-pointer trampoline, never a std::function.
template <typename Body>
void chunked_parallel_for(std::size_t count, Body&& body,
                          ThreadPool* pool = nullptr) {
  if (count == 0) {
    return;
  }
  ThreadPool& target = pool != nullptr ? *pool : ThreadPool::global();
  if (target.size() <= 1 || count == 1) {
    // Serial fallback: one checkpoint before the body — long bodies are
    // expected to call cancel::checkpoint() themselves at natural
    // boundaries (the per-view-orbit LP loop does).
    cancel::checkpoint();
    body(std::size_t{0}, count);
    return;
  }
  using BodyType = std::remove_reference_t<Body>;
  target.run_bulk(
      count, /*min_grain=*/0,
      [](void* ctx, std::size_t begin, std::size_t end) {
        (*static_cast<BodyType*>(ctx))(begin, end);
      },
      const_cast<std::remove_const_t<BodyType>*>(&body));
}

}  // namespace mmlp
