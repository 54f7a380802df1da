// engine::Session — the long-lived per-instance solve context.
//
// The paper's algorithms are different answers to *the same* max-min LP
// instance, and everything expensive they derive from it is a pure
// function of (instance, radius, hypergraph mode): the communication
// graph H, the radius-R balls B_H(v, R), the Figure 2 growth sets, and
// the per-worker scratch workspaces (view extraction, simplex tableaus,
// materialization arenas). A Session binds to one Instance and caches
// all of it, so solve #2..#N on the same instance pay only for the
// algorithm proper — the request/response serving model the ROADMAP's
// "many requests, one hot session" path is built on (tools/mmlp_batch).
//
// Cache keys:
//   graph        : collaboration_oblivious           (2 slots)
//   balls        : (radius, collaboration_oblivious) (map; larger radii
//                  are built incrementally by expanding the largest
//                  cached smaller radius instead of re-running BFS)
//   growth sets  : (radius, collaboration_oblivious) (map; balls implied)
//   view orbits  : (radius, collaboration_oblivious) (map; balls implied)
//   scratch      : pooled, unkeyed — objects only donate capacity
//
// Mutation: a session constructed over a mutable Instance& additionally
// owns the update pipeline. apply(InstanceDelta) routes the edit into
// the instance and then *repairs* every cached structure surgically
// instead of dropping it: the communication graphs are rebuilt only on
// membership changes, cached balls are re-BFSed only inside the dirty
// region (repair_balls), growth sets recompute only the rows whose
// supports intersect it, and view-orbit partitions re-serialize only
// the dirty agents' views. Every cache entry carries the instance revision it
// was derived from and accessors assert the stamp before serving, so a
// stale structure can never reach a solver (mutating the instance
// behind the session's back trips the same assert). Deltas that remap
// agent ids (removals) fall back to dropping the caches wholesale —
// still correct, just cold. Safe, averaging and distributed averaging
// solve memo-first (refresh()): each keeps its previous answer, plus
// per-view state, in a memo keyed by an options fingerprint, and
// dirty_since() turns the edit log into the ball around everything
// edited after the memo's revision. Only that region is re-solved, so
// a repeat with no edits in between re-solves nothing; a full solve is
// the case where every agent is dirty (first solve, id remaps).
//
// Thread-safety: the cache accessors are serialised by an internal
// mutex, so concurrent solves on one session are safe; the scratch
// pools are lock-protected checkouts designed for exactly that. Cached
// references remain valid for the session's lifetime — repairs mutate
// entries in place — EXCEPT after an apply() that remapped agent ids,
// which invalidates previously returned references. apply() itself
// must not run concurrently with solves on the same session (it
// mutates the instance they read). Each solve memo is reached only
// through a blocking lease on its own mutex (MemoLease), so solves that
// share a memo run one after the other and solves with different memos
// overlap freely. The evaluation memo engine::solve splices into has
// its own mutex too, taken by try-lock: a solve that finds it busy
// evaluates statelessly. Results are bitwise identical to the
// stateless free functions.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mmlp/core/incremental.hpp"
#include "mmlp/core/instance.hpp"
#include "mmlp/core/solution.hpp"
#include "mmlp/core/view.hpp"
#include "mmlp/core/view_class.hpp"
#include "mmlp/dist/runtime.hpp"
#include "mmlp/graph/hypergraph.hpp"
#include "mmlp/util/cancel.hpp"
#include "mmlp/util/parallel.hpp"
#include "mmlp/util/scratch_pool.hpp"

namespace mmlp::engine {

struct SessionOptions {
  /// Worker threads for this session's parallel loops. 0 = share the
  /// process-global pool; N > 0 = the session owns a dedicated pool.
  /// Ignored when shared_pool is set.
  std::size_t threads = 0;
  /// Non-owning: run this session's parallel loops on an externally
  /// owned pool instead of creating one, so callers that keep several
  /// sessions alive at once (or a client that times its own work on
  /// the same workers) share one pool sized to the hardware rather than
  /// stacking a pool per session. The pool must outlive the session.
  ThreadPool* shared_pool = nullptr;
};

/// Monotonic cache/reuse counters. Snapshot before and after a solve to
/// attribute cache-build cost to the request that paid it (SolveResult's
/// timing breakdown does exactly that).
struct SessionStats {
  std::int64_t cache_hits = 0;    ///< graph/ball/growth lookups served warm
  std::int64_t cache_misses = 0;  ///< lookups that had to build the entry
  double cache_build_ms = 0.0;    ///< wall time spent building cache entries
  std::int64_t scratch_created = 0;  ///< scratch leases served by construction
  std::int64_t scratch_reused = 0;   ///< scratch leases served from the pool
  /// Times apply()'s integrity spot-check caught a diverged cache and
  /// dropped every cached structure (rebuilt lazily from the instance,
  /// which is ground truth). 0 in a correct build — the counter exists
  /// so a repair bug degrades to cold-cache performance, not to wrong
  /// answers, and is visible when it does.
  std::int64_t integrity_fallbacks = 0;
};

/// Per-worker scratch bundle for the distributed (LOCAL-model) solvers:
/// world materialization plus the view/LP workspace that runs inside the
/// materialized world.
struct DistScratch {
  MaterializeArena arena;
  LocalWorld world;
  ViewScratch view;
};

/// A solver's memoized answer: `x` is its output for instance revision
/// `revision` when `valid`. Averaging also keeps every agent's view-LP
/// solution x^u with its ω^u, because the eq. (10) gather reads x^u_j
/// for unchanged u ∈ V^j too; safe and distributed averaging leave
/// those empty. β and |V^j| are not kept: the growth sets hold them.
struct SolveMemo {
  bool valid = false;
  std::uint64_t revision = 0;
  std::vector<double> x;
  std::vector<double> view_omega;
  std::vector<std::vector<double>> view_x;
};

/// The last evaluation engine::solve ran on this session, kept so the
/// next one re-sums only the rows its changes reach (evaluate_spliced).
/// `state` matches instance revision `revision` when `valid`.
struct EvaluationMemo {
  bool valid = false;
  std::uint64_t revision = 0;
  EvaluationState state;
};

class Session {
 public:
  /// Binds to `instance` without copying it; the caller keeps the
  /// instance alive for the session's lifetime. A session constructed
  /// over a const instance cannot apply() deltas.
  explicit Session(const Instance& instance, SessionOptions options = {});

  /// Mutable binding: as above, plus apply() is available.
  explicit Session(Instance& instance, SessionOptions options = {});

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const Instance& instance() const { return *instance_; }

  /// The instance revision this session's caches are valid for (equals
  /// instance().revision() unless someone mutated the instance behind
  /// the session's back — which the cache accessors then assert on).
  std::uint64_t revision() const;

  /// What apply() did to the session's caches.
  struct ApplyReport {
    std::uint64_t revision = 0;  ///< instance revision after the delta
    bool structural = false;     ///< support membership changed
    bool rebuilt = false;        ///< ids remapped: caches dropped wholesale
    std::size_t touched_agents = 0;    ///< |touched| of the delta
    std::size_t repaired_entries = 0;  ///< cache entries surgically repaired
    /// Balls recomputed from scratch by the post-repair integrity
    /// spot-check (a few per cached entry).
    std::size_t verified_balls = 0;
    /// The spot-check found a cached ball diverging from a from-scratch
    /// recompute: every cache and the edit log were dropped (rebuilt
    /// set too), so the next solves run full but correct.
    bool integrity_fallback = false;
    double apply_ms = 0.0;
  };

  /// Apply a delta to the bound instance and repair every cached
  /// structure in place (see the header comment). Requires the mutable
  /// constructor. Must not run concurrently with solves.
  ApplyReport apply(const InstanceDelta& delta);

  /// The sorted set of agents within `radius` of anything edited after
  /// `since_revision` — the dirty region an incremental solver with that
  /// knowledge horizon must re-solve. Empty when nothing was edited.
  /// nullopt when an intervening delta remapped agent ids: the previous
  /// solution is not addressable any more and callers must fall back to
  /// a full solve.
  std::optional<std::vector<AgentId>> dirty_since(std::uint64_t since_revision,
                                                  std::int32_t radius,
                                                  bool collaboration_oblivious);

  /// Exclusive use of one solve memo for as long as the lease lives.
  struct MemoLease {
    SolveMemo* memo = nullptr;
    std::unique_lock<std::mutex> lock;
  };

  /// The memo-first protocol of safe, averaging and distributed
  /// averaging. Leases the memo keyed `fingerprint` (the solver picks
  /// the key; blocking, so solves sharing a memo take turns), polls the
  /// cancel token once so a request that waited out its deadline
  /// answers timeout, asks dirty_since for the agents within `radius`
  /// of the edits since the memo's revision, marks the memo invalid,
  /// and runs kernel(memo, dirty). `dirty` is null when every agent
  /// must be recomputed (no valid memo, or the edit log cannot name the
  /// region) and empty on a repeat with no edits; memo.revision still
  /// names the old revision while the kernel runs. The kernel returns
  /// its accounting, which lands in `*stats` when given. The memo is
  /// then stamped with the session revision and valid again; a kernel
  /// that throws leaves it invalid, so the next request recomputes
  /// every agent. Returns the lease, still held.
  template <typename Kernel>
  MemoLease refresh(const std::string& fingerprint, std::int32_t radius,
                    bool collaboration_oblivious, Kernel&& kernel,
                    IncrementalStats* stats) {
    MemoLease lease = lease_memo(fingerprint);
    cancel::checkpoint();
    SolveMemo& memo = *lease.memo;
    std::optional<std::vector<AgentId>> dirty;
    if (memo.valid) {
      dirty = dirty_since(memo.revision, radius, collaboration_oblivious);
    }
    memo.valid = false;
    const IncrementalStats accounting =
        kernel(memo, dirty.has_value() ? &*dirty : nullptr);
    memo.revision = revision();
    memo.valid = true;
    if (stats != nullptr) {
      *stats = accounting;
    }
    return lease;
  }

  /// Exclusive use of the evaluation memo for as long as the lease
  /// lives. Taken by try-lock: when another solve holds the memo, the
  /// lease is empty (memo == nullptr) and the caller evaluates
  /// statelessly instead of waiting.
  struct EvaluationLease {
    EvaluationMemo* memo = nullptr;
    std::unique_lock<std::mutex> lock;
  };
  EvaluationLease try_evaluation_memo();

  /// The pool parallel loops should run on: the shared pool when the
  /// session was constructed with one, else the session-owned pool, or
  /// nullptr meaning "use ThreadPool::global()" (the convention of
  /// parallel_for's pool parameter).
  ThreadPool* pool() const {
    return options_.shared_pool != nullptr ? options_.shared_pool
                                           : owned_pool_.get();
  }

  /// Worker count of the effective pool.
  std::size_t thread_count() const;

  /// Communication hypergraph H (Section 1.4), cached per mode.
  const Hypergraph& graph(bool collaboration_oblivious);

  /// B_H(v, radius) for every agent, cached per (radius, mode). A miss
  /// with a smaller same-mode radius already cached is served
  /// incrementally: the largest cached balls are expanded level by level
  /// (graph/bfs expand_balls) instead of re-running BFS from scratch —
  /// the result is element-for-element identical either way.
  const std::vector<std::vector<AgentId>>& balls(std::int32_t radius,
                                                 bool collaboration_oblivious);

  /// The Figure 2 growth sets for the balls of (radius, mode), cached.
  const GrowthSets& growth_sets(std::int32_t radius,
                                bool collaboration_oblivious);

  /// The exact view-orbit partition for (radius, mode), cached. Built
  /// from the cached balls; the dedup solve paths of
  /// local_averaging_with / distributed_local_averaging_with key their
  /// one-solve-per-orbit loops on it. Mutable-bound sessions build it
  /// with retained exact keys so apply() can repair it surgically.
  const ViewClassIndex& view_classes(std::int32_t radius,
                                     bool collaboration_oblivious);

  /// Per-worker scratch pools (see ScratchPool): view extraction + LP
  /// solving + the growth-set kernel's stamp maps, and the distributed
  /// solvers' materialization bundles.
  ScratchPool<ViewScratch>& view_scratch() { return view_scratch_; }
  ScratchPool<DistScratch>& dist_scratch() { return dist_scratch_; }

  /// Counter snapshot (scratch numbers are pulled from the pools).
  SessionStats stats() const;

  /// TEST HOOK: overwrite agent `agent`'s cached radius-`radius` ball
  /// with garbage (the entry must be cached). Exists so tests can prove
  /// the apply() integrity fallback actually fires and so the bench
  /// recovery sweep can price it; nothing else may call it.
  void corrupt_cached_ball_for_test(std::int32_t radius,
                                    bool collaboration_oblivious,
                                    AgentId agent);

 private:
  using Key = std::pair<std::int32_t, bool>;  // (radius, oblivious)

  /// A cache entry plus the instance revision it was derived from;
  /// accessors assert the stamp before serving.
  template <typename T>
  struct Stamped {
    T value;
    std::uint64_t revision = 0;
  };

  /// One applied delta, as dirty_since needs it.
  struct EditRecord {
    std::uint64_t revision = 0;
    std::vector<AgentId> touched;
  };

  /// A memo slot: the memo and the mutex its leases hold.
  struct MemoSlot {
    std::mutex mutex;
    SolveMemo memo;
  };

  void assert_fresh(std::uint64_t entry_revision) const;
  MemoLease lease_memo(const std::string& fingerprint);
  /// Empty the edit log and raise its floor to the current edit, so
  /// every memo recomputes every agent on its next solve.
  void forget_log_locked(std::uint64_t revision);
  void prune_log_locked();
  /// Spot-check the repaired ball caches against from-scratch BFS;
  /// true = a divergence was found and every cache/memo was dropped.
  bool verify_integrity_locked(ApplyReport& report);

  const Instance* instance_;
  Instance* mutable_instance_ = nullptr;
  SessionOptions options_;
  std::unique_ptr<ThreadPool> owned_pool_;

  mutable std::mutex mutex_;
  std::uint64_t revision_ = 0;  // instance revision the caches match
  /// Edit log for dirty_since. Pruned on every apply: records no valid
  /// memo can query any more are dropped, and a hard cap bounds the
  /// log on sessions whose memos go stale — log_floor_ records the
  /// highest pruned revision (or the last edit that remapped ids or
  /// failed the integrity check), below which dirty_since reports
  /// nullopt (the caller then recomputes every agent).
  std::vector<EditRecord> log_;
  std::uint64_t log_floor_ = 0;
  std::optional<Stamped<Hypergraph>> graph_[2];  // [collaboration_oblivious]
  std::map<Key, Stamped<std::vector<std::vector<AgentId>>>> balls_;
  std::map<Key, Stamped<GrowthSets>> growth_;
  std::map<Key, Stamped<ViewClassIndex>> view_classes_;
  std::map<std::string, std::unique_ptr<MemoSlot>> memos_;
  std::mutex evaluation_mutex_;  // guards evaluation_memo_ (own lock: try-locked)
  EvaluationMemo evaluation_memo_;
  std::int64_t cache_hits_ = 0;
  std::int64_t cache_misses_ = 0;
  double cache_build_ms_ = 0.0;
  std::int64_t integrity_fallbacks_ = 0;

  ScratchPool<ViewScratch> view_scratch_;
  ScratchPool<DistScratch> dist_scratch_;
};

}  // namespace mmlp::engine
