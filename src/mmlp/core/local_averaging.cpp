// Theorem 3 / Section 5.1: solve every agent's view LP (9), then damp
// the ball average by β_j (eq. (10)). Two kernels over agent lists do
// all the work: solve_views (LP (9) for the listed agents) and gather
// (eq. (10) for the listed agents). A solve refreshes the session's
// memo (Session::refresh): with every agent dirty, solve_views runs over
// all agents — or the orbit representatives under dedup — and gather
// over all agents; otherwise over the dirty regions of the edits since
// the memo, which are empty on a repeat. Both kernels are chunked so
// each worker amortises one ViewScratch — view extraction, LP rows and
// the simplex tableau reuse the same memory across the agents of a
// chunk; the outputs are per-agent slots, so the result is identical to
// the serial run.
//
// With options.deduplicate the LP loop runs over view-orbit
// representatives instead of agents (view_class.hpp): the view LP is a
// pure function of the view's local structure, so agents in the same
// orbit provably solve the same LP, and the representative's solution
// is copied verbatim to every member.
//
// The eq. (10) accumulation is a parallel *gather*: agent j sums
// x^u_j over u ∈ V^j in ascending u, which is exactly the addition
// order of the former serial scatter loop (u ∈ V^j ⇔ j ∈ V^u, and the
// scatter visited u ascending) — so the parallel result is bitwise
// identical to the serial one for any thread count, and a spliced
// region bitwise identical to a full solve. A scatter with per-worker
// partial buffers could not offer that: merging per-chunk partial sums
// regroups the additions, which changes the rounding.
#include "mmlp/core/local_averaging.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "mmlp/core/solution.hpp"
#include "mmlp/engine/session.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/obs.hpp"
#include "mmlp/util/parallel.hpp"

namespace mmlp {

namespace {

using Balls = std::vector<std::vector<AgentId>>;

/// Solve the view LP (9) of the listed agents and write view_omega[u]
/// and view_x[u] in place. Every path (all agents, orbit
/// representatives, a dirty region) runs this one loop, so a view
/// solved on any path reproduces the same bits. Chunked so each task
/// leases one scratch workspace from the session pool.
void solve_views(engine::Session& session, const LocalAveragingOptions& options,
                 const Balls& balls, AgentList agents,
                 std::vector<double>& view_omega,
                 std::vector<std::vector<double>>& view_x) {
  const Instance& instance = session.instance();
  chunked_parallel_for(
      agents.size(),
      [&](std::size_t begin, std::size_t end) {
        obs::ObsSpan chunk("averaging.view_lp.chunk", "solver");
        auto scratch = session.view_scratch().acquire();
        LocalView view;
        for (std::size_t k = begin; k < end; ++k) {
          // One view LP per iteration: poll the cancel token here so
          // deadlines fire promptly even on a single-thread pool.
          cancel::checkpoint();
          const AgentId u = agents[k];
          const auto uu = static_cast<std::size_t>(u);
          extract_view_into(instance, u, options.R, balls[uu], view, *scratch);
          ViewLpSolution solution = solve_view_lp(view, options.lp, *scratch);
          view_omega[uu] = solution.omega;
          view_x[uu] = std::move(solution.x);
        }
      },
      session.pool());
}

/// eq. (10) for the listed agents j: x[j] is the damped average
/// (1/|V^j|) Σ_{u∈V^j} x^u_j. Agent j reads x^u_j for u ∈ V^j (u ∈ V^j
/// ⇔ j ∈ V^u — balls are symmetric — so j's local index inside V^u
/// exists and is found by binary search in the sorted ball) and adds in
/// ascending u, whatever the thread count or the agent list.
/// `beta_global` is read only by kBetaGlobal.
void gather(engine::Session& session, const LocalAveragingOptions& options,
            const Balls& balls, const std::vector<std::vector<double>>& view_x,
            const GrowthSets& sets, double beta_global, AgentList agents,
            std::vector<double>& x) {
  chunked_parallel_for(
      agents.size(),
      [&](std::size_t begin, std::size_t end) {
        obs::ObsSpan chunk("averaging.gather.chunk", "solver");
        for (std::size_t k = begin; k < end; ++k) {
          const AgentId j = agents[k];
          const auto jj = static_cast<std::size_t>(j);
          MMLP_CHECK_EQ(balls[jj].size(), view_x[jj].size());
          double sum = 0.0;
          for (const AgentId u : balls[jj]) {
            const auto& ball_u = balls[static_cast<std::size_t>(u)];
            const auto it = std::lower_bound(ball_u.begin(), ball_u.end(), j);
            MMLP_CHECK(it != ball_u.end() && *it == j);
            sum += view_x[static_cast<std::size_t>(u)]
                         [static_cast<std::size_t>(it - ball_u.begin())];
          }
          MMLP_CHECK_GT(sets.ball_size[jj], 0u);
          const double average =
              sum / static_cast<double>(sets.ball_size[jj]);
          switch (options.damping) {
            case AveragingDamping::kBetaPerAgent:
              x[jj] = sets.beta[jj] * average;
              break;
            case AveragingDamping::kBetaGlobal:
              x[jj] = beta_global * average;
              break;
            case AveragingDamping::kNone:
            case AveragingDamping::kNoneThenScale:
              x[jj] = average;
              break;
          }
        }
      },
      session.pool());
}

/// Everything the memoized state depends on. deduplicate is excluded on
/// purpose: the orbit copy is bitwise equal to dedup-off, so their memos
/// are interchangeable.
std::string averaging_fingerprint(const LocalAveragingOptions& options) {
  std::ostringstream key;
  key << "averaging|R=" << options.R
      << "|oblivious=" << options.collaboration_oblivious
      << "|damping=" << static_cast<int>(options.damping)
      << "|lp=" << fingerprint(options.lp);
  return key.str();
}

/// Splicing needs per-agent locality. kBetaGlobal couples every output
/// to the global β minimum and kNoneThenScale rescales through a global
/// feasibility factor — one edit can move every coordinate, so after
/// any edit those recompute every agent.
bool spliceable(const LocalAveragingOptions& options) {
  return options.damping == AveragingDamping::kBetaPerAgent ||
         options.damping == AveragingDamping::kNone;
}

/// Bring the memo of `options` up to the session's revision and return
/// it, still leased; `scalars` receives this run's scalars.
engine::Session::MemoLease refresh(engine::Session& session,
                                   const LocalAveragingOptions& options,
                                   AveragingScalars& scalars,
                                   IncrementalStats* stats) {
  MMLP_CHECK_GE(options.R, 1);
  const bool oblivious = options.collaboration_oblivious;
  const auto kernel = [&](engine::SolveMemo& memo,
                          const std::vector<AgentId>* dirty) {
    const Instance& instance = session.instance();
    const auto n = static_cast<std::size_t>(instance.num_agents());
    if (dirty != nullptr && !dirty->empty() && !spliceable(options)) {
      dirty = nullptr;
    }
    // Added agents are always inside the dirty region, so growing the
    // memoized vectors leaves no stale slot unrepaired.
    memo.x.resize(n, 0.0);
    memo.view_omega.resize(n, 0.0);
    memo.view_x.resize(n);
    scalars = AveragingScalars{};
    if (n == 0) {
      return IncrementalStats{};
    }
    // The agents whose outputs the view LPs of `dirty` reach; the same
    // log, so it names a region whenever `dirty` does.
    std::optional<std::vector<AgentId>> regather;
    if (dirty != nullptr) {
      regather = session.dirty_since(memo.revision, 2 * options.R, oblivious);
      MMLP_CHECK(regather.has_value());
    }
    const Balls& balls = session.balls(options.R, oblivious);
    // apply() repairs the growth sets in place; the gather reads β and
    // |V^j| from them directly.
    const GrowthSets& sets = session.growth_sets(options.R, oblivious);
    scalars.ratio_bound = sets.ratio_bound();
    scalars.peak_ball = sets.peak_ball;
    std::optional<obs::ObsSpan> splice_span;
    if (dirty != nullptr) {
      splice_span.emplace("averaging.incremental", "solver");
    }

    // Solve the local LP (9) of every dirty agent, or of every view
    // orbit's representative when every agent is dirty and dedup is on.
    const ViewClassIndex* orbits =
        dirty == nullptr && options.deduplicate
            ? &session.view_classes(options.R, oblivious)
            : nullptr;
    const AgentList solve = orbits != nullptr
                                ? AgentList{.list = &orbits->orbit_rep}
                                : AgentList{.list = dirty, .n = n};
    {
      obs::ObsSpan stage("averaging.view_lps", "solver");
      solve_views(session, options, balls, solve, memo.view_omega,
                  memo.view_x);
    }
    scalars.lp_solves = solve.size();
    if (orbits != nullptr) {
      scalars.dedup_ratio = orbits->dedup_ratio();
    }
    // Copy each representative's solution to the other members of its
    // orbit: they share its exact local structure, so the copy is the
    // bitwise per-agent result. With all-singleton orbits (typical on
    // random instances) there is nothing to copy.
    if (orbits != nullptr && orbits->num_orbits() < n) {
      obs::ObsSpan stage("averaging.scatter", "solver");
      chunked_parallel_for(
          n,
          [&](std::size_t begin, std::size_t end) {
            obs::ObsSpan chunk("averaging.scatter.chunk", "solver");
            for (std::size_t u = begin; u < end; ++u) {
              const auto rep = static_cast<std::size_t>(orbits->orbit_rep[
                  static_cast<std::size_t>(orbits->orbit_of[u])]);
              if (u != rep) {  // representatives already hold their solution
                memo.view_omega[u] = memo.view_omega[rep];
                memo.view_x[u] = memo.view_x[rep];
              }
            }
          },
          session.pool());
    }

    // β_min is a serial O(n) fold (the min must be global), paid only by
    // the damping rule that reads it, and only when every agent is
    // recomputed (a memo hit gathers nothing).
    double beta_global = 1.0;
    if (dirty == nullptr && options.damping == AveragingDamping::kBetaGlobal) {
      for (const double beta : sets.beta) {
        beta_global = std::min(beta_global, beta);
      }
    }
    const AgentList outputs{.list = regather.has_value() ? &*regather : nullptr,
                            .n = n};
    {
      obs::ObsSpan stage("averaging.gather", "solver");
      gather(session, options, balls, memo.view_x, sets, beta_global, outputs,
             memo.x);
    }
    if (dirty == nullptr &&
        options.damping == AveragingDamping::kNoneThenScale) {
      scale_to_feasible(instance, memo.x);
    }
    return IncrementalStats{
        .incremental = dirty != nullptr,
        .dirty_agents = dirty != nullptr ? dirty->size() : n,
        .resolved_agents = outputs.size()};
  };
  return session.refresh(averaging_fingerprint(options), options.R, oblivious,
                         kernel, stats);
}

}  // namespace

LocalAveragingResult local_averaging(const Instance& instance,
                                     const LocalAveragingOptions& options) {
  engine::Session session(instance);
  return local_averaging_with(session, options);
}

AveragingScalars local_averaging_into(engine::Session& session,
                                      const LocalAveragingOptions& options,
                                      std::vector<double>& x,
                                      IncrementalStats* stats) {
  AveragingScalars scalars;
  const engine::Session::MemoLease lease =
      refresh(session, options, scalars, stats);
  x = lease.memo->x;
  return scalars;
}

LocalAveragingResult local_averaging_with(engine::Session& session,
                                          const LocalAveragingOptions& options,
                                          IncrementalStats* stats) {
  LocalAveragingResult result;
  const engine::Session::MemoLease lease = refresh(
      session, options, static_cast<AveragingScalars&>(result), stats);
  result.x = lease.memo->x;
  result.view_omega = lease.memo->view_omega;
  const GrowthSets& sets =
      session.growth_sets(options.R, options.collaboration_oblivious);
  result.beta = sets.beta;
  result.ball_size = sets.ball_size;
  return result;
}

LocalAveragingResult local_averaging_incremental(
    engine::Session& session, const LocalAveragingOptions& options,
    IncrementalStats* stats) {
  return local_averaging_with(session, options, stats);
}

}  // namespace mmlp
