// Theorem 3 / Section 5.1: solve every agent's view LP (9), then damp
// the ball average by β_j (eq. (10)). Two kernels over agent subsets do
// all the work: solve_views (LP (9) for the listed agents) and gather
// (eq. (10) for the listed agents). The full solve lists every agent,
// dedup lists the orbit representatives, and the incremental splice
// lists the dirty regions. Both kernels are chunked so each worker
// amortises one ViewScratch — view extraction, LP rows and the simplex
// tableau reuse the same memory across the agents of a chunk; the
// outputs are per-agent slots, so the result is identical to the
// serial run.
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
// identical to the serial one for any thread count. A scatter with
// per-worker partial buffers could not offer that: merging per-chunk
// partial sums regroups the additions, which changes the rounding.
//
// The implementation lives in local_averaging_impl: every expensive
// derived structure (communication graph, balls, growth sets, view
// orbits, worker scratch) is pulled from an engine::Session, and the
// classic free function simply runs against a session that lives for
// one call.
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

/// Solve the view LP (9) of the `count` agents u = agent_at(0..count-1)
/// and write view_omega[u] and view_x[u] in place. Every caller (all
/// agents, orbit representatives, a dirty region) runs this one loop,
/// so a view solved on any path reproduces the same bits. Chunked so
/// each task leases one scratch workspace from the session pool.
template <typename AgentAt>
void solve_views(engine::Session& session, const LocalAveragingOptions& options,
                 const Balls& balls, std::size_t count, AgentAt agent_at,
                 std::vector<double>& view_omega,
                 std::vector<std::vector<double>>& view_x) {
  const Instance& instance = session.instance();
  chunked_parallel_for(
      count,
      [&](std::size_t begin, std::size_t end) {
        obs::ObsSpan chunk("averaging.view_lp.chunk", "solver");
        auto scratch = session.view_scratch().acquire();
        LocalView view;
        for (std::size_t k = begin; k < end; ++k) {
          // One view LP per iteration: poll the cancel token here so
          // deadlines fire promptly even on a single-thread pool.
          cancel::checkpoint();
          const AgentId u = agent_at(k);
          const auto uu = static_cast<std::size_t>(u);
          extract_view_into(instance, u, options.R, balls[uu], view, *scratch);
          ViewLpSolution solution = solve_view_lp(view, options.lp, *scratch);
          view_omega[uu] = solution.omega;
          view_x[uu] = std::move(solution.x);
        }
      },
      session.pool());
}

/// eq. (10) for the `count` agents j = agent_at(0..count-1): x[j] is
/// the damped average (1/|V^j|) Σ_{u∈V^j} x^u_j. Agent j reads x^u_j
/// for u ∈ V^j (u ∈ V^j ⇔ j ∈ V^u — balls are symmetric — so j's local
/// index inside V^u exists and is found by binary search in the sorted
/// ball) and adds in ascending u, whatever the thread count or the
/// agent subset. `beta_global` is read only by kBetaGlobal.
template <typename AgentAt>
void gather(engine::Session& session, const LocalAveragingOptions& options,
            const Balls& balls, const std::vector<std::vector<double>>& view_x,
            const GrowthSets& sets, double beta_global, std::size_t count,
            AgentAt agent_at, std::vector<double>& x) {
  chunked_parallel_for(
      count,
      [&](std::size_t begin, std::size_t end) {
        obs::ObsSpan chunk("averaging.gather.chunk", "solver");
        for (std::size_t k = begin; k < end; ++k) {
          const AgentId j = agent_at(k);
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

/// The full algorithm; `keep_view_x` (optional) receives every agent's
/// view-LP solution so an incremental memo can splice later edits.
LocalAveragingResult local_averaging_impl(
    engine::Session& session, const LocalAveragingOptions& options,
    std::vector<std::vector<double>>* keep_view_x) {
  MMLP_CHECK_GE(options.R, 1);
  const Instance& instance = session.instance();
  const auto n = static_cast<std::size_t>(instance.num_agents());
  LocalAveragingResult result;
  result.x.assign(n, 0.0);
  if (n == 0) {
    return result;
  }

  const Balls& balls =
      session.balls(options.R, options.collaboration_oblivious);
  const auto every_agent = [](std::size_t k) {
    return static_cast<AgentId>(k);
  };

  // Solve the local LP (9) — once per agent, or once per view orbit
  // when deduplicating, then copy each representative's solution to
  // the other members of its orbit: they share its exact local
  // structure, so the copy is the bitwise per-agent result.
  std::vector<std::vector<double>> view_x(n);
  result.view_omega.assign(n, 0.0);
  const ViewClassIndex* orbits = nullptr;
  {
    obs::ObsSpan stage("averaging.view_lps", "solver");
    if (!options.deduplicate) {
      result.lp_solves = n;
      solve_views(session, options, balls, n, every_agent, result.view_omega,
                  view_x);
    } else {
      orbits =
          &session.view_classes(options.R, options.collaboration_oblivious);
      const std::vector<AgentId>& reps = orbits->orbit_rep;
      result.lp_solves = reps.size();
      result.dedup_ratio = orbits->dedup_ratio();
      solve_views(
          session, options, balls, reps.size(),
          [&](std::size_t k) { return reps[k]; }, result.view_omega, view_x);
    }
  }
  // With all-singleton orbits (typical on random instances) every agent
  // is its own representative and there is nothing to copy.
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
              result.view_omega[u] = result.view_omega[rep];
              view_x[u] = view_x[rep];
            }
          }
        },
        session.pool());
  }

  // β_j from the growth sets (Figure 2 machinery).
  const GrowthSets& sets =
      session.growth_sets(options.R, options.collaboration_oblivious);
  result.beta = sets.beta;
  result.ball_size = sets.ball_size;
  result.ratio_bound = sets.ratio_bound();
  result.peak_ball = sets.peak_ball;

  // β_min is a serial O(n) fold (the min must be global), paid only by
  // the damping rule that reads it.
  double beta_global = 1.0;
  if (options.damping == AveragingDamping::kBetaGlobal) {
    for (const double beta : sets.beta) {
      beta_global = std::min(beta_global, beta);
    }
  }
  {
    obs::ObsSpan stage("averaging.gather", "solver");
    gather(session, options, balls, view_x, sets, beta_global, n, every_agent,
           result.x);
  }
  if (options.damping == AveragingDamping::kNoneThenScale) {
    scale_to_feasible(instance, result.x);
  }
  if (keep_view_x != nullptr) {
    *keep_view_x = std::move(view_x);
  }
  return result;
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
/// feasibility factor — one edit can move every coordinate, so those
/// run the full algorithm.
bool spliceable(const LocalAveragingOptions& options) {
  return options.damping == AveragingDamping::kBetaPerAgent ||
         options.damping == AveragingDamping::kNone;
}

/// Bring the memo of `options` up to the session's revision: a full run
/// when it is invalid or the edit log cannot name the dirty region,
/// else a splice of the dirty region. Requires spliceable(options);
/// `stats` (optional) receives the accounting.
engine::AveragingMemo& refresh_memo(engine::Session& session,
                                    const LocalAveragingOptions& options,
                                    IncrementalStats* stats) {
  MMLP_CHECK_GE(options.R, 1);
  const Instance& instance = session.instance();
  const auto n = static_cast<std::size_t>(instance.num_agents());

  engine::AveragingMemo& memo =
      session.averaging_memo(averaging_fingerprint(options));
  std::optional<std::vector<AgentId>> dirty_view;
  std::optional<std::vector<AgentId>> dirty_gather;
  if (memo.valid) {
    dirty_view = session.dirty_since(memo.revision, options.R,
                                     options.collaboration_oblivious);
    if (dirty_view.has_value()) {
      dirty_gather = session.dirty_since(memo.revision, 2 * options.R,
                                         options.collaboration_oblivious);
    }
  }
  if (!memo.valid || !dirty_view.has_value()) {
    memo.valid = false;
    LocalAveragingResult full =
        local_averaging_impl(session, options, &memo.view_x);
    memo.x = std::move(full.x);
    memo.view_omega = std::move(full.view_omega);
    memo.scalars = full;
    memo.revision = session.revision();
    memo.valid = true;
    if (stats != nullptr) {
      *stats = IncrementalStats{.dirty_agents = n, .resolved_agents = n};
    }
    return memo;
  }

  // Invalidate before any in-place mutation: an abandoned splice
  // (cancellation, deadline, a thrown check) must leave the memo marked
  // stale so the next request falls back to a full solve instead of
  // serving half-spliced state.
  memo.valid = false;
  const Balls& balls =
      session.balls(options.R, options.collaboration_oblivious);
  // The growth sets were repaired in place by apply(); the gather reads
  // β and |V^j| from them directly.
  const GrowthSets& sets =
      session.growth_sets(options.R, options.collaboration_oblivious);
  // Added agents are always inside the dirty region, so growing the
  // memoized vectors leaves no stale slot unrepaired.
  memo.view_x.resize(n);
  memo.view_omega.resize(n, 0.0);
  memo.x.resize(n, 0.0);

  // Re-solve the view LPs of B(T, R) with the full path's own loop, so
  // a re-solved unchanged view reproduces its previous bits exactly;
  // then re-gather eq. (10) over B(T, 2R) in the same ascending-u
  // addition order, over the spliced view solutions. Spliceable damping
  // never reads beta_global.
  const std::vector<AgentId>& resolve = *dirty_view;
  const std::vector<AgentId>& regather = *dirty_gather;
  obs::ObsSpan incremental_span("averaging.incremental", "solver");
  solve_views(
      session, options, balls, resolve.size(),
      [&](std::size_t k) { return resolve[k]; }, memo.view_omega, memo.view_x);
  gather(
      session, options, balls, memo.view_x, sets, 1.0, regather.size(),
      [&](std::size_t k) { return regather[k]; }, memo.x);

  memo.scalars = AveragingScalars{.ratio_bound = sets.ratio_bound(),
                                  .peak_ball = sets.peak_ball,
                                  .lp_solves = resolve.size()};
  memo.revision = session.revision();
  memo.valid = true;
  if (stats != nullptr) {
    *stats = IncrementalStats{.incremental = true,
                              .dirty_agents = resolve.size(),
                              .resolved_agents = regather.size()};
  }
  return memo;
}

}  // namespace

LocalAveragingResult local_averaging(const Instance& instance,
                                     const LocalAveragingOptions& options) {
  engine::Session session(instance);
  return local_averaging_with(session, options);
}

LocalAveragingResult local_averaging_with(engine::Session& session,
                                          const LocalAveragingOptions& options) {
  return local_averaging_impl(session, options, nullptr);
}

LocalAveragingResult local_averaging_incremental(
    engine::Session& session, const LocalAveragingOptions& options,
    IncrementalStats* stats) {
  if (!spliceable(options)) {
    if (stats != nullptr) {
      const auto n = static_cast<std::size_t>(session.instance().num_agents());
      *stats = IncrementalStats{.dirty_agents = n, .resolved_agents = n};
    }
    return local_averaging_impl(session, options, nullptr);
  }
  const engine::AveragingMemo& memo = refresh_memo(session, options, stats);
  LocalAveragingResult result;
  static_cast<AveragingScalars&>(result) = memo.scalars;
  result.x = memo.x;
  result.view_omega = memo.view_omega;
  const GrowthSets& sets =
      session.growth_sets(options.R, options.collaboration_oblivious);
  result.beta = sets.beta;
  result.ball_size = sets.ball_size;
  return result;
}

AveragingScalars local_averaging_incremental_into(
    engine::Session& session, const LocalAveragingOptions& options,
    std::vector<double>& x, IncrementalStats* stats) {
  if (!spliceable(options)) {
    LocalAveragingResult full =
        local_averaging_incremental(session, options, stats);
    x = std::move(full.x);
    return full;
  }
  const engine::AveragingMemo& memo = refresh_memo(session, options, stats);
  x = memo.x;
  return memo.scalars;
}

}  // namespace mmlp
