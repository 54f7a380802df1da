// View extraction (Section 5, Figure 2) tuned for the one-view-per-agent
// hot loop: extract_view_into scatters B_H(u,R) into a persistent
// global→local stamp map (all −1 between calls, reset via the ball
// itself), so membership tests V^u_i = V_i ∩ V^u and K^u ⊆-tests are
// O(1) per support entry. Candidate resources and parties are deduped
// with per-id byte stamps (all 0 between calls, reset via the candidate
// lists); parties are tested for full visibility before anything is
// sorted, so only the unique resources and the kept parties are sorted
// into ascending global order. Every buffer — id lists, CSR entry
// arrays, the LP rows, the simplex tableau — is reused across agents.
//
// The Figure 2 growth sets come from one row kernel (growth_rows),
// shared by compute_growth_sets and repair_growth_sets. It counts m_k by
// per-agent occurrence counts over the first member's ball and N_i by
// stamping the union's members, instead of materialising S_k and U_i.
#include "mmlp/core/view.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "mmlp/graph/bfs.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/parallel.hpp"
#include "mmlp/util/scratch_pool.hpp"
#include "mmlp/util/stamp_guard.hpp"

namespace mmlp {

namespace {

/// Size the stamp maps of `scratch` for `instance`. They only grow:
/// entries past the old size start blank, the rest are blank already.
void fit_stamps(const Instance& instance, ViewScratch& scratch) {
  const auto grow = [](auto& map, std::int32_t size, auto blank) {
    if (map.size() < static_cast<std::size_t>(size)) {
      map.resize(static_cast<std::size_t>(size), blank);
    }
  };
  grow(scratch.agent_local, instance.num_agents(), std::int32_t{-1});
  grow(scratch.resource_seen, instance.num_resources(), std::uint8_t{0});
  grow(scratch.party_seen, instance.num_parties(), std::uint8_t{0});
}

/// Append `id` to `list` the first time its byte stamp is seen, and set
/// the stamp; a StampGuard over `list` clears it again.
void push_once(std::vector<std::uint8_t>& seen, std::vector<std::int32_t>& list,
               std::int32_t id) {
  std::uint8_t& stamp = seen[static_cast<std::size_t>(id)];
  if (stamp == 0) {
    list.push_back(id);
    stamp = 1;
  }
}

}  // namespace

std::int32_t LocalView::local_index(AgentId global) const {
  const auto it = std::lower_bound(agents.begin(), agents.end(), global);
  if (it != agents.end() && *it == global) {
    return static_cast<std::int32_t>(it - agents.begin());
  }
  return -1;
}

void LocalView::clear() {
  center = -1;
  radius = 0;
  agents.clear();
  resources.clear();
  parties.clear();
  resource_offsets.assign(1, 0);
  resource_data.clear();
  party_offsets.assign(1, 0);
  party_data.clear();
}

void extract_view_into(const Instance& instance, AgentId u, std::int32_t radius,
                       const std::vector<AgentId>& ball_of_u, LocalView& view,
                       ViewScratch& scratch) {
  MMLP_CHECK(std::is_sorted(ball_of_u.begin(), ball_of_u.end()));
  view.clear();
  view.center = u;
  view.radius = radius;
  view.agents.assign(ball_of_u.begin(), ball_of_u.end());

  // Persistent global→local map: −1 outside the current ball. Lazily
  // sized once per instance; reset below by walking the ball again.
  fit_stamps(instance, scratch);
  auto& local_of = scratch.agent_local;
  bool center_seen = false;
  for (const AgentId v : view.agents) {
    MMLP_CHECK_MSG(v >= 0 && v < instance.num_agents(),
                   "ball of agent " << u << " contains invalid agent " << v);
    center_seen = center_seen || v == u;
  }
  MMLP_CHECK_MSG(center_seen, "ball of agent " << u << " does not contain it");
  // All ids validated; stamp under a guard so a CheckError below cannot
  // leave the persistent map dirty for the next extraction.
  const StampGuard guard(local_of, view.agents);
  for (std::size_t idx = 0; idx < view.agents.size(); ++idx) {
    local_of[static_cast<std::size_t>(view.agents[idx])] =
        static_cast<std::int32_t>(idx);
  }

  // I^u and the party candidates: ids touching any view agent, each
  // kept once via its byte stamp (reset by the guards on every exit).
  auto& resource_ids = scratch.resource_ids;
  auto& party_ids = scratch.party_ids;
  resource_ids.clear();
  party_ids.clear();
  const StampGuard resource_guard(scratch.resource_seen, resource_ids,
                                  std::uint8_t{0});
  const StampGuard party_guard(scratch.party_seen, party_ids,
                               std::uint8_t{0});
  for (const AgentId v : view.agents) {
    for (const Coef& entry : instance.agent_resources(v)) {
      push_once(scratch.resource_seen, resource_ids, entry.id);
    }
    for (const Coef& entry : instance.agent_parties(v)) {
      push_once(scratch.party_seen, party_ids, entry.id);
    }
  }

  // K^u keeps only fully visible parties; most candidates fail, so test
  // before sorting.
  for (const PartyId k : party_ids) {
    bool full = true;
    for (const Coef& entry : instance.party_support(k)) {
      if (local_of[static_cast<std::size_t>(entry.id)] < 0) {
        full = false;
        break;
      }
    }
    if (full) {
      view.parties.push_back(k);
    }
  }
  std::sort(resource_ids.begin(), resource_ids.end());
  std::sort(view.parties.begin(), view.parties.end());

  for (const ResourceId i : resource_ids) {
    const auto start = view.resource_data.size();
    for (const Coef& entry : instance.resource_support(i)) {
      const std::int32_t local = local_of[static_cast<std::size_t>(entry.id)];
      if (local >= 0) {
        view.resource_data.push_back({local, entry.value});
      }
    }
    MMLP_CHECK(view.resource_data.size() > start);  // i came from a view agent
    view.resources.push_back(i);
    view.resource_offsets.push_back(
        static_cast<std::int32_t>(view.resource_data.size()));
  }
  for (const PartyId k : view.parties) {
    for (const Coef& entry : instance.party_support(k)) {
      view.party_data.push_back(
          {local_of[static_cast<std::size_t>(entry.id)], entry.value});
    }
    view.party_offsets.push_back(
        static_cast<std::int32_t>(view.party_data.size()));
  }
  // The StampGuards restore the all-−1 / all-0 invariants on every exit
  // path.
}

LocalView extract_view(const Instance& instance, AgentId u, std::int32_t radius,
                       const std::vector<AgentId>& ball_of_u) {
  LocalView view;
  ViewScratch scratch;
  extract_view_into(instance, u, radius, ball_of_u, view, scratch);
  return view;
}

LocalView extract_view(const Instance& instance, const Hypergraph& h, AgentId u,
                       std::int32_t radius) {
  return extract_view(instance, u, radius, ball(h, u, radius));
}

void view_lp_into(const LocalView& view, LpProblem& out) {
  const auto num_agents = static_cast<std::int32_t>(view.agents.size());
  out.num_vars = num_agents + 1;  // x^u plus ω^u
  out.objective.assign(static_cast<std::size_t>(out.num_vars), 0.0);
  out.objective.back() = 1.0;

  const std::size_t num_rows = view.resources.size() + view.parties.size();
  if (out.rows.size() > num_rows) {
    out.rows.resize(num_rows);
  }
  while (out.rows.size() < num_rows) {
    out.rows.emplace_back();
  }

  std::size_t row_idx = 0;
  for (std::size_t r = 0; r < view.resources.size(); ++r, ++row_idx) {
    LpRow& row = out.rows[row_idx];
    row.vars.clear();
    row.coeffs.clear();
    row.sense = ConstraintSense::kLe;
    row.rhs = 1.0;
    for (const Coef& entry : view.resource_entries(r)) {
      row.vars.push_back(entry.id);
      row.coeffs.push_back(entry.value);
    }
  }
  for (std::size_t p = 0; p < view.parties.size(); ++p, ++row_idx) {
    LpRow& row = out.rows[row_idx];
    row.vars.clear();
    row.coeffs.clear();
    row.sense = ConstraintSense::kGe;
    row.rhs = 0.0;
    for (const Coef& entry : view.party_entries(p)) {
      row.vars.push_back(entry.id);
      row.coeffs.push_back(entry.value);
    }
    row.vars.push_back(num_agents);
    row.coeffs.push_back(-1.0);
  }
}

LpProblem view_lp(const LocalView& view) {
  LpProblem problem;
  view_lp_into(view, problem);
  return problem;
}

namespace {

ViewLpSolution solve_view_lp_impl(const LocalView& view, const LpProblem& lp_problem,
                                  const SimplexOptions& options,
                                  SimplexWorkspace* workspace) {
  ViewLpSolution solution;
  const LpResult lp = workspace != nullptr
                          ? solve_lp(lp_problem, options, *workspace)
                          : solve_lp(lp_problem, options);
  MMLP_CHECK_MSG(lp.status == LpStatus::kOptimal,
                 "view LP for agent " << view.center << " returned "
                                      << to_string(lp.status));
  solution.status = lp.status;
  solution.omega = lp.objective;
  solution.x.assign(lp.x.begin(),
                    lp.x.begin() + static_cast<std::ptrdiff_t>(view.agents.size()));
  return solution;
}

}  // namespace

ViewLpSolution solve_view_lp(const LocalView& view,
                             const SimplexOptions& options) {
  if (view.parties.empty()) {
    ViewLpSolution solution;
    solution.x.assign(view.agents.size(), 0.0);
    return solution;
  }
  return solve_view_lp_impl(view, view_lp(view), options, nullptr);
}

ViewLpSolution solve_view_lp(const LocalView& view,
                             const SimplexOptions& options,
                             ViewScratch& scratch) {
  if (view.parties.empty()) {
    ViewLpSolution solution;
    solution.x.assign(view.agents.size(), 0.0);
    return solution;
  }
  view_lp_into(view, scratch.lp);
  return solve_view_lp_impl(view, scratch.lp, options, &scratch.simplex);
}

namespace {

/// Refresh the scalar summaries of `sets` from its vectors.
void summarize(GrowthSets& sets) {
  sets.peak_ball = 0;
  for (const std::size_t size : sets.ball_size) {
    sets.peak_ball = std::max(sets.peak_ball, size);
  }
  sets.party_ratio = 1.0;
  for (std::size_t k = 0; k < sets.m_k.size(); ++k) {
    if (sets.m_k[k] == 0) {
      // Possible only in collaboration-oblivious mode (V_k need not be a
      // clique of H there); the benefit bound degenerates.
      sets.party_ratio = std::numeric_limits<double>::infinity();
      break;
    }
    sets.party_ratio =
        std::max(sets.party_ratio, static_cast<double>(sets.M_k[k]) /
                                       static_cast<double>(sets.m_k[k]));
  }
  sets.resource_ratio = 1.0;
  for (std::size_t i = 0; i < sets.N_i.size(); ++i) {
    MMLP_CHECK_GT(sets.n_i[i], 0u);
    sets.resource_ratio =
        std::max(sets.resource_ratio, static_cast<double>(sets.N_i[i]) /
                                          static_cast<double>(sets.n_i[i]));
  }
}

/// The rows of GrowthSets one kernel call recomputes.
struct GrowthRows {
  std::vector<PartyId> parties;      ///< m_k, M_k
  std::vector<ResourceId> resources;  ///< N_i, n_i
  std::vector<AgentId> agents;        ///< β_j (read after the rows above)
};

/// m_k = |∩_{j∈V_k} V^j| and M_k = max_{j∈V_k} |V^j|. S_k lies inside
/// the first member's ball, so only that ball is stamped: count[v]
/// counts the members whose ball holds v, and v ∈ S_k iff it reaches
/// |V_k| (supports hold distinct agents).
void party_row(const Instance& instance,
               const std::vector<std::vector<AgentId>>& balls, PartyId k,
               std::vector<std::int32_t>& count, GrowthSets& sets) {
  const CoefSpan support = instance.party_support(k);
  const auto& first_ball = balls[static_cast<std::size_t>(support.front().id)];
  const StampGuard guard(count, first_ball);
  for (const AgentId v : first_ball) {
    count[static_cast<std::size_t>(v)] = 0;
  }
  std::size_t max_ball = 0;
  for (const Coef& entry : support) {
    const auto& ball_j = balls[static_cast<std::size_t>(entry.id)];
    max_ball = std::max(max_ball, ball_j.size());
    for (const AgentId v : ball_j) {
      std::int32_t& c = count[static_cast<std::size_t>(v)];
      c += c >= 0 ? 1 : 0;
    }
  }
  const auto members = static_cast<std::int32_t>(support.size());
  std::size_t common = 0;
  for (const AgentId v : first_ball) {
    common += count[static_cast<std::size_t>(v)] == members ? 1 : 0;
  }
  sets.m_k[static_cast<std::size_t>(k)] = common;
  sets.M_k[static_cast<std::size_t>(k)] = max_ball;
}

/// N_i = |∪_{j∈V_i} V^j| (each member stamped once) and
/// n_i = min_{j∈V_i} |V^j|.
void resource_row(const Instance& instance,
                  const std::vector<std::vector<AgentId>>& balls, ResourceId i,
                  ViewScratch& scratch, GrowthSets& sets) {
  const CoefSpan support = instance.resource_support(i);
  auto& stamp = scratch.agent_local;
  auto& members = scratch.touched_agents;
  std::size_t bound = 0;
  for (const Coef& entry : support) {
    bound += balls[static_cast<std::size_t>(entry.id)].size();
  }
  members.resize(bound);
  const StampGuard guard(stamp, members);
  std::size_t count = 0;
  std::size_t min_ball = std::numeric_limits<std::size_t>::max();
  for (const Coef& entry : support) {
    const auto& ball_j = balls[static_cast<std::size_t>(entry.id)];
    min_ball = std::min(min_ball, ball_j.size());
    // Branch-free: every agent is written, first sightings advance.
    for (const AgentId v : ball_j) {
      std::int32_t& mark = stamp[static_cast<std::size_t>(v)];
      members[count] = v;
      count += mark < 0 ? 1 : 0;
      mark = 0;
    }
  }
  members.resize(count);
  sets.N_i[static_cast<std::size_t>(i)] = count;
  sets.n_i[static_cast<std::size_t>(i)] = min_ball;
}

/// The one growth-set kernel: recompute the party and resource rows of
/// `rows` in one chunked loop, then the β_j of `rows.agents` in a second
/// (β reads n_i/N_i). The vectors of `sets` must already have their
/// final sizes. Each row writes only its own entries, so the result is
/// independent of chunking and thread count.
void growth_rows(const Instance& instance,
                 const std::vector<std::vector<AgentId>>& balls,
                 const GrowthRows& rows, GrowthSets& sets, ThreadPool* pool,
                 ScratchPool<ViewScratch>& leases) {
  const std::size_t num_parties = rows.parties.size();
  chunked_parallel_for(
      num_parties + rows.resources.size(),
      [&](std::size_t begin, std::size_t end) {
        auto lease = leases.acquire();
        fit_stamps(instance, *lease);
        for (std::size_t r = begin; r < end; ++r) {
          if (r < num_parties) {
            party_row(instance, balls, rows.parties[r], lease->agent_local,
                      sets);
          } else {
            resource_row(instance, balls, rows.resources[r - num_parties],
                         *lease, sets);
          }
        }
      },
      pool);
  // β_j = min_{i∈I_j} n_i / N_i.
  chunked_parallel_for(
      rows.agents.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          const AgentId j = rows.agents[r];
          double beta = std::numeric_limits<double>::infinity();
          for (const Coef& entry : instance.agent_resources(j)) {
            const auto i = static_cast<std::size_t>(entry.id);
            beta = std::min(beta, static_cast<double>(sets.n_i[i]) /
                                      static_cast<double>(sets.N_i[i]));
          }
          sets.beta[static_cast<std::size_t>(j)] = beta;
        }
      },
      pool);
}

}  // namespace

GrowthSets compute_growth_sets(const Instance& instance,
                               const std::vector<std::vector<AgentId>>& balls,
                               ThreadPool* pool,
                               ScratchPool<ViewScratch>* scratch) {
  MMLP_CHECK_EQ(balls.size(), static_cast<std::size_t>(instance.num_agents()));
  GrowthSets sets;
  sets.ball_size.resize(balls.size());
  for (std::size_t j = 0; j < balls.size(); ++j) {
    sets.ball_size[j] = balls[j].size();
  }
  sets.m_k.resize(static_cast<std::size_t>(instance.num_parties()));
  sets.M_k.resize(sets.m_k.size());
  sets.N_i.resize(static_cast<std::size_t>(instance.num_resources()));
  sets.n_i.resize(sets.N_i.size());
  sets.beta.resize(balls.size());

  GrowthRows rows;
  rows.parties.resize(sets.m_k.size());
  std::iota(rows.parties.begin(), rows.parties.end(), PartyId{0});
  rows.resources.resize(sets.N_i.size());
  std::iota(rows.resources.begin(), rows.resources.end(), ResourceId{0});
  rows.agents.resize(balls.size());
  std::iota(rows.agents.begin(), rows.agents.end(), AgentId{0});
  ScratchPool<ViewScratch> local;
  growth_rows(instance, balls, rows, sets, pool,
              scratch != nullptr ? *scratch : local);
  summarize(sets);
  return sets;
}

void repair_growth_sets(const Instance& instance,
                        const std::vector<std::vector<AgentId>>& balls,
                        std::span<const AgentId> dirty, GrowthSets& sets,
                        ThreadPool* pool, ScratchPool<ViewScratch>* scratch) {
  const auto n = static_cast<std::size_t>(instance.num_agents());
  MMLP_CHECK_EQ(balls.size(), n);
  const auto old_parties = static_cast<PartyId>(sets.m_k.size());
  const auto old_resources = static_cast<ResourceId>(sets.N_i.size());
  MMLP_CHECK_MSG(sets.ball_size.size() <= n &&
                     old_parties <= instance.num_parties() &&
                     old_resources <= instance.num_resources(),
                 "repair_growth_sets: cached sets are larger than the "
                 "instance (entity removal needs a full recompute)");
  for (const AgentId d : dirty) {
    MMLP_CHECK_GE(d, 0);
    MMLP_CHECK_LT(static_cast<std::size_t>(d), n);
  }
  sets.ball_size.resize(n);
  for (const AgentId d : dirty) {
    sets.ball_size[static_cast<std::size_t>(d)] =
        balls[static_cast<std::size_t>(d)].size();
  }
  sets.m_k.resize(static_cast<std::size_t>(instance.num_parties()));
  sets.M_k.resize(sets.m_k.size());
  sets.N_i.resize(static_cast<std::size_t>(instance.num_resources()));
  sets.n_i.resize(sets.N_i.size());
  sets.beta.resize(n, 1.0);

  // The affected rows: new ones, and every row whose support holds a
  // dirty agent; β_j for the dirty agents (their I_j may have changed)
  // and for every member of a recomputed resource (n_i/N_i moved).
  // Each list is deduped with the stamps of one leased scratch.
  ScratchPool<ViewScratch> local;
  ScratchPool<ViewScratch>& leases = scratch != nullptr ? *scratch : local;
  GrowthRows rows;
  {
    auto lease = leases.acquire();
    fit_stamps(instance, *lease);
    const StampGuard party_guard(lease->party_seen, rows.parties,
                                 std::uint8_t{0});
    const StampGuard resource_guard(lease->resource_seen, rows.resources,
                                    std::uint8_t{0});
    for (PartyId k = old_parties; k < instance.num_parties(); ++k) {
      push_once(lease->party_seen, rows.parties, k);
    }
    for (ResourceId i = old_resources; i < instance.num_resources(); ++i) {
      push_once(lease->resource_seen, rows.resources, i);
    }
    for (const AgentId d : dirty) {
      for (const Coef& entry : instance.agent_parties(d)) {
        push_once(lease->party_seen, rows.parties, entry.id);
      }
      for (const Coef& entry : instance.agent_resources(d)) {
        push_once(lease->resource_seen, rows.resources, entry.id);
      }
    }
    std::vector<std::int32_t>& beta_seen = lease->agent_local;  // all −1
    const StampGuard agent_guard(beta_seen, rows.agents);
    const auto collect_agent = [&](AgentId j) {
      if (beta_seen[static_cast<std::size_t>(j)] < 0) {
        rows.agents.push_back(j);
        beta_seen[static_cast<std::size_t>(j)] = 0;
      }
    };
    for (const AgentId d : dirty) {
      collect_agent(d);
    }
    for (const ResourceId i : rows.resources) {
      for (const Coef& entry : instance.resource_support(i)) {
        collect_agent(entry.id);
      }
    }
  }
  growth_rows(instance, balls, rows, sets, pool, leases);
  summarize(sets);
}

}  // namespace mmlp
