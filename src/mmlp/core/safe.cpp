// eq. (2) in two shapes: safe_choice is the literal per-agent rule on
// explicit (I_v, |V_i|) inputs (the distributed path goes through it so
// the knowledge boundary stays visible); safe_choices is the fused scan
// over an agent list (every agent for safe_solution, the dirty set of a
// session memo refresh), which skips the per-entry invariant checks —
// the instance passed validate() at build, so a_iv > 0 and V_i ≠ ∅ hold.
#include "mmlp/core/safe.hpp"

#include <algorithm>
#include <limits>

#include "mmlp/engine/session.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/obs.hpp"
#include "mmlp/util/parallel.hpp"

namespace mmlp {

namespace {

double safe_choice_unchecked(const Instance& instance, AgentId v) {
  double choice = std::numeric_limits<double>::infinity();
  for (const Coef& entry : instance.agent_resources(v)) {
    const auto size =
        static_cast<double>(instance.resource_support_size(entry.id));
    choice = std::min(choice, 1.0 / (entry.value * size));
  }
  return choice;
}

/// eq. (2) for the listed agents, written into x in place.
void safe_choices(const Instance& instance, AgentList agents,
                  std::vector<double>& x, ThreadPool* pool) {
  obs::ObsSpan span("safe.solve", "core");
  parallel_for(
      agents.size(),
      [&](std::size_t k) {
        const AgentId v = agents[k];
        x[static_cast<std::size_t>(v)] = safe_choice_unchecked(instance, v);
      },
      pool);
}

}  // namespace

double safe_choice(CoefSpan agent_resources,
                   std::span<const std::size_t> support_sizes) {
  MMLP_CHECK(!agent_resources.empty());
  MMLP_CHECK_EQ(agent_resources.size(), support_sizes.size());
  double choice = std::numeric_limits<double>::infinity();
  for (std::size_t idx = 0; idx < agent_resources.size(); ++idx) {
    const double a = agent_resources[idx].value;
    const auto size = static_cast<double>(support_sizes[idx]);
    MMLP_CHECK_GT(a, 0.0);
    MMLP_CHECK_GT(size, 0.0);
    choice = std::min(choice, 1.0 / (a * size));
  }
  return choice;
}

std::vector<double> safe_solution(const Instance& instance) {
  const auto n = static_cast<std::size_t>(instance.num_agents());
  std::vector<double> x(n, 0.0);
  safe_choices(instance, AgentList{.n = n}, x, nullptr);
  return x;
}

std::vector<double> safe_solution_with(engine::Session& session,
                                       const SafeOptions& /*options*/,
                                       IncrementalStats* stats) {
  // Radius 0: eq. (2) for agent u reads a_iu for i ∈ I_u and |V_i|, and
  // every delta's touched closure contains each agent one of those
  // inputs changed for (the edited agent; all members of a
  // membership-edited row). One memo regardless of the dedup knob,
  // which safe ignores.
  const auto kernel = [&](engine::SolveMemo& memo,
                          const std::vector<AgentId>* dirty) {
    const auto n = static_cast<std::size_t>(session.instance().num_agents());
    memo.x.resize(n, 0.0);  // added agents are always in the dirty set
    const AgentList agents{.list = dirty, .n = n};
    safe_choices(session.instance(), agents, memo.x, session.pool());
    return IncrementalStats{.incremental = dirty != nullptr,
                            .dirty_agents = agents.size(),
                            .resolved_agents = agents.size()};
  };
  return session.refresh("safe", 0, false, kernel, stats).memo->x;
}

}  // namespace mmlp
