// eq. (2) in two shapes: safe_choice is the literal per-agent rule on
// explicit (I_v, |V_i|) inputs (the distributed path goes through it so
// the knowledge boundary stays visible); safe_solution is the fused
// whole-instance scan, which skips the per-entry invariant checks — the
// instance passed validate() at build, so a_iv > 0 and V_i ≠ ∅ hold.
#include "mmlp/core/safe.hpp"

#include <algorithm>
#include <limits>
#include <optional>

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

std::vector<double> safe_solution_impl(const Instance& instance,
                                       ThreadPool* pool) {
  obs::ObsSpan span("safe.solve", "core");
  const auto n = static_cast<std::size_t>(instance.num_agents());
  std::vector<double> x(n, 0.0);
  parallel_for(
      n, [&](std::size_t v) { x[v] = safe_choice_unchecked(
                                  instance, static_cast<AgentId>(v)); },
      pool);
  return x;
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
  return safe_solution_impl(instance, nullptr);
}

std::vector<double> safe_solution_with(engine::Session& session,
                                       const SafeOptions& /*options*/) {
  return safe_solution_impl(session.instance(), session.pool());
}

std::vector<double> safe_solution_incremental(engine::Session& session,
                                              const SafeOptions& options,
                                              IncrementalStats* stats) {
  const Instance& instance = session.instance();
  const auto n = static_cast<std::size_t>(instance.num_agents());
  // One memo regardless of the dedup knob, which safe ignores.
  engine::SolutionMemo& memo = session.solution_memo("safe");
  IncrementalStats accounting;

  // Radius 0: eq. (2) for agent u reads a_iu for i ∈ I_u and |V_i|, and
  // every delta's touched closure contains each agent one of those
  // inputs changed for (the edited agent; all members of a
  // membership-edited row).
  std::optional<std::vector<AgentId>> dirty;
  if (memo.valid) {
    dirty = session.dirty_since(memo.revision, 0, false);
  }
  const bool splice = memo.valid && dirty.has_value();
  // Invalidate before any in-place mutation: if the splice below is
  // abandoned mid-way (cancellation, a thrown check), the memo must not
  // pass itself off as a coherent solution — the next request then
  // falls back to a full solve instead of serving half-spliced bits.
  memo.valid = false;
  if (splice) {
    memo.x.resize(n, 0.0);  // added agents are always in the dirty set
    for (const AgentId v : *dirty) {
      memo.x[static_cast<std::size_t>(v)] =
          safe_choice_unchecked(instance, v);
    }
    accounting.incremental = true;
    accounting.dirty_agents = dirty->size();
    accounting.resolved_agents = dirty->size();
  } else {
    memo.x = safe_solution_with(session, options);
    accounting.dirty_agents = n;
    accounting.resolved_agents = n;
  }
  memo.revision = session.revision();
  memo.valid = true;
  if (stats != nullptr) {
    *stats = accounting;
  }
  return memo.x;
}

}  // namespace mmlp
