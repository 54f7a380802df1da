#include "mmlp/core/solution.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <ranges>

#include "mmlp/util/check.hpp"

namespace mmlp {

namespace {

/// The benefit/load kernel: Σ coef·x_v over one CSR row, added in CSR
/// order. Every row sum in this file goes through it, so a row summed
/// again by evaluate_spliced has the bits of the full pass.
double row_sum(CoefSpan row, const std::vector<double>& x) {
  double sum = 0.0;
  for (const Coef& entry : row) {
    sum += entry.value * x[static_cast<std::size_t>(entry.id)];
  }
  return sum;
}

using Support = CoefSpan (Instance::*)(std::int32_t) const;

/// sums[r] = the kernel over support(r), for every row id r in `rows`.
template <Support support, typename Rows>
void sum_rows(const Instance& instance, const std::vector<double>& x,
              const Rows& rows, std::vector<double>& sums) {
  for (const std::int32_t r : rows) {
    sums[static_cast<std::size_t>(r)] = row_sum((instance.*support)(r), x);
  }
}

/// ω/argmin over the benefits, max load/argmax over the loads, and the
/// worst violation over the loads and then −x — the reduction every
/// evaluation path ends in.
Evaluation reduce(const std::vector<double>& benefits,
                  const std::vector<double>& loads,
                  const std::vector<double>& x) {
  Evaluation eval;
  eval.omega = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < benefits.size(); ++k) {
    if (benefits[k] < eval.omega) {
      eval.omega = benefits[k];
      eval.argmin_party = static_cast<PartyId>(k);
    }
  }
  double max_load = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < loads.size(); ++i) {
    if (loads[i] > max_load) {
      max_load = loads[i];
      eval.argmax_resource = static_cast<ResourceId>(i);
    }
    eval.worst_violation = std::max(eval.worst_violation, loads[i] - 1.0);
  }
  for (const double value : x) {
    eval.worst_violation = std::max(eval.worst_violation, -value);
  }
  return eval;
}

/// The full pass: every row summed into `benefits` / `loads`, reduced.
Evaluation evaluate_all(const Instance& instance, const std::vector<double>& x,
                        std::vector<double>& benefits,
                        std::vector<double>& loads) {
  MMLP_CHECK_EQ(x.size(), static_cast<std::size_t>(instance.num_agents()));
  benefits.resize(static_cast<std::size_t>(instance.num_parties()));
  loads.resize(static_cast<std::size_t>(instance.num_resources()));
  sum_rows<&Instance::party_support>(
      instance, x, std::views::iota(PartyId{0}, instance.num_parties()),
      benefits);
  sum_rows<&Instance::resource_support>(
      instance, x, std::views::iota(ResourceId{0}, instance.num_resources()),
      loads);
  return reduce(benefits, loads, x);
}

/// Append to `rows` each row of `incident` not yet marked, marking it.
void collect_rows(CoefSpan incident, std::vector<char>& marked,
                  std::vector<std::int32_t>& rows) {
  for (const Coef& entry : incident) {
    char& mark = marked[static_cast<std::size_t>(entry.id)];
    if (mark == 0) {
      mark = 1;
      rows.push_back(entry.id);
    }
  }
}

}  // namespace

double party_benefit(const Instance& instance, const std::vector<double>& x,
                     PartyId k) {
  MMLP_CHECK_EQ(x.size(), static_cast<std::size_t>(instance.num_agents()));
  return row_sum(instance.party_support(k), x);
}

double resource_load(const Instance& instance, const std::vector<double>& x,
                     ResourceId i) {
  MMLP_CHECK_EQ(x.size(), static_cast<std::size_t>(instance.num_agents()));
  return row_sum(instance.resource_support(i), x);
}

double objective_omega(const Instance& instance, const std::vector<double>& x) {
  double omega = std::numeric_limits<double>::infinity();
  for (PartyId k = 0; k < instance.num_parties(); ++k) {
    omega = std::min(omega, party_benefit(instance, x, k));
  }
  return omega;
}

Evaluation evaluate(const Instance& instance, const std::vector<double>& x) {
  return evaluate(instance, x, nullptr);
}

Evaluation evaluate(const Instance& instance, const std::vector<double>& x,
                    std::vector<double>* party_benefits) {
  std::vector<double> own_benefits;
  std::vector<double> loads;
  return evaluate_all(instance, x,
                      party_benefits != nullptr ? *party_benefits : own_benefits,
                      loads);
}

Evaluation evaluate(const Instance& instance, const std::vector<double>& x,
                    EvaluationState& state) {
  const Evaluation eval =
      evaluate_all(instance, x, state.party_benefit, state.resource_load);
  state.x = x;
  return eval;
}

std::optional<Evaluation> evaluate_spliced(const Instance& instance,
                                           const std::vector<double>& x,
                                           std::span<const AgentId> coef_dirty,
                                           EvaluationState& state) {
  const auto n = static_cast<std::size_t>(instance.num_agents());
  const auto num_parties = static_cast<std::size_t>(instance.num_parties());
  const auto num_resources = static_cast<std::size_t>(instance.num_resources());
  MMLP_CHECK_EQ(x.size(), n);
  if (state.x.size() != n || state.party_benefit.size() != num_parties ||
      state.resource_load.size() != num_resources) {
    return std::nullopt;
  }

  // Agents whose x bits moved, ascending.
  const std::size_t limit = n / 4;
  std::vector<AgentId> changed;
  for (std::size_t v = 0; v < n; ++v) {
    if (std::bit_cast<std::uint64_t>(x[v]) !=
        std::bit_cast<std::uint64_t>(state.x[v])) {
      changed.push_back(static_cast<AgentId>(v));
      if (changed.size() > limit) {
        return std::nullopt;
      }
    }
  }
  for (const AgentId v : coef_dirty) {
    MMLP_CHECK_MSG(v >= 0 && static_cast<std::size_t>(v) < n,
                   "coef_dirty agent " << v << " out of range (n=" << n << ")");
  }
  if (!coef_dirty.empty()) {
    std::vector<AgentId> merged;
    merged.reserve(changed.size() + coef_dirty.size());
    std::set_union(changed.begin(), changed.end(), coef_dirty.begin(),
                   coef_dirty.end(), std::back_inserter(merged));
    changed.swap(merged);
    if (changed.size() > limit) {
      return std::nullopt;
    }
  }

  // Every row incident to a changed agent, once each. An edited row
  // always keeps a member in coef_dirty (supports stay nonempty, and a
  // membership edit dirties all its members), so this covers it.
  std::vector<char> party_marked(num_parties, 0);
  std::vector<char> resource_marked(num_resources, 0);
  std::vector<PartyId> parties;
  std::vector<ResourceId> resources;
  for (const AgentId v : changed) {
    collect_rows(instance.agent_parties(v), party_marked, parties);
    collect_rows(instance.agent_resources(v), resource_marked, resources);
  }
  for (const AgentId v : changed) {
    state.x[static_cast<std::size_t>(v)] = x[static_cast<std::size_t>(v)];
  }
  sum_rows<&Instance::party_support>(instance, x, parties, state.party_benefit);
  sum_rows<&Instance::resource_support>(instance, x, resources,
                                        state.resource_load);
  return reduce(state.party_benefit, state.resource_load, x);
}

double scale_to_feasible(const Instance& instance, std::vector<double>& x) {
  for (double& value : x) {
    value = std::max(0.0, value);
  }
  double max_load = 0.0;
  for (ResourceId i = 0; i < instance.num_resources(); ++i) {
    max_load = std::max(max_load, resource_load(instance, x, i));
  }
  if (max_load <= 1.0) {
    return 1.0;
  }
  const double scale = 1.0 / max_load;
  for (double& value : x) {
    value *= scale;
  }
  return scale;
}

double approximation_ratio(double optimal_omega, double achieved_omega) {
  MMLP_CHECK_GE(optimal_omega, 0.0);
  MMLP_CHECK_GE(achieved_omega, -kFeasTol);
  if (optimal_omega <= 0.0) {
    return 1.0;
  }
  if (achieved_omega <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return optimal_omega / achieved_omega;
}

}  // namespace mmlp
