// Solution vectors and their evaluation against an Instance.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "mmlp/core/instance.hpp"

namespace mmlp {

/// Default feasibility tolerance used across the library.
inline constexpr double kFeasTol = 1e-7;

/// Evaluation of a candidate x against eq. (1).
struct Evaluation {
  double omega = 0.0;            ///< min_k Σ_v c_kv x_v (benefit of the worst party)
  double worst_violation = 0.0;  ///< max over resources of (a_i x − 1)+ and over v of (−x_v)+
  PartyId argmin_party = -1;     ///< a party attaining ω (−1 if K is empty)
  ResourceId argmax_resource = -1;  ///< a resource attaining max a_i x

  bool feasible(double tol = kFeasTol) const { return worst_violation <= tol; }
};

/// Benefit of party k under x: Σ_{v∈V_k} c_kv x_v.
double party_benefit(const Instance& instance, const std::vector<double>& x,
                     PartyId k);

/// Load of resource i under x: Σ_{v∈V_i} a_iv x_v.
double resource_load(const Instance& instance, const std::vector<double>& x,
                     ResourceId i);

/// ω(x) = min_k benefit; +infinity when the instance has no parties.
double objective_omega(const Instance& instance, const std::vector<double>& x);

/// Full evaluation (objective + feasibility in one pass). The stateless
/// reference every other evaluation path is tested against.
Evaluation evaluate(const Instance& instance, const std::vector<double>& x);

/// As above; when `party_benefits` is non-null it is filled with the
/// per-party benefits the omega scan computes anyway (one pass, no
/// second benefit sweep for callers that want both).
Evaluation evaluate(const Instance& instance, const std::vector<double>& x,
                    std::vector<double>* party_benefits);

/// An evaluation kept so a later x can be re-evaluated by splicing: the
/// x it evaluated and every row sum it computed.
struct EvaluationState {
  std::vector<double> x;
  std::vector<double> party_benefit;  ///< Σ_v c_kv x_v per party k
  std::vector<double> resource_load;  ///< Σ_v a_iv x_v per resource i
};

/// As evaluate(), and leaves x and every row sum in `state`.
Evaluation evaluate(const Instance& instance, const std::vector<double>& x,
                    EvaluationState& state);

/// Re-evaluate x against `state`, an earlier evaluation on an instance
/// of the same shape (n, K and I unchanged). Only the rows incident to
/// the changed agents are summed again: those whose x differs bitwise
/// from state.x, plus `coef_dirty`, the sorted agents whose
/// coefficients or support memberships moved since `state` was taken
/// (a session's dirty_since(revision, 0, ...)). ω/argmin, the max
/// load/argmax and the worst violation are then re-reduced by
/// contiguous scans. The result, and the row sums left in `state`, are
/// bit-identical to evaluate() on x, because every row sum runs the
/// same kernel in the same order.
///
/// nullopt, with `state` untouched, when the shape changed or more than
/// a quarter of the agents changed (the full pass is then the cheaper
/// one).
std::optional<Evaluation> evaluate_spliced(const Instance& instance,
                                           const std::vector<double>& x,
                                           std::span<const AgentId> coef_dirty,
                                           EvaluationState& state);

/// Scale x down (if needed) so that every resource constraint holds
/// exactly; returns the scale factor applied (1 when already feasible).
/// Negative entries are clamped to zero first.
double scale_to_feasible(const Instance& instance, std::vector<double>& x);

/// ω*/ω(x) with conventions: 1 if both are zero, +inf if ω(x)=0 < ω*.
double approximation_ratio(double optimal_omega, double achieved_omega);

}  // namespace mmlp
