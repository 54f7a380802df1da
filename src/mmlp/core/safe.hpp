// The safe algorithm (Papadimitriou–Yannakakis; Section 3/4, eq. (2)).
//
//   x_v = min_{i ∈ I_v} 1 / (a_iv · |V_i|)
//
// Horizon r = 1: agent v needs only its own resources, their coefficients
// and their support sizes. The solution is always feasible (each resource
// i receives ≤ |V_i| · a_iv · 1/(a_iv|V_i|) = 1 in total) and is a
// Δ_I^V-approximation of (1) (Section 4, first display).
#pragma once

#include <span>
#include <vector>

#include "mmlp/core/incremental.hpp"
#include "mmlp/core/instance.hpp"

namespace mmlp {

namespace engine {
class Session;  // engine/session.hpp
}

/// The safe solution for the whole instance; the stateless reference.
/// The hot loop reads the CSR blocks directly (I_v scan plus O(1) |V_i|
/// offset lookups) and performs no per-agent allocation.
std::vector<double> safe_solution(const Instance& instance);

struct SafeOptions {
  /// Accepted for API uniformity with the LP-backed solvers and
  /// ignored: eq. (2) reads only radius-1 data, so grouping agents by
  /// profile costs more than evaluating the rule once per agent
  /// (measured 10–50x slower at 10^6 agents). The LP-backed solvers are
  /// where deduplication pays (LocalAveragingOptions).
  bool deduplicate = false;
};

/// Memo-first solve on a session: the session memo keeps the previous
/// answer, and only agents the edits since could have reached are
/// re-evaluated (the touched set itself — the rule reads radius-1 data,
/// and an edit's touched closure already contains every agent whose
/// a_iv or |V_i| inputs moved); a repeat with no edits in between
/// re-evaluates nothing. Every agent is evaluated on the first call and
/// after id remaps. Bitwise identical to safe_solution on the current
/// instance; `stats` (optional) receives the accounting.
std::vector<double> safe_solution_with(engine::Session& session,
                                       const SafeOptions& options = {},
                                       IncrementalStats* stats = nullptr);

/// The single-agent rule, usable from per-agent (distributed) code:
/// needs I_v with coefficients and |V_i| for each i ∈ I_v.
double safe_choice(CoefSpan agent_resources,
                   std::span<const std::size_t> support_sizes);

}  // namespace mmlp
