// The local approximation algorithm of Theorem 3 (Section 5).
//
// Fix a radius R. Every agent u solves the local LP (9) on its view
// V^u = B_H(u, R) optimally; agent j then averages the opinions of the
// views it belongs to, damped by the growth factor β_j (eq. (10)):
//
//   β_j = min_{i∈I_j} n_i / N_i,     x̃_j = (β_j / |V^j|) Σ_{u∈V^j} x^u_j.
//
// Section 5.2 shows x̃ is feasible; Section 5.3 shows
// ω(x̃) ≥ ω* / (max_k M_k/m_k · max_i N_i/n_i) ≥ ω* / (γ(R−1)·γ(R)).
//
// The per-agent LPs are independent and solved in parallel. The
// distributed interpretation (each j recomputing x^u for u ∈ V^j from its
// radius-(2R+1) view with the same deterministic solver) is implemented
// in mmlp/dist/algorithms and tested to produce identical output.
#pragma once

#include <cstdint>
#include <vector>

#include "mmlp/core/incremental.hpp"
#include "mmlp/core/instance.hpp"
#include "mmlp/core/view.hpp"
#include "mmlp/lp/simplex.hpp"

namespace mmlp {

namespace engine {
class Session;  // engine/session.hpp
}

/// Damping rule applied to the averaged view solutions (ablations of the
/// paper's eq. (10); see bench/exp_ablation_damping).
enum class AveragingDamping : std::uint8_t {
  kBetaPerAgent,   ///< the paper's β_j = min_{i∈I_j} n_i/N_i (local, proven feasible)
  kBetaGlobal,     ///< β = min_j β_j everywhere (local with one more round; more conservative)
  kNone,           ///< undamped average — NOT feasible in general (ablation only)
  kNoneThenScale,  ///< undamped average, then global scale-to-feasible (non-local upper reference)
};

struct LocalAveragingOptions {
  std::int32_t R = 1;  ///< view radius; the local horizon is Θ(R) (2R+1)
  bool collaboration_oblivious = false;  ///< drop party hyperedges from H
  AveragingDamping damping = AveragingDamping::kBetaPerAgent;
  SimplexOptions lp;   ///< solver settings for the local LPs

  /// Solve one view LP per exact view orbit instead of one per agent
  /// (view_class.hpp): agents with bit-identical view structures share
  /// the representative's solution, copied verbatim, so the output is
  /// bitwise equal to the dedup-off run on every instance. Pays off
  /// massively on symmetric instances (grids, tori, regular
  /// constructions) and falls back to per-agent behaviour automatically
  /// when every orbit is a singleton.
  bool deduplicate = false;
};

/// The scalar part of a run: what engine::solve reports as diagnostics.
struct AveragingScalars {
  double ratio_bound = 0.0;   ///< max_k M_k/m_k · max_i N_i/n_i (≤ γ(R−1)γ(R))
  std::size_t peak_ball = 0;  ///< max_j |V^j|

  /// Dedup accounting. Without options.deduplicate: lp_solves == n and
  /// dedup_ratio == 0; with it, lp_solves is the number of view orbits.
  std::size_t lp_solves = 0;  ///< view LPs actually solved
  double dedup_ratio = 0.0;   ///< 1 − lp_solves/n
};

struct LocalAveragingResult : AveragingScalars {
  std::vector<double> x;            ///< x̃, feasible for (1)
  std::vector<double> beta;         ///< β_j per agent
  std::vector<std::size_t> ball_size;  ///< |V^j| per agent
  std::vector<double> view_omega;   ///< ω^u of each local LP (diagnostics)
};

/// Run the algorithm. Requires the full hypergraph mode for the
/// Theorem 3 guarantee (S_k ⊇ V_k needs party hyperedges); in
/// collaboration-oblivious mode the solution is still feasible but the
/// benefit bound may not hold (m_k can be 0, in which case ratio_bound is
/// reported as +inf). The stateless reference: it runs against a
/// session that lives for one call.
LocalAveragingResult local_averaging(const Instance& instance,
                                     const LocalAveragingOptions& options = {});

/// Memo-first solve on a session, writing x̃ into `x` and returning the
/// scalars; nothing else n-sized is copied. Balls, growth sets, view
/// orbits and worker scratch come from the session's caches, and the
/// answer from its memo of `options` (deduplicate excluded: the orbit
/// copy is bitwise equal to dedup-off). Locality does the work: an edit
/// with touched set T changes view LPs only inside B(T, R), and x̃_j
/// only inside B(T, 2R) (x̃_j reads x^u for u ∈ V^j, and β_j moves only
/// within B(T, R+1)); so the memo, which retains every agent's view
/// solution, is re-solved on B(T, R) and re-gathered on B(T, 2R), and a
/// repeat with no edits in between re-solves nothing. Every agent is
/// recomputed on the first solve, after id remaps, and — for the damping
/// rules whose outputs are not per-agent local, kBetaGlobal and
/// kNoneThenScale — after any edit. Output is bitwise identical to
/// local_averaging on the current instance. lp_solves reports the view
/// LPs solved by this call; dedup_ratio is set only when every agent
/// was recomputed. `stats` (optional) receives the accounting.
AveragingScalars local_averaging_into(engine::Session& session,
                                      const LocalAveragingOptions& options,
                                      std::vector<double>& x,
                                      IncrementalStats* stats = nullptr);

/// As local_averaging_into, returning the full result (x̃, β, |V^j|
/// and every ω^u) for callers that inspect it.
LocalAveragingResult local_averaging_with(engine::Session& session,
                                          const LocalAveragingOptions& options = {},
                                          IncrementalStats* stats = nullptr);

/// The same as local_averaging_with, under the name the benchmark
/// client (perfbench/client/serve.cpp) calls.
LocalAveragingResult local_averaging_incremental(
    engine::Session& session, const LocalAveragingOptions& options = {},
    IncrementalStats* stats = nullptr);

}  // namespace mmlp
