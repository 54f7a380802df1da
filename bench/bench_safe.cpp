// E9 — the scalability claim of Section 1.1: per-node work of the safe
// algorithm (eq. (2)) is constant, so total time is linear in n. Sweeps
// every generator scenario at the --scale sizes through the stateless
// safe_solution (a session would serve every repeat from its memo, and
// the series times the eq. (2) scan) and reports ns/agent plus
// sparsity counters into BENCH_safe.json.
#include "mmlp/core/safe.hpp"
#include "mmlp/util/bench_report.hpp"

#include "scenarios.hpp"

int main(int argc, char** argv) {
  using namespace mmlp;
  return bench::bench_main(
      argc, argv, "safe",
      [](bench::Report& report, const std::string& scale, int reps) {
        bench_scenarios::for_each_scenario(
            bench_scenarios::all_scenarios(), scale,
            [&](const std::string& scenario, const Instance& instance) {
              std::vector<double> x;
              auto& result = report.run_case(
                  scenario, instance.num_agents(), reps,
                  [&] { x = safe_solution(instance); });
              const DegreeBounds bounds = instance.degree_bounds();
              result.counters["nonzeros"] =
                  static_cast<double>(instance.num_nonzeros());
              result.counters["peak_support"] = static_cast<double>(
                  std::max(bounds.delta_V_of_I, bounds.delta_V_of_K));
            });
      });
}
