// The view-orbit layer (core/view_class): orbit collapse on symmetric
// instances, orbit members sharing bit-identical views, repair ==
// rebuild while an edit splits orbits and its reverse re-merges them,
// and the dedup solve paths' contract — output bitwise equal to the
// dedup-off run on *every* instance.
#include "mmlp/core/view_class.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "mmlp/core/local_averaging.hpp"
#include "mmlp/core/safe.hpp"
#include "mmlp/dist/algorithms.hpp"
#include "mmlp/engine/session.hpp"
#include "mmlp/gen/grid.hpp"
#include "mmlp/gen/random_instance.hpp"
#include "test_helpers.hpp"

namespace mmlp {
namespace {

/// Rows of a view as a sorted multiset of (is_party, sorted entries) in
/// the view's own local indexing.
using Row = std::pair<int, std::vector<std::pair<std::int32_t, double>>>;

std::vector<Row> sorted_rows(const LocalView& view) {
  std::vector<Row> rows;
  const auto sorted = [](CoefSpan entries, int is_party) {
    Row row{is_party, {}};
    for (const Coef& entry : entries) {
      row.second.emplace_back(entry.id, entry.value);
    }
    std::sort(row.second.begin(), row.second.end());
    return row;
  };
  for (std::size_t r = 0; r < view.resources.size(); ++r) {
    rows.push_back(sorted(view.resource_entries(r), 0));
  }
  for (std::size_t p = 0; p < view.parties.size(); ++p) {
    rows.push_back(sorted(view.party_entries(p), 1));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(ViewClassIndex, GridTorusCollapsesToFewOrbits) {
  const Instance instance =
      make_grid_instance({.dims = {20, 20}, .torus = true});
  engine::Session session(instance);
  const ViewClassIndex& index = session.view_classes(1, false);
  ASSERT_EQ(index.num_agents(), 400u);
  // A uniform torus is vertex-transitive, but the exact orbits split by
  // the sorted-global-id ordering patterns near the wrap — into a
  // side-independent number of categories (49 for the R=1 von-Neumann
  // structure), so the dedup ratio approaches 1 as the torus grows.
  EXPECT_EQ(index.num_orbits(), 49u);
  EXPECT_DOUBLE_EQ(index.dedup_ratio(), 1.0 - 49.0 / 400.0);
  // Orbit structure: sizes sum to n, representatives are members.
  std::int64_t total = 0;
  for (const std::int32_t size : index.orbit_size) {
    total += size;
  }
  EXPECT_EQ(total, 400);
  for (std::size_t g = 0; g < index.num_orbits(); ++g) {
    EXPECT_EQ(index.orbit_of[static_cast<std::size_t>(index.orbit_rep[g])],
              static_cast<std::int32_t>(g));
  }
}

TEST(ViewClassIndex, OrbitCountIsSideIndependentOnTori) {
  // The wrap-ordering orbit categories do not multiply with the torus
  // size — the lever behind the 1e5-agent dedup ratio in BENCH_engine.
  std::size_t orbits_small = 0;
  std::size_t orbits_large = 0;
  {
    const Instance instance =
        make_grid_instance({.dims = {12, 12}, .torus = true});
    engine::Session session(instance);
    orbits_small = session.view_classes(1, false).num_orbits();
  }
  {
    const Instance instance =
        make_grid_instance({.dims = {24, 24}, .torus = true});
    engine::Session session(instance);
    orbits_large = session.view_classes(1, false).num_orbits();
  }
  EXPECT_EQ(orbits_small, orbits_large);
}

// Members of one exact orbit carry bit-identical local structures (the
// basis of the bitwise dedup guarantee).
TEST(ViewClassIndex, OrbitMembersShareExactStructure) {
  const Instance instance = make_grid_instance({.dims = {9, 9}, .torus = false});
  engine::Session session(instance);
  const ViewClassIndex& index = session.view_classes(1, false);
  const auto& balls = session.balls(1, false);
  for (std::size_t u = 0; u < index.num_agents(); ++u) {
    const AgentId rep =
        index.orbit_rep[static_cast<std::size_t>(index.orbit_of[u])];
    const LocalView member_view =
        extract_view(instance, static_cast<AgentId>(u), 1, balls[u]);
    const LocalView rep_view = extract_view(
        instance, rep, 1, balls[static_cast<std::size_t>(rep)]);
    EXPECT_EQ(sorted_rows(member_view), sorted_rows(rep_view));
    EXPECT_EQ(member_view.local_index(member_view.center),
              rep_view.local_index(rep_view.center));
  }
}

// Repair under an edit that splits orbits and its reverse that
// re-merges them. Raising a_{78,78} on a 12x12 unit torus splits the
// orbits 49 -> 62 at R=1 and 121 -> 138 at R=2; the reverse edit restores
// the original partition. After each apply the repaired partitions must
// equal a fresh build, and every dedup solve served from them — cold and
// incremental, centralized and distributed — must equal dedup-off
// bitwise.
TEST(ViewClassIndex, RepairSplitsAndRemergesOrbits) {
  Instance working = make_grid_instance({.dims = {12, 12}, .torus = true});
  engine::Session session(working);
  // Radii 1 and 2 serve averaging; radius 3 is the distributed horizon
  // of R = 1.
  const std::vector<std::int32_t> radii{1, 2, 3};
  std::vector<std::vector<std::int32_t>> original_orbits;
  for (const std::int32_t r : radii) {
    original_orbits.push_back(session.view_classes(r, false).orbit_of);
  }
  EXPECT_EQ(session.view_classes(1, false).num_orbits(), 49u);
  EXPECT_EQ(session.view_classes(2, false).num_orbits(), 121u);
  for (const std::int32_t R : {1, 2}) {
    (void)local_averaging_with(session, {.R = R, .deduplicate = true});
  }
  (void)distributed_local_averaging_with(
      session, {.R = 1, .deduplicate = true});

  // Each check's first dedup solves run under simplex options the
  // session has not seen, so they have no memo and solve every orbit
  // from the repaired partition; the solves with the default options
  // then splice the memos primed above.
  std::int64_t unseen_key = 0;
  const auto check = [&](const char* step) {
    for (const std::int32_t r : radii) {
      const ViewClassIndex& repaired = session.view_classes(r, false);
      const ViewClassIndex fresh =
          build_view_class_index(working, session.balls(r, false), r, false);
      EXPECT_EQ(repaired.orbit_of, fresh.orbit_of) << step << " r=" << r;
      EXPECT_EQ(repaired.orbit_rep, fresh.orbit_rep) << step << " r=" << r;
      EXPECT_EQ(repaired.orbit_size, fresh.orbit_size) << step << " r=" << r;
    }
    ++unseen_key;
    IncrementalStats stats;
    for (const std::int32_t R : {1, 2}) {
      const std::vector<double> off = local_averaging(working, {.R = R}).x;
      LocalAveragingOptions unseen{.R = R, .deduplicate = true};
      unseen.lp.max_iterations += unseen_key;
      const LocalAveragingResult full =
          local_averaging_with(session, unseen, &stats);
      EXPECT_EQ(full.x, off) << step << " R=" << R;
      EXPECT_FALSE(stats.incremental) << step << " R=" << R;
      EXPECT_EQ(full.lp_solves, session.view_classes(R, false).num_orbits())
          << step << " R=" << R;
      EXPECT_EQ(local_averaging_with(session, {.R = R, .deduplicate = true},
                                     &stats)
                    .x,
                off)
          << step << " R=" << R;
      EXPECT_TRUE(stats.incremental) << step << " R=" << R;
    }
    const std::vector<double> dist_off =
        distributed_local_averaging(working, {.R = 1});
    LocalAveragingOptions unseen{.R = 1, .deduplicate = true};
    unseen.lp.max_iterations += unseen_key;
    DistAveragingStats dist_stats;
    EXPECT_EQ(distributed_local_averaging_with(session, unseen, &dist_stats,
                                               &stats),
              dist_off)
        << step;
    EXPECT_FALSE(stats.incremental) << step;
    EXPECT_EQ(dist_stats.decisions, session.view_classes(3, false).num_orbits())
        << step;
    EXPECT_EQ(distributed_local_averaging_with(
                  session, {.R = 1, .deduplicate = true}, nullptr, &stats),
              dist_off)
        << step;
    EXPECT_TRUE(stats.incremental) << step;
  };

  InstanceDelta split;
  split.set_usage(78, 78, 1.5);
  session.apply(split);
  EXPECT_EQ(session.view_classes(1, false).num_orbits(), 62u);
  EXPECT_EQ(session.view_classes(2, false).num_orbits(), 138u);
  check("split");

  InstanceDelta remerge;
  remerge.set_usage(78, 78, 1.0);
  session.apply(remerge);
  for (std::size_t k = 0; k < radii.size(); ++k) {
    EXPECT_EQ(session.view_classes(radii[k], false).orbit_of,
              original_orbits[k])
        << "r=" << radii[k];
  }
  check("remerge");
}

// The headline contract: deduplicated averaging with exact scatter is
// bitwise equal to the per-agent run — on symmetric *and* unstructured
// instances (orbit members share byte-identical LPs, and the
// deterministic simplex maps identical input to identical output).
TEST(DedupAveraging, ExactScatterBitwiseEqualEverywhere) {
  std::vector<std::pair<const char*, Instance>> instances;
  instances.emplace_back(
      "grid", make_grid_instance({.dims = {7, 7}, .torus = false}));
  instances.emplace_back(
      "torus", make_grid_instance({.dims = {8, 8}, .torus = true}));
  instances.emplace_back("random",
                         make_random_instance({.num_agents = 60, .seed = 11}));
  instances.emplace_back("path", testing::path_instance(12));
  for (const auto& [name, instance] : instances) {
    for (const std::int32_t R : {1, 2}) {
      engine::Session session(instance);
      const LocalAveragingResult off = local_averaging(instance, {.R = R});
      const LocalAveragingResult on =
          local_averaging_with(session, {.R = R, .deduplicate = true});
      EXPECT_EQ(on.x, off.x) << name << " R=" << R;
      EXPECT_EQ(on.view_omega, off.view_omega) << name << " R=" << R;
      EXPECT_EQ(on.beta, off.beta) << name << " R=" << R;
      EXPECT_LE(on.lp_solves, off.lp_solves) << name << " R=" << R;
      EXPECT_EQ(on.lp_solves, session.view_classes(R, false).num_orbits())
          << name << " R=" << R;
    }
  }
}

TEST(DedupAveraging, SingletonClassesFallBackToPerAgentSolves) {
  // A random instance with large supports has essentially no view
  // symmetry: dedup must degrade to ~per-agent solves and still match.
  const Instance instance = make_random_instance({
      .num_agents = 40,
      .resources_per_agent = 3,
      .parties_per_agent = 2,
      .max_support = 5,
      .seed = 29,
  });
  engine::Session session(instance);
  const LocalAveragingResult off = local_averaging(instance, {.R = 1});
  const LocalAveragingResult on =
      local_averaging_with(session, {.R = 1, .deduplicate = true});
  EXPECT_EQ(on.x, off.x);
  EXPECT_LE(on.lp_solves, 40u);
}

TEST(DedupSafe, BitwiseEqualToPerAgentRule) {
  // Safe accepts the dedup knob and ignores it; a request carrying it
  // must still answer the per-agent bits.
  for (const auto& instance :
       {make_grid_instance({.dims = {10, 10}, .torus = true}),
        make_random_instance({.num_agents = 80, .seed = 5})}) {
    engine::Session session(instance);
    EXPECT_EQ(safe_solution_with(session, {.deduplicate = true}),
              safe_solution(instance));
  }
}

TEST(DedupDistributedAveraging, ExactScatterBitwiseEqual) {
  const Instance instance = make_grid_instance({.dims = {6, 6}, .torus = true});
  engine::Session session(instance);
  const std::vector<double> off =
      distributed_local_averaging(instance, {.R = 1});
  const std::vector<double> on = distributed_local_averaging_with(
      session, {.R = 1, .deduplicate = true});
  EXPECT_EQ(on, off);
  // And both match the centralized algorithm, dedup or not.
  EXPECT_EQ(on, local_averaging_with(session, {.R = 1, .deduplicate = true}).x);
}

TEST(DedupAveraging, ObliviousModeMatchesToo) {
  const Instance instance = make_random_instance({.num_agents = 50, .seed = 13});
  engine::Session session(instance);
  const LocalAveragingResult off =
      local_averaging(instance, {.R = 1, .collaboration_oblivious = true});
  const LocalAveragingResult on = local_averaging_with(
      session,
      {.R = 1, .collaboration_oblivious = true, .deduplicate = true});
  EXPECT_EQ(on.x, off.x);
}

}  // namespace
}  // namespace mmlp
