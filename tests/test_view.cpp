#include "mmlp/core/view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "mmlp/gen/geometric.hpp"
#include "mmlp/gen/grid.hpp"
#include "mmlp/gen/random_instance.hpp"
#include "mmlp/graph/bfs.hpp"
#include "mmlp/graph/growth.hpp"
#include "mmlp/util/check.hpp"
#include "test_helpers.hpp"

namespace mmlp {
namespace {

TEST(LocalView, PathViewRadiusOne) {
  const auto instance = testing::path_instance(5);
  const auto h = instance.communication_graph();
  const auto view = extract_view(instance, h, 2, 1);
  EXPECT_EQ(view.center, 2);
  EXPECT_EQ(view.agents, (std::vector<AgentId>{1, 2, 3}));
  // I^u: resources touching {1,2,3} = resources 0..3 (couples 0-1 ... 3-4).
  EXPECT_EQ(view.resources.size(), 4u);
  // K^u: singleton parties of 1, 2, 3 are fully visible.
  EXPECT_EQ(view.parties, (std::vector<PartyId>{1, 2, 3}));
}

TEST(LocalView, LocalIndexing) {
  const auto instance = testing::path_instance(5);
  const auto h = instance.communication_graph();
  const auto view = extract_view(instance, h, 2, 1);
  EXPECT_EQ(view.local_index(1), 0);
  EXPECT_EQ(view.local_index(2), 1);
  EXPECT_EQ(view.local_index(3), 2);
  EXPECT_EQ(view.local_index(0), -1);
}

TEST(LocalView, ResourceEntriesRestrictedToBall) {
  const auto instance = testing::path_instance(5);
  const auto h = instance.communication_graph();
  const auto view = extract_view(instance, h, 2, 1);
  // Resource 0 couples agents {0, 1}; only agent 1 is in the ball.
  const auto it = std::find(view.resources.begin(), view.resources.end(), 0);
  ASSERT_NE(it, view.resources.end());
  const auto& entries =
      view.resource_entries(static_cast<std::size_t>(it - view.resources.begin()));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(view.agents[static_cast<std::size_t>(entries[0].id)], 1);
}

TEST(LocalView, FullRadiusSeesWholeInstance) {
  const auto instance = testing::path_instance(5);
  const auto h = instance.communication_graph();
  const auto view = extract_view(instance, h, 0, 10);
  EXPECT_EQ(view.agents.size(), 5u);
  EXPECT_EQ(view.resources.size(), 4u);
  EXPECT_EQ(view.parties.size(), 5u);
}

// ---------------------------------------------------------------------
// Stamped extraction == the sort+unique reference, field by field.

/// Test-local reference extractor: collect every candidate id, dedup
/// with sort+unique, then keep the parties whose whole support lies in
/// the ball (rolling back a partial one). Local ids by binary search.
LocalView reference_view(const Instance& instance, AgentId u,
                         std::int32_t radius,
                         const std::vector<AgentId>& ball) {
  LocalView view;
  view.center = u;
  view.radius = radius;
  view.agents = ball;
  std::vector<ResourceId> resource_ids;
  std::vector<PartyId> party_ids;
  for (const AgentId v : ball) {
    for (const Coef& entry : instance.agent_resources(v)) {
      resource_ids.push_back(entry.id);
    }
    for (const Coef& entry : instance.agent_parties(v)) {
      party_ids.push_back(entry.id);
    }
  }
  std::sort(resource_ids.begin(), resource_ids.end());
  resource_ids.erase(std::unique(resource_ids.begin(), resource_ids.end()),
                     resource_ids.end());
  std::sort(party_ids.begin(), party_ids.end());
  party_ids.erase(std::unique(party_ids.begin(), party_ids.end()),
                  party_ids.end());
  for (const ResourceId i : resource_ids) {
    for (const Coef& entry : instance.resource_support(i)) {
      const std::int32_t local = view.local_index(entry.id);
      if (local >= 0) {
        view.resource_data.push_back({local, entry.value});
      }
    }
    view.resources.push_back(i);
    view.resource_offsets.push_back(
        static_cast<std::int32_t>(view.resource_data.size()));
  }
  for (const PartyId k : party_ids) {
    const std::size_t start = view.party_data.size();
    bool full = true;
    for (const Coef& entry : instance.party_support(k)) {
      const std::int32_t local = view.local_index(entry.id);
      full = full && local >= 0;
      view.party_data.push_back({local, entry.value});
    }
    if (!full) {
      view.party_data.resize(start);
      continue;
    }
    view.parties.push_back(k);
    view.party_offsets.push_back(
        static_cast<std::int32_t>(view.party_data.size()));
  }
  return view;
}

void expect_same_entries(const std::vector<Coef>& actual,
                         const std::vector<Coef>& expected,
                         const std::string& where) {
  ASSERT_EQ(actual.size(), expected.size()) << where;
  for (std::size_t e = 0; e < actual.size(); ++e) {
    EXPECT_EQ(actual[e].id, expected[e].id) << where << " entry " << e;
    EXPECT_EQ(std::memcmp(&actual[e].value, &expected[e].value,
                          sizeof(double)),
              0)
        << where << " entry " << e;
  }
}

void expect_same_view(const LocalView& actual, const LocalView& expected,
                      const std::string& where) {
  EXPECT_EQ(actual.center, expected.center) << where;
  EXPECT_EQ(actual.radius, expected.radius) << where;
  EXPECT_EQ(actual.agents, expected.agents) << where;
  EXPECT_EQ(actual.resources, expected.resources) << where;
  EXPECT_EQ(actual.parties, expected.parties) << where;
  EXPECT_EQ(actual.resource_offsets, expected.resource_offsets) << where;
  EXPECT_EQ(actual.party_offsets, expected.party_offsets) << where;
  expect_same_entries(actual.resource_data, expected.resource_data,
                      where + " resources");
  expect_same_entries(actual.party_data, expected.party_data,
                      where + " parties");
}

/// Extract every view of `instance` with one reused scratch and compare
/// each with the reference.
void expect_all_views_match(const Instance& instance,
                            const std::vector<std::vector<AgentId>>& balls,
                            std::int32_t radius, ViewScratch& scratch,
                            const std::string& where) {
  LocalView view;
  for (AgentId u = 0; u < instance.num_agents(); ++u) {
    const auto& ball = balls[static_cast<std::size_t>(u)];
    extract_view_into(instance, u, radius, ball, view, scratch);
    expect_same_view(view, reference_view(instance, u, radius, ball),
                     where + " u=" + std::to_string(u));
  }
}

std::vector<std::pair<std::string, Instance>> extraction_families() {
  std::vector<std::pair<std::string, Instance>> families;
  families.emplace_back("random", make_random_instance({
                                      .num_agents = 200,
                                      .resources_per_agent = 3,
                                      .parties_per_agent = 2,
                                      .max_support = 4,
                                      .seed = 5,
                                  }));
  families.emplace_back(
      "grid", make_grid_instance(
                  {.dims = {7, 6}, .torus = true, .randomize = true, .seed = 2}));
  families.emplace_back("geometric",
                        make_geometric_instance({.num_agents = 150,
                                                 .radius = 0.12,
                                                 .party_stride = 2,
                                                 .randomize = true,
                                                 .seed = 4})
                            .instance);
  return families;
}

TEST(ExtractViewDifferential, MatchesReferenceOnEveryFamilyAndRadius) {
  // One scratch for everything: a stamp left set by any extraction
  // would surface as a missing resource or party in a later one.
  ViewScratch scratch;
  for (const auto& [name, instance] : extraction_families()) {
    for (const bool oblivious : {false, true}) {
      const Hypergraph h = instance.communication_graph(oblivious);
      for (const std::int32_t radius : {1, 2, 3}) {
        const std::string where = name + (oblivious ? " oblivious" : "") +
                                  " R=" + std::to_string(radius);
        expect_all_views_match(instance, all_balls(h, radius), radius,
                               scratch, where);
      }
    }
  }
}

TEST(ExtractViewDifferential, MatchesAfterDeltasGrowTheInstance) {
  // New agents, resources and parties push ids past the stamp maps'
  // sizes; the reused scratch must grow them and stay clean.
  Instance instance = make_random_instance({
      .num_agents = 120,
      .resources_per_agent = 3,
      .parties_per_agent = 2,
      .max_support = 4,
      .seed = 8,
  });
  ViewScratch scratch;
  Rng rng(31);
  const AgentId agents_before = instance.num_agents();
  const ResourceId resources_before = instance.num_resources();
  const PartyId parties_before = instance.num_parties();
  for (int round = 0; round < 12; ++round) {
    for (int edit = 0; edit < 6; ++edit) {
      instance.apply(testing::random_growing_delta(rng, instance));
    }
    const auto balls = all_balls(instance.communication_graph(), 2);
    expect_all_views_match(instance, balls, 2, scratch,
                           "round " + std::to_string(round));
  }
  EXPECT_GT(instance.num_agents(), agents_before);
  EXPECT_GT(instance.num_resources(), resources_before);
  EXPECT_GT(instance.num_parties(), parties_before);
}

TEST(ExtractViewDifferential, MatchesAfterACheckErrorMidExtraction) {
  const Instance instance = make_grid_instance(
      {.dims = {10, 10}, .torus = true, .randomize = true, .seed = 6});
  const auto balls = all_balls(instance.communication_graph(), 2);
  ViewScratch scratch;
  LocalView view;
  extract_view_into(instance, 55, 2, balls[55], view, scratch);

  // The ball of agent 55 handed in for agent 0, which it does not hold.
  ASSERT_FALSE(std::binary_search(balls[55].begin(), balls[55].end(), 0));
  EXPECT_THROW(extract_view_into(instance, 0, 2, balls[55], view, scratch),
               CheckError);
  // A ball naming an agent the instance does not have.
  std::vector<AgentId> invalid = balls[3];
  invalid.push_back(instance.num_agents());
  EXPECT_THROW(extract_view_into(instance, 3, 2, invalid, view, scratch),
               CheckError);

  expect_all_views_match(instance, balls, 2, scratch, "after throw");
}

TEST(ViewLp, FullViewMatchesGlobalOptimum) {
  const auto instance = testing::two_agent_instance();
  const auto h = instance.communication_graph();
  const auto view = extract_view(instance, h, 0, 2);
  const auto solution = solve_view_lp(view);
  EXPECT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.omega, 0.5, 1e-9);
}

TEST(ViewLp, EmptyPartySetGivesZero) {
  // Radius-1 view of an end agent of a long path where all parties are
  // out of sight: build a path with parties only at the far end.
  Instance::Builder builder;
  for (AgentId v = 0; v < 4; ++v) {
    builder.add_agent();
  }
  for (AgentId v = 0; v + 1 < 4; ++v) {
    const ResourceId i = builder.add_resource();
    builder.set_usage(i, v, 1.0).set_usage(i, v + 1, 1.0);
  }
  const PartyId k = builder.add_party();
  builder.set_benefit(k, 3, 1.0);
  const auto instance = std::move(builder).build();
  const auto h = instance.communication_graph();
  const auto view = extract_view(instance, h, 0, 1);
  EXPECT_TRUE(view.parties.empty());
  const auto solution = solve_view_lp(view);
  for (const double value : solution.x) {
    EXPECT_DOUBLE_EQ(value, 0.0);
  }
}

TEST(ViewLp, ViewOmegaAtLeastGlobalOmega) {
  // (13): the global optimum is feasible for every view LP, so
  // ω^u >= ω*.
  const auto instance = make_grid_instance({.dims = {5, 5}, .torus = true});
  const auto h = instance.communication_graph();
  // Global optimum on a uniform torus: symmetry gives ω* = 1 (x = 1/5).
  for (const AgentId u : {0, 7, 12}) {
    const auto view = extract_view(instance, h, u, 2);
    const auto solution = solve_view_lp(view);
    EXPECT_GE(solution.omega, 1.0 - 1e-7);
  }
}

TEST(GrowthSets, PathSetsByHand) {
  const auto instance = testing::path_instance(4);
  const auto h = instance.communication_graph();
  const auto balls = all_balls(h, 1);
  const auto sets = compute_growth_sets(instance, balls);
  // Ball sizes on the path 0-1-2-3: 2, 3, 3, 2.
  EXPECT_EQ(sets.ball_size, (std::vector<std::size_t>{2, 3, 3, 2}));
  // Resource 0 couples {0,1}: U = B(0)∪B(1) = {0,1,2}, n = 2.
  EXPECT_EQ(sets.N_i[0], 3u);
  EXPECT_EQ(sets.n_i[0], 2u);
  // Singleton party of agent 0: S_k = B(0) of size 2, M_k = 2.
  EXPECT_EQ(sets.m_k[0], 2u);
  EXPECT_EQ(sets.M_k[0], 2u);
  // β_0 = min over resources of agent 0 = 2/3.
  EXPECT_NEAR(sets.beta[0], 2.0 / 3.0, 1e-12);
  // β_1: resources {0,1}: n/N = 2/3 (res 0: balls 2,3 → N=3) and res 1
  // couples {1,2}: U = B(1)∪B(2) = {0..3}, n = 3 → 3/4. β_1 = 2/3.
  EXPECT_NEAR(sets.beta[1], 2.0 / 3.0, 1e-12);
}

TEST(GrowthSets, TheoremBoundsHold) {
  // Theorem 3's internal inequalities: max_k M_k/m_k <= γ(R−1) and
  // max_i N_i/n_i <= γ(R).
  const auto instance = make_grid_instance({.dims = {6, 6}, .torus = true});
  const auto h = instance.communication_graph();
  for (const std::int32_t R : {1, 2}) {
    const auto balls = all_balls(h, R);
    const auto sets = compute_growth_sets(instance, balls);
    const double gamma_r_minus_1 = growth_gamma(h, R - 1);
    const double gamma_r = growth_gamma(h, R);
    EXPECT_LE(sets.max_party_ratio(), gamma_r_minus_1 + 1e-9) << "R=" << R;
    EXPECT_LE(sets.max_resource_ratio(), gamma_r + 1e-9) << "R=" << R;
    EXPECT_LE(sets.ratio_bound(), gamma_r_minus_1 * gamma_r + 1e-9);
  }
}

TEST(GrowthSets, SkIncludesVk) {
  // With party hyperedges in H, V_k is a clique, so S_k ⊇ V_k.
  const auto instance = make_grid_instance({.dims = {4, 4}, .torus = true});
  const auto h = instance.communication_graph();
  const auto balls = all_balls(h, 1);
  const auto sets = compute_growth_sets(instance, balls);
  for (PartyId k = 0; k < instance.num_parties(); ++k) {
    EXPECT_GE(sets.m_k[static_cast<std::size_t>(k)],
              instance.party_support(k).size());
  }
}

}  // namespace
}  // namespace mmlp
