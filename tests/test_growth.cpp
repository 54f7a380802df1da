#include "mmlp/graph/growth.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "mmlp/core/view.hpp"
#include "mmlp/engine/session.hpp"
#include "mmlp/gen/geometric.hpp"
#include "mmlp/gen/grid.hpp"
#include "mmlp/gen/random_instance.hpp"
#include "mmlp/graph/bfs.hpp"
#include "mmlp/util/parallel.hpp"
#include "mmlp/util/scratch_pool.hpp"
#include "test_helpers.hpp"

namespace mmlp {
namespace {

Hypergraph cycle(std::int32_t n) {
  std::vector<std::vector<NodeId>> edges;
  for (NodeId v = 0; v < n; ++v) {
    edges.push_back({v, (v + 1) % n});
  }
  return Hypergraph::from_edges(n, edges);
}

TEST(BallProfile, CycleBallSizes) {
  const auto h = cycle(12);
  const auto profile = ball_size_profile(h, 0, 4);
  // On a cycle |B(v, r)| = 2r + 1 while 2r + 1 <= n.
  EXPECT_EQ(profile, (std::vector<std::size_t>{1, 3, 5, 7, 9}));
}

TEST(BallProfile, SaturatesAtComponentSize) {
  const auto h = cycle(6);
  const auto profile = ball_size_profile(h, 0, 5);
  EXPECT_EQ(profile.back(), 6u);
  EXPECT_EQ(profile[3], 6u);  // saturated at r = 3 already
}

TEST(Growth, CycleGamma) {
  const auto h = cycle(64);
  // γ(r) = (2r+3)/(2r+1) on a long cycle.
  EXPECT_NEAR(growth_gamma(h, 0), 3.0, 1e-12);
  EXPECT_NEAR(growth_gamma(h, 1), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(growth_gamma(h, 2), 7.0 / 5.0, 1e-12);
}

TEST(Growth, ProfileMatchesPointwiseGamma) {
  const auto h = cycle(32);
  const auto profile = growth_profile(h, 3);
  for (std::int32_t r = 0; r <= 3; ++r) {
    EXPECT_NEAR(profile[static_cast<std::size_t>(r)], growth_gamma(h, r), 1e-12);
  }
}

TEST(Growth, GammaDecreasesOnGrids) {
  // The paper's point: on d-dimensional grids γ(r) = 1 + Θ(1/r).
  const auto instance = make_grid_instance({.dims = {9, 9}, .torus = true});
  const auto h = instance.communication_graph();
  const auto profile = growth_profile(h, 3);
  EXPECT_GT(profile[0], profile[1]);
  EXPECT_GT(profile[1], profile[2]);
  EXPECT_GE(profile[2], 1.0);
}

TEST(Growth, Theorem3BoundIsProductOfGammas) {
  const auto h = cycle(64);
  const auto profile = growth_profile(h, 2);
  EXPECT_NEAR(theorem3_bound(h, 2), profile[1] * profile[2], 1e-12);
  EXPECT_NEAR(theorem3_bound(h, 1), profile[0] * profile[1], 1e-12);
}

TEST(Growth, CliqueSaturatesImmediately) {
  const auto h = Hypergraph::from_edges(5, {{0, 1, 2, 3, 4}});
  EXPECT_NEAR(growth_gamma(h, 1), 1.0, 1e-12);  // B(v,1) is already everything
  EXPECT_NEAR(growth_gamma(h, 0), 5.0, 1e-12);
}

// ---------------------------------------------------------------------
// GrowthSets (Figure 2) against an independent reference. compute and
// repair share one row kernel, so repaired-vs-fresh alone no longer
// compares two implementations; this reference materialises S_k and U_i
// with sorted-list set_intersection / set_union.

GrowthSets reference_growth_sets(const Instance& instance,
                                 const std::vector<std::vector<AgentId>>& balls) {
  GrowthSets sets;
  for (const auto& ball : balls) {
    sets.ball_size.push_back(ball.size());
    sets.peak_ball = std::max(sets.peak_ball, ball.size());
  }
  std::vector<AgentId> current;
  std::vector<AgentId> next;
  for (PartyId k = 0; k < instance.num_parties(); ++k) {
    const CoefSpan support = instance.party_support(k);
    current = balls[static_cast<std::size_t>(support.front().id)];
    std::size_t max_ball = 0;
    for (const Coef& entry : support) {
      const auto& ball_j = balls[static_cast<std::size_t>(entry.id)];
      max_ball = std::max(max_ball, ball_j.size());
      next.clear();
      std::set_intersection(current.begin(), current.end(), ball_j.begin(),
                            ball_j.end(), std::back_inserter(next));
      current.swap(next);
    }
    sets.m_k.push_back(current.size());
    sets.M_k.push_back(max_ball);
  }
  for (ResourceId i = 0; i < instance.num_resources(); ++i) {
    current.clear();
    std::size_t min_ball = std::numeric_limits<std::size_t>::max();
    for (const Coef& entry : instance.resource_support(i)) {
      const auto& ball_j = balls[static_cast<std::size_t>(entry.id)];
      min_ball = std::min(min_ball, ball_j.size());
      next.clear();
      std::set_union(current.begin(), current.end(), ball_j.begin(),
                     ball_j.end(), std::back_inserter(next));
      current.swap(next);
    }
    sets.N_i.push_back(current.size());
    sets.n_i.push_back(min_ball);
  }
  for (AgentId j = 0; j < instance.num_agents(); ++j) {
    double beta = std::numeric_limits<double>::infinity();
    for (const Coef& entry : instance.agent_resources(j)) {
      const auto i = static_cast<std::size_t>(entry.id);
      beta = std::min(beta, static_cast<double>(sets.n_i[i]) /
                                static_cast<double>(sets.N_i[i]));
    }
    sets.beta.push_back(beta);
  }
  for (std::size_t k = 0; k < sets.m_k.size(); ++k) {
    sets.party_ratio =
        sets.m_k[k] == 0
            ? std::numeric_limits<double>::infinity()
            : std::max(sets.party_ratio, static_cast<double>(sets.M_k[k]) /
                                             static_cast<double>(sets.m_k[k]));
  }
  for (std::size_t i = 0; i < sets.N_i.size(); ++i) {
    sets.resource_ratio =
        std::max(sets.resource_ratio, static_cast<double>(sets.N_i[i]) /
                                          static_cast<double>(sets.n_i[i]));
  }
  return sets;
}

void expect_same_sets(const GrowthSets& actual, const GrowthSets& expected,
                      const std::string& where) {
  EXPECT_EQ(actual.ball_size, expected.ball_size) << where;
  EXPECT_EQ(actual.m_k, expected.m_k) << where;
  EXPECT_EQ(actual.M_k, expected.M_k) << where;
  EXPECT_EQ(actual.N_i, expected.N_i) << where;
  EXPECT_EQ(actual.n_i, expected.n_i) << where;
  EXPECT_EQ(actual.beta, expected.beta) << where;
  EXPECT_EQ(actual.peak_ball, expected.peak_ball) << where;
  EXPECT_EQ(actual.party_ratio, expected.party_ratio) << where;
  EXPECT_EQ(actual.resource_ratio, expected.resource_ratio) << where;
}

std::vector<std::pair<std::string, Instance>> growth_families() {
  std::vector<std::pair<std::string, Instance>> families;
  families.emplace_back("random", make_random_instance({
                                      .num_agents = 400,
                                      .resources_per_agent = 3,
                                      .parties_per_agent = 2,
                                      .max_support = 4,
                                      .seed = 12,
                                  }));
  families.emplace_back(
      "grid", make_grid_instance(
                  {.dims = {9, 8}, .torus = true, .randomize = true, .seed = 4}));
  families.emplace_back("geometric",
                        make_geometric_instance({.num_agents = 200,
                                                 .radius = 0.11,
                                                 .randomize = true,
                                                 .seed = 9})
                            .instance);
  return families;
}

TEST(GrowthSetsReference, KernelMatchesOnPoolsOfOneTwoAndFour) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    // One scratch pool across every call: a stamp left set by any row
    // would corrupt a later count.
    ScratchPool<ViewScratch> scratch;
    for (const auto& [name, instance] : growth_families()) {
      for (const bool oblivious : {false, true}) {
        const Hypergraph h = instance.communication_graph(oblivious);
        for (const std::int32_t radius : {1, 2, 3}) {
          const auto balls = all_balls(h, radius);
          const std::string where =
              name + (oblivious ? " oblivious" : "") + " R=" +
              std::to_string(radius) + " threads=" + std::to_string(threads);
          expect_same_sets(compute_growth_sets(instance, balls, &pool, &scratch),
                           reference_growth_sets(instance, balls), where);
        }
      }
    }
  }
}

TEST(GrowthSetsReference, RepairMatchesAlongARandomEditStream) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    for (const auto& [name, original] : growth_families()) {
      Instance instance = original;
      engine::Session session(instance, {.threads = threads});
      for (const std::int32_t radius : {1, 2}) {
        (void)session.growth_sets(radius, false);
      }
      Rng rng(100 + threads);
      for (int step = 0; step < 25; ++step) {
        const engine::Session::ApplyReport report =
            session.apply(testing::random_growing_delta(rng, instance));
        ASSERT_FALSE(report.rebuilt) << name;
        for (const std::int32_t radius : {1, 2}) {
          expect_same_sets(
              session.growth_sets(radius, false),
              reference_growth_sets(instance, session.balls(radius, false)),
              name + " step " + std::to_string(step) + " R=" +
                  std::to_string(radius) +
                  " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

}  // namespace
}  // namespace mmlp
