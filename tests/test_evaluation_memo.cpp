// The evaluation memo: engine::solve evaluates x against the session's
// last evaluation (core/solution's evaluate_spliced), re-summing only
// the rows incident to agents whose x bits moved or whose coefficients
// were edited since. The memo is an optimisation only. After every
// request, ω, feasibility and the party benefits on the result — and
// the memo's own per-row sums — must be bit-equal to the stateless
// evaluate() of the same x, whatever edits, algorithms, cancelled
// requests and concurrent solves came before. The solve memos ride
// along: concurrent requests on one session must answer the stateless
// reference's x too.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <latch>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "mmlp/core/instance.hpp"
#include "mmlp/core/local_averaging.hpp"
#include "mmlp/core/safe.hpp"
#include "mmlp/core/solution.hpp"
#include "mmlp/dist/algorithms.hpp"
#include "mmlp/engine/session.hpp"
#include "mmlp/engine/solver.hpp"
#include "mmlp/gen/grid.hpp"
#include "mmlp/util/rng.hpp"
#include "test_helpers.hpp"

namespace mmlp {
namespace {

using engine::Session;
using engine::SolveRequest;
using engine::SolveResult;
using testing::pick_agent;
using testing::removable;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

::testing::AssertionResult bit_equal(const std::vector<double>& actual,
                                     const std::vector<double>& expected) {
  if (actual.size() != expected.size()) {
    return ::testing::AssertionFailure()
           << "size " << actual.size() << " vs " << expected.size();
  }
  for (std::size_t r = 0; r < actual.size(); ++r) {
    if (!same_bits(actual[r], expected[r])) {
      return ::testing::AssertionFailure()
             << "entry " << r << ": " << actual[r] << " vs " << expected[r];
    }
  }
  return ::testing::AssertionSuccess();
}

/// One random, always-valid delta of one of the six edit kinds (plus
/// support inserts, which set_usage / set_benefit make on absent
/// entries).
InstanceDelta random_edit(Rng& rng, const Instance& instance) {
  InstanceDelta delta;
  const AgentId v = pick_agent(rng, instance);
  const CoefSpan resources = instance.agent_resources(v);
  const CoefSpan parties = instance.agent_parties(v);
  switch (rng.next_below(8)) {
    case 0:
    case 1: {  // set_usage on an existing entry
      const Coef& entry = resources[rng.next_below(resources.size())];
      delta.set_usage(entry.id, v, rng.uniform(0.1, 2.0));
      return delta;
    }
    case 2: {  // set_usage on an absent entry: a support insert
      const auto i = static_cast<ResourceId>(rng.next_below(
          static_cast<std::uint64_t>(instance.num_resources())));
      if (instance.usage(i, v) != 0.0) {
        return random_edit(rng, instance);
      }
      delta.set_usage(i, v, rng.uniform(0.1, 1.0));
      return delta;
    }
    case 3: {  // erase_usage, keeping I_v and V_i nonempty
      const Coef& entry = resources[rng.next_below(resources.size())];
      if (resources.size() < 2 ||
          instance.resource_support(entry.id).size() < 2) {
        return random_edit(rng, instance);
      }
      delta.erase_usage(entry.id, v);
      return delta;
    }
    case 4: {  // set_benefit on an existing or an absent entry
      const auto k = parties.empty() || rng.bernoulli(0.3)
                         ? static_cast<PartyId>(rng.next_below(
                               static_cast<std::uint64_t>(
                                   instance.num_parties())))
                         : parties[rng.next_below(parties.size())].id;
      delta.set_benefit(k, v, rng.uniform(0.1, 1.0));
      return delta;
    }
    case 5: {  // erase_benefit, keeping V_k nonempty
      if (parties.empty()) {
        return random_edit(rng, instance);
      }
      const Coef& entry = parties[rng.next_below(parties.size())];
      if (instance.party_support(entry.id).size() < 2) {
        return random_edit(rng, instance);
      }
      delta.erase_benefit(entry.id, v);
      return delta;
    }
    case 6: {  // add_agents, attached next to v
      const AgentId fresh = instance.num_agents();
      delta.add_agents(1);
      delta.set_usage(resources.front().id, fresh, rng.uniform(0.1, 1.0));
      if (!parties.empty()) {
        delta.set_benefit(parties.front().id, fresh, rng.uniform(0.1, 1.0));
      }
      return delta;
    }
    default: {  // remove_agent (ids remap)
      if (!removable(instance, v) || instance.num_agents() < 40) {
        return random_edit(rng, instance);
      }
      delta.remove_agent(v);
      return delta;
    }
  }
}

/// The result's evaluation against the stateless reference.
void expect_matches_stateless(const Instance& instance,
                              const SolveResult& result,
                              const std::string& context) {
  ASSERT_EQ(result.status, engine::SolveStatus::kOk) << context;
  ASSERT_TRUE(result.has_solution) << context;
  std::vector<double> benefits;
  const Evaluation reference = evaluate(instance, result.x, &benefits);
  EXPECT_TRUE(same_bits(result.omega, reference.omega))
      << context << ": " << result.omega << " vs " << reference.omega;
  EXPECT_EQ(result.feasible, reference.feasible()) << context;
  EXPECT_TRUE(bit_equal(result.party_benefit, benefits)) << context;
}

/// The memo after a request that ran alone: it holds that request's x
/// and every row sum the stateless kernel gives for it.
void expect_memo_whole(Session& session, const std::vector<double>& x,
                       const std::string& context) {
  const Instance& instance = session.instance();
  Session::EvaluationLease lease = session.try_evaluation_memo();
  ASSERT_NE(lease.memo, nullptr) << context;
  ASSERT_TRUE(lease.memo->valid) << context;
  EXPECT_EQ(lease.memo->revision, instance.revision()) << context;
  const EvaluationState& state = lease.memo->state;
  EXPECT_TRUE(bit_equal(state.x, x)) << context;
  std::vector<double> loads;
  for (ResourceId i = 0; i < instance.num_resources(); ++i) {
    loads.push_back(resource_load(instance, x, i));
  }
  std::vector<double> benefits;
  for (PartyId k = 0; k < instance.num_parties(); ++k) {
    benefits.push_back(party_benefit(instance, x, k));
  }
  EXPECT_TRUE(bit_equal(state.resource_load, loads)) << context;
  EXPECT_TRUE(bit_equal(state.party_benefit, benefits)) << context;
}

TEST(EvaluateSpliced, BitEqualToStatelessUnderEditStreams) {
  Instance instance = make_grid_instance(
      {.dims = {9, 9}, .torus = true, .randomize = true, .seed = 5});
  Rng rng(31);
  std::vector<double> x = safe_solution(instance);
  EvaluationState state;
  (void)evaluate(instance, x, state);

  std::size_t spliced = 0;
  for (std::size_t step = 0; step < 300; ++step) {
    const std::string context = "step " + std::to_string(step);
    const DeltaEffect effect = instance.apply(random_edit(rng, instance));
    // A fresh x each step: the safe rule moves only near the edit; a
    // few random entries are then scaled (some past feasibility, some
    // negative) so argmax and the −x_v violation term move too.
    x = safe_solution(instance);
    for (int p = 0; p < 3; ++p) {
      const auto v = static_cast<std::size_t>(pick_agent(rng, instance));
      x[v] *= rng.bernoulli(0.2) ? -0.5 : rng.uniform(0.5, 3.0);
    }

    std::optional<Evaluation> actual;
    if (!effect.remapped) {
      actual = evaluate_spliced(instance, x, effect.touched, state);
    }
    if (actual.has_value()) {
      ++spliced;
    } else {
      actual = evaluate(instance, x, state);
    }
    std::vector<double> benefits;
    const Evaluation expected = evaluate(instance, x, &benefits);
    EXPECT_TRUE(same_bits(actual->omega, expected.omega)) << context;
    EXPECT_TRUE(same_bits(actual->worst_violation, expected.worst_violation))
        << context;
    EXPECT_EQ(actual->argmin_party, expected.argmin_party) << context;
    EXPECT_EQ(actual->argmax_resource, expected.argmax_resource) << context;
    EXPECT_TRUE(bit_equal(state.party_benefit, benefits)) << context;
    EXPECT_TRUE(bit_equal(state.x, x)) << context;
    std::vector<double> loads;
    for (ResourceId i = 0; i < instance.num_resources(); ++i) {
      loads.push_back(resource_load(instance, x, i));
    }
    EXPECT_TRUE(bit_equal(state.resource_load, loads)) << context;
  }
  // Additions and removals change the shape and force the full pass;
  // everything else splices.
  EXPECT_GT(spliced, 150u);
}

TEST(EvaluateSpliced, DeclinesWhenMuchOfXMoved) {
  const Instance instance = make_grid_instance({.dims = {8, 8}});
  std::vector<double> x = safe_solution(instance);
  EvaluationState state;
  (void)evaluate(instance, x, state);
  const EvaluationState before = state;
  for (double& value : x) {
    value *= 0.5;
  }
  EXPECT_FALSE(evaluate_spliced(instance, x, {}, state).has_value());
  EXPECT_TRUE(bit_equal(state.x, before.x));  // untouched on decline
  EXPECT_TRUE(bit_equal(state.party_benefit, before.party_benefit));
}

TEST(EvaluationMemo, EditStreamAcrossAlgorithmsStaysBitEqual) {
  Instance instance = make_grid_instance(
      {.dims = {10, 10}, .torus = true, .randomize = true, .seed = 8});
  Session session(instance);
  const std::vector<SolveRequest> requests = {
      {.algorithm = "safe"},
      {.algorithm = "safe", .incremental = true},
      {.algorithm = "averaging", .R = 1},
      {.algorithm = "averaging", .R = 1, .incremental = true},
      {.algorithm = "distributed-averaging", .R = 1},
      {.algorithm = "distributed-averaging", .R = 1, .incremental = true},
  };

  Rng rng(202);
  std::int64_t spliced = 0;
  std::int64_t full = 0;
  for (std::size_t step = 0; step < 120; ++step) {
    (void)session.apply(random_edit(rng, instance));
    // Two requests per edit: the first sees the edit, the second (a
    // repeat or another algorithm) sees none.
    for (int repeat = 0; repeat < 2; ++repeat) {
      const SolveRequest& request = requests[rng.next_below(requests.size())];
      const std::string context = "step " + std::to_string(step) + " " +
                                  request.algorithm +
                                  (request.incremental ? " incremental" : "");
      const SolveResult result = engine::solve(session, request);
      expect_matches_stateless(instance, result, context);
      expect_memo_whole(session, result.x, context);
      spliced += result.counters.at("evaluate_spliced");
      full += result.counters.at("evaluate_full");
      EXPECT_EQ(result.counters.at("evaluate_spliced") +
                    result.counters.at("evaluate_full"),
                1)
          << context;
      EXPECT_GE(result.evaluate_ms, 0.0) << context;
      EXPECT_LE(result.cache_build_ms + result.evaluate_ms,
                result.total_ms + 1e-9)
          << context;
    }
  }
  EXPECT_GT(spliced, 60);  // the splice really ran
  EXPECT_GT(full, 0);       // and so did the structural fallbacks
}

TEST(EvaluationMemo, CoefficientEditWithUnmovedXIsSpliced) {
  // set_benefit leaves the safe x bit for bit where it was: only the
  // edit log can tell the memo that a party benefit moved.
  Instance instance = make_grid_instance(
      {.dims = {8, 8}, .torus = true, .randomize = true, .seed = 3});
  Session session(instance);
  const SolveRequest safe{.algorithm = "safe"};
  const SolveResult before = engine::solve(session, safe);
  InstanceDelta delta;
  const CoefSpan parties = instance.agent_parties(27);
  ASSERT_FALSE(parties.empty());
  delta.set_benefit(parties.front().id, 27, 0.123);
  (void)session.apply(delta);

  const SolveResult after = engine::solve(session, safe);
  EXPECT_EQ(after.x, before.x);
  EXPECT_EQ(after.counters.at("evaluate_spliced"), 1);
  EXPECT_NE(after.party_benefit, before.party_benefit);
  expect_matches_stateless(instance, after, "after set_benefit");
  expect_memo_whole(session, after.x, "after set_benefit");
}

TEST(EvaluationMemo, DeadlineCancelledRequestLeavesMemoCoherent) {
  // 2500 agents of view LPs overrun a 1 ms budget, so the deadline
  // fires mid-solve; edits land around the cancelled requests.
  Instance instance = make_grid_instance(
      {.dims = {50, 50}, .torus = true, .randomize = true, .seed = 4});
  Session session(instance);
  const SolveRequest safe{.algorithm = "safe"};
  expect_matches_stateless(instance, engine::solve(session, safe), "prime");

  Rng rng(9);
  for (std::size_t round = 0; round < 3; ++round) {
    const std::string context = "round " + std::to_string(round);
    (void)session.apply(random_edit(rng, instance));
    SolveRequest doomed{.algorithm = "averaging", .R = 1,
                        .incremental = round % 2 == 1};
    doomed.deadline_ms = 1;
    const SolveResult timed_out = engine::solve(session, doomed);
    ASSERT_EQ(timed_out.status, engine::SolveStatus::kTimeout) << context;
    EXPECT_EQ(timed_out.evaluate_ms, 0.0) << context;
    (void)session.apply(random_edit(rng, instance));

    const SolveResult result = engine::solve(session, safe);
    expect_matches_stateless(instance, result, context);
    expect_memo_whole(session, result.x, context);
  }
}

TEST(EvaluationMemo, ConcurrentSolvesEvaluateCorrectly) {
  // Non-incremental solves may overlap on one session: one holds the
  // memo, the others find it busy and evaluate statelessly. Every
  // result must match the stateless reference either way.
  const Instance instance = make_grid_instance(
      {.dims = {12, 12}, .torus = true, .randomize = true, .seed = 6});
  Session session(instance);
  const std::vector<SolveRequest> requests = {
      {.algorithm = "safe"},
      {.algorithm = "averaging", .R = 1},
      {.algorithm = "uniform"},
  };
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < 3; ++t) {
    callers.emplace_back([&, t] {
      for (std::size_t r = 0; r < 12; ++r) {
        const SolveResult result =
            engine::solve(session, requests[(t + r) % requests.size()]);
        std::vector<double> benefits;
        const Evaluation reference = evaluate(instance, result.x, &benefits);
        if (!result.has_solution || !same_bits(result.omega, reference.omega) ||
            result.feasible != reference.feasible() ||
            !bit_equal(result.party_benefit, benefits)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& caller : callers) {
    caller.join();
  }
  EXPECT_EQ(mismatches.load(), 0);

  // Afterwards the memo is whole for whichever x it holds last.
  const SolveResult last = engine::solve(session, requests[0]);
  expect_matches_stateless(instance, last, "after the concurrent solves");
  expect_memo_whole(session, last.x, "after the concurrent solves");
}

TEST(EvaluationMemo, ConcurrentMemoFirstSolvesMatchTheStatelessReference) {
  // Four callers start together after each edit and mix requests that
  // share a solve memo (the same algorithm and options; dedup and the
  // ignored incremental key do not change the memo) with requests that
  // do not. Callers 0 and 1 issue the same sequence, and 2 and 3 the
  // same sequence shifted by one dedup flip, so every request collides
  // with its twin on one memo. Sharers take turns on the memo's lease:
  // the first after an edit splices, the rest find it fresh. Every x
  // must be the stateless reference's, bit for bit, and every
  // evaluation the stateless evaluate()'s.
  Instance instance = make_grid_instance(
      {.dims = {8, 8}, .torus = true, .randomize = true, .seed = 12});
  Session session(instance);
  std::vector<SolveRequest> requests;
  for (const std::int32_t R : {1, 2}) {
    for (const char* algorithm :
         {"averaging", "safe", "distributed-averaging"}) {
      if (R == 2 && std::string(algorithm) != "averaging") {
        continue;
      }
      for (const bool deduplicate : {false, true}) {
        for (const bool incremental : {true, false}) {
          SolveRequest request;
          request.algorithm = algorithm;
          request.R = R;
          request.deduplicate = deduplicate;
          request.incremental = incremental;
          requests.push_back(request);
        }
      }
    }
  }

  Rng rng(31);
  for (std::size_t round = 0; round < 6; ++round) {
    if (round > 0) {
      (void)session.apply(random_edit(rng, instance));
    }
    const std::vector<double> safe = safe_solution(instance);
    const std::vector<double> averaging_r1 =
        local_averaging(instance, {.R = 1}).x;
    const std::vector<double> averaging_r2 =
        local_averaging(instance, {.R = 2}).x;
    const std::vector<double> distributed =
        distributed_local_averaging(instance, {.R = 1});
    const auto reference = [&](const SolveRequest& request)
        -> const std::vector<double>& {
      if (request.algorithm == "safe") {
        return safe;
      }
      if (request.algorithm == "distributed-averaging") {
        return distributed;
      }
      return request.R == 1 ? averaging_r1 : averaging_r2;
    };

    std::atomic<int> mismatches{0};
    std::latch start(4);
    std::vector<std::thread> callers;
    for (std::size_t t = 0; t < 4; ++t) {
      callers.emplace_back([&, t] {
        start.arrive_and_wait();
        for (std::size_t r = 0; r < requests.size(); ++r) {
          const SolveRequest& request =
              requests[(r + 2 * (t / 2)) % requests.size()];
          const SolveResult result = engine::solve(session, request);
          std::vector<double> benefits;
          const Evaluation evaluation =
              evaluate(instance, result.x, &benefits);
          if (!result.has_solution ||
              !bit_equal(result.x, reference(request)) ||
              !same_bits(result.omega, evaluation.omega) ||
              result.feasible != evaluation.feasible() ||
              !bit_equal(result.party_benefit, benefits)) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& caller : callers) {
      caller.join();
    }
    EXPECT_EQ(mismatches.load(), 0) << "round " << round;
  }
}

}  // namespace
}  // namespace mmlp
