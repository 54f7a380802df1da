#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "mmlp/core/local_averaging.hpp"
#include "mmlp/core/safe.hpp"
#include "mmlp/core/solution.hpp"
#include "mmlp/engine/solver.hpp"
#include "mmlp/gen/grid.hpp"
#include "mmlp/gen/random_instance.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/rng.hpp"

namespace perfbench {

using namespace mmlp;
using engine::Session;

namespace {

// Sizes for a 4-core box.
constexpr std::int32_t kRandomAgents = 10000;
constexpr std::int32_t kDedupGridAgents = 3600;
constexpr std::int32_t kLargeGridAgents = 100000;
constexpr std::size_t kColdSetSize = 8;  ///< instances a cold workload rotates
constexpr std::int64_t kMaxEditsPerRound = 16;
constexpr double kSampledCheckRate = 1.0 / 64.0;
constexpr std::size_t kMaxSampledChecks = 3;

/// A 2-D torus of about `agents` cells whose side lengths are drawn from
/// the seed (within 5% of square), so each seed serves a different grid.
GridOptions seeded_torus(Rng& rng, std::int32_t agents, bool randomize) {
  const double root = std::sqrt(static_cast<double>(agents));
  const auto spread = static_cast<std::int64_t>(root * 0.05);
  const auto side_a = static_cast<std::int32_t>(
      std::llround(root) + rng.uniform_int(-spread, spread));
  const auto side_b = static_cast<std::int32_t>(
      std::llround(static_cast<double>(agents) / side_a));
  return {.dims = {side_a, side_b},
          .torus = true,
          .randomize = randomize,
          .seed = rng.next_u64()};
}

std::string dims_text(const Instance& instance, const GridOptions& grid) {
  std::ostringstream text;
  text << grid.dims[0] << "x" << grid.dims[1] << " torus, "
       << instance.num_agents() << " agents"
       << (grid.randomize ? ", random coefficients" : ", unit coefficients");
  return text.str();
}

engine::SessionOptions shared(ThreadPool& pool) {
  return {.shared_pool = &pool};
}

/// Reference answer of a solve: ω, feasibility and x's bit digest.
struct Reference {
  double omega = 0.0;
  bool feasible = false;
  std::size_t agents = 0;
  std::uint64_t digest = 0;
};

Reference reference_of(const Instance& instance, const std::vector<double>& x) {
  const Evaluation evaluation = evaluate(instance, x);
  return {.omega = evaluation.omega,
          .feasible = evaluation.feasible(),
          .agents = x.size(),
          .digest = bit_digest(x)};
}

/// A result line matches `reference` bitwise: status ok, same ω bits,
/// same feasibility, and (when `x` is given) x of the same bit digest.
bool matches(const std::string& line, const Reference& reference,
             const std::vector<double>* x) {
  const std::optional<double> omega = number_field(line, "omega");
  const std::optional<bool> feasible = bool_field(line, "feasible");
  return status_ok(line) && omega.has_value() &&
         same_bits(*omega, reference.omega) && feasible == reference.feasible &&
         (x == nullptr ||
          (x->size() == reference.agents && bit_digest(*x) == reference.digest));
}

/// Shared shape of the cold workloads: every operation opens a fresh
/// Session on the next instance of a rotating set, serves one averaging
/// R=1 request with x returned, and closes the session.
class ColdAveraging : public Workload {
 public:
  ColdAveraging(ThreadPool& pool, bool deduplicate)
      : pool_(pool), deduplicate_(deduplicate) {}

  void setup(std::uint64_t seed) override {
    session_.reset();
    instances_.clear();
    Rng rng(seed);
    generate(rng);
    // Priming: one untimed request warms the allocator and the pool, so
    // timed ops pay only what every one-shot request pays.
    Session session(instances_.front(), shared(pool_));
    const engine::SolveResult primed = engine::solve(
        session, engine::SolveRequest{.algorithm = "averaging",
                                      .R = 1,
                                      .deduplicate = deduplicate_});
    MMLP_CHECK_MSG(primed.status == engine::SolveStatus::kOk,
                   "priming solve failed: " << primed.error);
  }

  void prepare_references() override {
    references_.clear();
    for (const Instance& instance : instances_) {
      // The session-free path; for the dedup workload the reference is
      // the dedup-off solve.
      const LocalAveragingResult reference =
          local_averaging(instance, LocalAveragingOptions{.R = 1});
      references_.push_back(reference_of(instance, reference.x));
    }
  }

  std::vector<std::string> request_lines(std::uint64_t op) override {
    std::ostringstream line;
    line << "{\"algorithm\": \"averaging\", \"R\": 1"
         << (deduplicate_ ? ", \"deduplicate\": true" : "") << ", \"id\": " << op
         << '}';
    return {line.str()};
  }

  std::vector<std::string> serve(const std::vector<std::string>& lines,
                                 std::uint64_t op, TraceContext* trace,
                                 bool* failed) override {
    const Instance& instance = instances_[op % instances_.size()];
    const auto open = [&]() -> Session& {
      ScopedSpan span(spans_of(trace), "engine.session_open");
      session_ = std::make_unique<Session>(instance, shared(pool_));
      return *session_;
    };
    return {serve_line(lines[0], op, open, /*emit_x=*/true, trace, nullptr,
                       failed)};
  }

  Session* view_session() override { return session_.get(); }

  void finish_op(TraceContext* trace) override {
    ScopedSpan span(spans_of(trace), "engine.session_close");
    session_.reset();
  }

  bool check(std::uint64_t op, const std::vector<std::string>& responses,
             bool /*full*/) override {
    std::vector<double> x;
    return responses.size() == 1 && parse_x(responses[0], x) &&
           matches(responses[0], references_[op % references_.size()], &x);
  }

 protected:
  /// Fill instances_ with the rotating set drawn from `rng`.
  virtual void generate(Rng& rng) = 0;

  ThreadPool& pool_;
  const bool deduplicate_;
  std::vector<Instance> instances_;
  std::vector<Reference> references_;
  std::unique_ptr<Session> session_;
};

class RandomCold : public ColdAveraging {
 public:
  explicit RandomCold(ThreadPool& pool) : ColdAveraging(pool, false) {}

  std::string describe() const override {
    std::ostringstream text;
    text << kColdSetSize << " random instances of " << kRandomAgents
         << " agents (3 resources, 2 parties per agent, support <= 4)";
    return text.str();
  }

 private:
  void generate(Rng& rng) override {
    for (std::size_t k = 0; k < kColdSetSize; ++k) {
      instances_.push_back(make_random_instance({
          .num_agents = kRandomAgents,
          .resources_per_agent = 3,
          .parties_per_agent = 2,
          .max_support = 4,
          .seed = rng.next_u64(),
      }));
    }
  }
};

class GridDedupCold : public ColdAveraging {
 public:
  explicit GridDedupCold(ThreadPool& pool) : ColdAveraging(pool, true) {}

  std::string describe() const override {
    std::ostringstream text;
    for (std::size_t k = 0; k < grids_.size(); ++k) {
      text << (k > 0 ? "; " : "") << dims_text(instances_[k], grids_[k]);
    }
    return text.str();
  }

 private:
  void generate(Rng& rng) override {
    grids_.clear();
    for (std::size_t k = 0; k < kColdSetSize; ++k) {
      grids_.push_back(seeded_torus(rng, kDedupGridAgents, false));
      instances_.push_back(make_grid_instance(grids_.back()));
    }
  }

  std::vector<GridOptions> grids_;
};

/// One primed mutable session on a 1e5 grid; each operation is one edit
/// round: k seeded set_usage value edits, then an incremental averaging
/// request without x.
class GridUpdateStream : public Workload {
 public:
  explicit GridUpdateStream(ThreadPool& pool) : pool_(pool) {}

  void setup(std::uint64_t seed) override {
    session_.reset();
    instance_.reset();
    Rng rng(seed);
    grid_ = seeded_torus(rng, kLargeGridAgents, true);
    instance_ = std::make_unique<Instance>(make_grid_instance(grid_));
    session_ = std::make_unique<Session>(*instance_, shared(pool_));
    // Priming: the first incremental request runs the full solve and
    // fills the memo the edit rounds splice into.
    engine::SolveRequest prime{.algorithm = "averaging", .R = 1,
                               .incremental = true};
    const engine::SolveResult primed = engine::solve(*session_, prime);
    MMLP_CHECK_MSG(primed.status == engine::SolveStatus::kOk,
                   "priming solve failed: " << primed.error);
    edits_ = Rng(rng.next_u64());
    sampling_ = Rng(rng.next_u64());
    rounds_.clear();
    sampled_.clear();
    reference_revision_ = ~std::uint64_t{0};
  }

  void prepare_references() override {}  // computed per checked round

  std::vector<std::string> request_lines(std::uint64_t op) override {
    MMLP_CHECK_EQ(rounds_.size(), op);  // rounds_ is indexed by op
    const Instance& instance = *instance_;
    const std::int64_t edits = edits_.uniform_int(1, kMaxEditsPerRound);
    InstanceDelta& delta = rounds_.emplace_back();
    std::ostringstream update;
    update << "{\"op\": \"update\", \"set_usage\": [";
    for (std::int64_t e = 0; e < edits; ++e) {
      ResourceId resource = 0;
      AgentId agent = 0;
      do {  // a delta may name each (i, v) once
        resource = static_cast<ResourceId>(edits_.next_below(
            static_cast<std::uint64_t>(instance.num_resources())));
        const CoefSpan support = instance.resource_support(resource);
        agent = support[edits_.next_below(support.size())].id;
      } while (std::any_of(delta.usages.begin(), delta.usages.end(),
                           [&](const InstanceDelta::CoefEdit& edit) {
                             return edit.row == resource && edit.v == agent;
                           }));
      const double a = edits_.uniform(0.5, 1.5);
      delta.set_usage(resource, agent, a);
      char value[32];
      std::snprintf(value, sizeof(value), "%.17g", a);
      update << (e > 0 ? ", " : "") << "{\"i\": " << resource
             << ", \"v\": " << agent << ", \"a\": " << value << '}';
    }
    update << "], \"id\": " << op << '}';
    std::ostringstream solve;
    solve << "{\"algorithm\": \"averaging\", \"R\": 1, \"incremental\": true, "
          << "\"id\": " << op << '}';
    return {update.str(), solve.str()};
  }

  std::vector<std::string> serve(const std::vector<std::string>& lines,
                                 std::uint64_t op, TraceContext* trace,
                                 bool* failed) override {
    const auto open = [&]() -> Session& { return *session_; };
    std::vector<std::string> responses;
    responses.reserve(lines.size());
    for (const std::string& line : lines) {
      responses.push_back(serve_line(line, op, open, /*emit_x=*/false, trace,
                                     &last_x_, failed));
    }
    return responses;
  }

  Session* view_session() override { return session_.get(); }

  bool check(std::uint64_t op, const std::vector<std::string>& responses,
             bool full) override {
    if (responses.size() != 2) {
      return false;
    }
    const std::string& update = responses[0];
    const std::string& solve = responses[1];
    const bool shape_ok =
        number_field(update, "revision") ==
            static_cast<double>(instance_->revision()) &&
        bool_field(update, "structural") == false &&
        bool_field(update, "rebuilt") == false && status_ok(solve) &&
        number_field(solve, "incremental") == 1.0 &&
        bool_field(solve, "feasible") == true;
    if (!shape_ok) {
      return false;
    }
    if (full) {
      // Bitwise against a cold, session-free solve of the mutated instance.
      if (reference_revision_ != instance_->revision()) {
        reference_ = cold_reference(*instance_);
        reference_revision_ = instance_->revision();
      }
      return matches(solve, reference_, &last_x_);
    }
    if (sampled_.size() < kMaxSampledChecks &&
        sampling_.bernoulli(kSampledCheckRate)) {
      // Recorded now, verified by verify_deferred() once the run is over.
      sampled_.push_back({.op = op, .line = solve, .x = last_x_});
    }
    return true;
  }

  /// Replays the recorded edit rounds on a freshly generated instance
  /// and checks each sampled round against a cold solve of its state.
  std::int64_t verify_deferred() override {
    std::int64_t failed = 0;
    Instance replay = make_grid_instance(grid_);
    std::uint64_t applied = 0;  // rounds_[0, applied) are in `replay`
    for (const SampledRound& round : sampled_) {
      try {
        for (; applied <= round.op; ++applied) {
          replay.apply(rounds_[applied]);
        }
        failed += matches(round.line, cold_reference(replay), &round.x) ? 0 : 1;
      } catch (const CheckError&) {
        ++failed;
      }
    }
    return failed;
  }

  std::string describe() const override {
    return dims_text(*instance_, grid_) + ", edit rounds of 1-16 set_usage, " +
           std::to_string(sampled_.size()) + " rounds sampled for replay checks";
  }

 private:
  struct SampledRound {
    std::uint64_t op = 0;
    std::string line;       ///< the solve response
    std::vector<double> x;  ///< the x the solve returned
  };

  static Reference cold_reference(const Instance& instance) {
    return reference_of(
        instance, local_averaging(instance, LocalAveragingOptions{.R = 1}).x);
  }

  ThreadPool& pool_;
  GridOptions grid_;
  std::unique_ptr<Instance> instance_;
  std::unique_ptr<Session> session_;
  Rng edits_;
  Rng sampling_;
  std::vector<InstanceDelta> rounds_;  ///< round op's edits, by op
  std::vector<SampledRound> sampled_;
  std::vector<double> last_x_;
  Reference reference_;
  std::uint64_t reference_revision_ = ~std::uint64_t{0};
};

/// Warm safe requests without x on a 1e5 grid: the safe kernel and the
/// O(n) evaluate() are each operation.
class GridSafe : public Workload {
 public:
  explicit GridSafe(ThreadPool& pool) : pool_(pool) {}

  void setup(std::uint64_t seed) override {
    session_.reset();
    instance_.reset();
    Rng rng(seed);
    grid_ = seeded_torus(rng, kLargeGridAgents, true);
    instance_ = std::make_unique<Instance>(make_grid_instance(grid_));
    session_ = std::make_unique<Session>(
        static_cast<const Instance&>(*instance_), shared(pool_));
    const engine::SolveResult primed =
        engine::solve(*session_, engine::SolveRequest{.algorithm = "safe"});
    MMLP_CHECK_MSG(primed.status == engine::SolveStatus::kOk,
                   "priming solve failed: " << primed.error);
  }

  void prepare_references() override {
    reference_x_ = safe_solution(*instance_);
    reference_ = reference_of(*instance_, reference_x_);
  }

  std::vector<std::string> request_lines(std::uint64_t op) override {
    return {"{\"algorithm\": \"safe\", \"id\": " + std::to_string(op) + "}"};
  }

  std::vector<std::string> serve(const std::vector<std::string>& lines,
                                 std::uint64_t op, TraceContext* trace,
                                 bool* failed) override {
    const auto open = [&]() -> Session& { return *session_; };
    return {serve_line(lines[0], op, open, /*emit_x=*/false, trace, &last_x_,
                       failed)};
  }

  bool check(std::uint64_t /*op*/, const std::vector<std::string>& responses,
             bool /*full*/) override {
    // ω on the line and the x the solve returned must equal
    // safe_solution's bit for bit.
    if (responses.size() != 1 || !matches(responses[0], reference_, nullptr) ||
        last_x_.size() != reference_x_.size()) {
      return false;
    }
    for (std::size_t v = 0; v < last_x_.size(); ++v) {
      if (!same_bits(last_x_[v], reference_x_[v])) {
        return false;
      }
    }
    return true;
  }

  std::string describe() const override { return dims_text(*instance_, grid_); }

 private:
  ThreadPool& pool_;
  GridOptions grid_;
  std::unique_ptr<Instance> instance_;
  std::unique_ptr<Session> session_;
  std::vector<double> reference_x_;
  std::vector<double> last_x_;
  Reference reference_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        ThreadPool& pool) {
  if (name == "random_cold") {
    return std::make_unique<RandomCold>(pool);
  }
  if (name == "grid_dedup_cold") {
    return std::make_unique<GridDedupCold>(pool);
  }
  if (name == "grid_update_stream") {
    return std::make_unique<GridUpdateStream>(pool);
  }
  if (name == "grid_safe") {
    return std::make_unique<GridSafe>(pool);
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  return {"random_cold", "grid_dedup_cold", "grid_update_stream", "grid_safe"};
}

}  // namespace perfbench
