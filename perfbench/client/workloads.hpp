// The benchmark's workloads. Each one generates its inputs from the
// workload seed, builds (and, where the caller would, primes) its
// serving state, hands out request lines one operation at a time, and
// checks every response against a reference computed outside the timed
// interval. See perfbench/README.md for why each workload exists.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mmlp/engine/session.hpp"
#include "mmlp/util/parallel.hpp"
#include "serve.hpp"

namespace perfbench {

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  Workload(Workload&&) = delete;
  Workload& operator=(Workload&&) = delete;

  /// Generate the inputs from `seed`, open and prime the serving state.
  /// Called several times per run (set-up time is reported as a median);
  /// each call replaces the previous state.
  virtual void setup(std::uint64_t seed) = 0;

  /// Reference answers for the output check; never timed.
  virtual void prepare_references() = 0;

  /// The request lines of operation `op`, in order. Ops are requested in
  /// ascending order, and the lines depend only on the seed and `op`.
  virtual std::vector<std::string> request_lines(std::uint64_t op) = 0;

  /// Serve one operation's lines, one response line each. Sets
  /// `*failed` when a line was answered with an error line.
  virtual std::vector<std::string> serve(const std::vector<std::string>& lines,
                                         std::uint64_t op, TraceContext* trace,
                                         bool* failed) = 0;

  /// The session whose radius-1 balls the operation just served built,
  /// for the traced per-view samples; nullptr when it solved no view LPs.
  virtual mmlp::engine::Session* view_session() { return nullptr; }

  /// End the operation after its responses are out (a one-shot caller
  /// closes its session here).
  virtual void finish_op(TraceContext* /*trace*/) {}

  /// Output check of operation `op`'s responses. `full` forces the
  /// sampled bitwise check on workloads that only sample it.
  virtual bool check(std::uint64_t op, const std::vector<std::string>& responses,
                     bool full) = 0;

  /// Output checks deferred until after the run, so their memory stays
  /// out of the workload's peak RSS. Returns how many failed.
  virtual std::int64_t verify_deferred() { return 0; }

  /// One line on the generated inputs, for the run context.
  virtual std::string describe() const = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        mmlp::ThreadPool& pool);

std::vector<std::string> workload_names();

}  // namespace perfbench
