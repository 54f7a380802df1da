// perfbench_client — one closed-loop client of libmmlp.
//
// It sends one request line, waits for its response line, checks it
// outside the timed interval, and only then sends the next: callers of
// mmlp_batch each wait for their reply. Each operation is timed with
// the client's own clock, from the line handed to the parser to the
// formatted response; SolveResult::total_ms is never read, because it
// stops before evaluate() and leaves out the wire.
//
//   perfbench_client --workload random_cold --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs half the time untraced and half traced (spans around every
// layer call, written to --spans-out at exit) and prints the per-layer
// metrics plus the tracing overhead. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "mmlp/core/view.hpp"
#include "mmlp/engine/wire.hpp"
#include "mmlp/lp/simplex.hpp"
#include "mmlp/util/parallel.hpp"
#include "mmlp/util/rng.hpp"
#include "serve.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

// setup_s is the median of a run's set-ups: at least kMinSetups, and
// more until kSetupSeconds of set-up time have passed (at most
// kMaxSetups), so a cheap set-up is sampled over as long as a dear one.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 40;
constexpr double kSetupSeconds = 2.0;
constexpr int kViewSamples = 8;    ///< agents timed through the view layer per op
constexpr int kWindows = 10;       ///< slices of a run's time; see window_figures()
constexpr double kWarmupS = 0.5;   ///< op time of the untimed warm-up ops...
constexpr int kMinWarmupOps = 2;   ///< ...of which there are at least this many

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double cpu_ms() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) * 1e3 +
         static_cast<double>(now.tv_nsec) * 1e-6;
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000U, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004U) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002U + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model.erase(model.find_last_not_of(std::string(" \0", 2)) + 1);
    model.erase(0, model.find_first_not_of(' '));
    return model;
  }
#endif
  return "unknown";
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Mean of the middle half: the sorted values less a quarter at each end.
double middle_mean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < values.size() - cut; ++i) {
    sum += values[i];
  }
  return sum / static_cast<double>(values.size() - 2 * cut);
}

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<double>& sorted, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

/// Worker activity summed over the pool.
struct PoolTotals {
  double busy_ns = 0.0;
  double idle_ns = 0.0;
  double chunks = 0.0;
  double steals = 0.0;
};

PoolTotals pool_totals(const mmlp::ThreadPool& pool) {
  PoolTotals totals;
  for (const auto& worker : pool.worker_stats()) {
    totals.busy_ns += static_cast<double>(worker.busy_ns);
    totals.idle_ns += static_cast<double>(worker.idle_ns);
    totals.chunks += static_cast<double>(worker.chunks);
    totals.steals += static_cast<double>(worker.steals);
  }
  return totals;
}

void accumulate(PoolTotals& into, const PoolTotals& from, const PoolTotals& to) {
  into.busy_ns += to.busy_ns - from.busy_ns;
  into.idle_ns += to.idle_ns - from.idle_ns;
  into.chunks += to.chunks - from.chunks;
  into.steals += to.steals - from.steals;
}

/// What one measured loop saw.
struct LoopResult {
  std::vector<double> latency_ms;  ///< line to parser -> formatted response
  std::vector<double> op_ms_each;  ///< each op's wall time, session close included
  std::vector<double> cpu_ms_each; ///< process CPU over the same intervals
  double op_ms = 0.0;   ///< summed op wall time
  double cpu_ms = 0.0;  ///< summed process CPU
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  PoolTotals pool;      ///< worker activity over the op intervals
  std::uint64_t last_op = 0;
  bool last_failed = false;
  std::vector<std::string> last_responses;
};

/// Time a seeded sample of agents through the view layer's entry points
/// (extraction, view-LP build, simplex) on the session the op just
/// used. Runs outside the op's timed interval.
void sample_views(mmlp::engine::Session& session, std::uint64_t seed,
                  std::uint64_t op, mmlp::ViewScratch& scratch,
                  TraceContext& trace) {
  const mmlp::Instance& instance = session.instance();
  const auto& balls = session.balls(1, false);
  mmlp::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (op + 1)));
  mmlp::LocalView view;
  ScopedSpan root(&trace.spans, "view.sample");
  for (int k = 0; k < kViewSamples; ++k) {
    const auto u = static_cast<mmlp::AgentId>(
        rng.next_below(static_cast<std::uint64_t>(instance.num_agents())));
    {
      ScopedSpan span(&trace.spans, "view.extract");
      mmlp::extract_view_into(instance, u, 1, balls[static_cast<std::size_t>(u)],
                              view, scratch);
    }
    {
      ScopedSpan span(&trace.spans, "view.lp_build");
      mmlp::view_lp_into(view, scratch.lp);
    }
    {
      ScopedSpan span(&trace.spans, "lp.simplex");
      mmlp::solve_lp(scratch.lp, mmlp::SimplexOptions{}, scratch.simplex);
    }
    ++trace.counts.views_sampled;
  }
}

/// Serves and checks ops, and times them until their op time adds up to
/// `seconds`. With `warm_up`, the first ops are served and checked but
/// not timed.
LoopResult run_loop(Workload& workload, mmlp::ThreadPool& pool, double seconds,
                    bool warm_up, std::uint64_t seed, std::uint64_t first_op,
                    TraceContext* trace) {
  LoopResult loop;
  mmlp::ViewScratch scratch;
  double warmup_ms = 0.0;
  std::int64_t warmup_ops = 0;
  for (std::uint64_t op = first_op; loop.op_ms < seconds * 1e3; ++op) {
    const std::vector<std::string> lines = workload.request_lines(op);
    if (trace != nullptr) {
      trace->spans.set_op(static_cast<std::int64_t>(op));
    }
    bool failed = false;
    std::vector<std::string> responses;

    const PoolTotals pool0 = pool_totals(pool);
    const double cpu0 = cpu_ms();
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(spans_of(trace), "op");
      responses = workload.serve(lines, op, trace, &failed);
    }
    const Clock::time_point t1 = Clock::now();
    const double cpu1 = cpu_ms();
    const PoolTotals pool1 = pool_totals(pool);

    mmlp::engine::Session* session = workload.view_session();
    if (trace != nullptr && session != nullptr) {
      sample_views(*session, seed, op, scratch, *trace);
    }

    const PoolTotals pool2 = pool_totals(pool);
    const double cpu2 = cpu_ms();
    const Clock::time_point t2 = Clock::now();
    workload.finish_op(trace);
    const Clock::time_point t3 = Clock::now();
    const double cpu3 = cpu_ms();
    const PoolTotals pool3 = pool_totals(pool);

    // The output check, outside every timed interval.
    failed = failed || !workload.check(op, responses, /*full=*/false);
    const double op_ms = ms_between(t0, t1) + ms_between(t2, t3);
    if (warm_up && (warmup_ms < kWarmupS * 1e3 || warmup_ops < kMinWarmupOps)) {
      warmup_ms += op_ms;
      ++warmup_ops;
    } else {
      loop.latency_ms.push_back(ms_between(t0, t1));
      loop.op_ms_each.push_back(op_ms);
      loop.cpu_ms_each.push_back((cpu1 - cpu0) + (cpu3 - cpu2));
      loop.op_ms += op_ms;
      loop.cpu_ms += loop.cpu_ms_each.back();
      accumulate(loop.pool, pool0, pool1);
      accumulate(loop.pool, pool2, pool3);
    }
    ++loop.attempted;
    loop.failed += failed ? 1 : 0;
    loop.last_op = op;
    loop.last_failed = failed;
    loop.last_responses = std::move(responses);
  }
  return loop;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_array(const std::vector<double>& values) {
  std::string text = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    text += (i > 0 ? ", " : "") + json_number(values[i]);
  }
  return text + "]";
}

double peak_rss_mb() {
  rusage usage{};
  return getrusage(RUSAGE_SELF, &usage) == 0
             ? static_cast<double>(usage.ru_maxrss) / 1024.0
             : 0.0;
}

/// The timing figures of one slice of a run.
struct WindowFigures {
  std::vector<double> ops_per_s;
  std::vector<double> p50_ms;
  std::vector<double> p90_ms;
  std::vector<double> cpu_ms_per_op;
  std::size_t min_ops = 0;  ///< fewest ops in one slice
};

/// Cuts the measured ops into kWindows consecutive slices of equal op
/// time (an op belongs to the slice its start falls in) and computes
/// each timing figure per slice. An end-to-end figure is the mean of its
/// middle half over the slices: slices hit by a burst of load from
/// elsewhere on a shared machine drop out, and the slower and faster
/// phases such a machine goes through for seconds at a time average
/// out rather than letting a median jump between them.
WindowFigures window_figures(const LoopResult& loop) {
  WindowFigures figures;
  const double width = loop.op_ms / kWindows;
  std::size_t begin = 0;
  double start = 0.0;
  figures.min_ops = loop.op_ms_each.size();
  for (int w = 0; w < kWindows; ++w) {
    std::size_t end = begin;
    double op_ms = 0.0;
    double cpu = 0.0;
    while (end < loop.op_ms_each.size() &&
           (w == kWindows - 1 || start < width * (w + 1))) {
      op_ms += loop.op_ms_each[end];
      cpu += loop.cpu_ms_each[end];
      start += loop.op_ms_each[end];
      ++end;
    }
    figures.min_ops = std::min(figures.min_ops, end - begin);
    if (end == begin) {
      continue;  // one op longer than a slice; the next slice has it
    }
    std::vector<double> sorted(loop.latency_ms.begin() + begin,
                               loop.latency_ms.begin() + end);
    std::sort(sorted.begin(), sorted.end());
    const auto ops = static_cast<double>(end - begin);
    figures.ops_per_s.push_back(ops / (op_ms * 1e-3));
    figures.p50_ms.push_back(percentile(sorted, 0.50));
    figures.p90_ms.push_back(percentile(sorted, 0.90));
    figures.cpu_ms_per_op.push_back(cpu / ops);
    begin = end;
  }
  return figures;
}

std::vector<Metric> end_to_end_metrics(const WindowFigures& windows,
                                       const std::vector<double>& setup_s,
                                       double peak_rss) {
  return {
      {"ops_per_s", middle_mean(windows.ops_per_s), "1/s"},
      {"latency_p50_ms", middle_mean(windows.p50_ms), "ms"},
      {"latency_p90_ms", middle_mean(windows.p90_ms), "ms"},
      {"cpu_ms_per_op", middle_mean(windows.cpu_ms_per_op), "ms"},
      {"peak_rss_mb", peak_rss, "MB"},
      {"setup_s", median(setup_s), "s"},
  };
}

std::vector<Metric> per_layer_metrics(const LoopResult& traced,
                                      const LoopResult& untraced,
                                      const TraceContext& trace,
                                      std::size_t workers) {
  const std::map<std::string, SpanTotals> totals = trace.spans.totals();
  const LayerCounts& counts = trace.counts;
  const auto span = [&](const char* name) {
    const auto it = totals.find(name);
    return it != totals.end() ? it->second : SpanTotals{};
  };
  const auto ratio = [](auto num, auto den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  const std::int64_t ops = traced.attempted;
  const auto per_op = [&](auto total) { return ratio(total, ops); };
  const auto self_per_op = [&](const char* name) {
    return per_op(span(name).self_ms);
  };
  const auto us_per_view = [&](const char* name) {
    return ratio(span(name).self_ms * 1e3, counts.views_sampled);
  };
  const double traced_ops_per_s = ratio(ops, traced.op_ms * 1e-3);
  const double untraced_ops_per_s =
      ratio(untraced.latency_ms.size(), untraced.op_ms * 1e-3);
  return {
      {"wire.parse_us", self_per_op("wire.parse") * 1e3, "us"},
      {"wire.format_ms", self_per_op("wire.format"), "ms"},
      {"wire.bytes_out", per_op(counts.bytes_out), "bytes"},
      // Inclusive: the whole reconstructed engine::solve.
      {"engine.solve_ms", per_op(span("engine.solve").inclusive_ms), "ms"},
      {"engine.apply_ms", self_per_op("engine.apply"), "ms"},
      {"engine.session_open_ms", self_per_op("engine.session_open"), "ms"},
      {"engine.session_close_ms", self_per_op("engine.session_close"), "ms"},
      {"engine.cache_misses", per_op(counts.cache_misses), "count"},
      {"graph.build_ms", self_per_op("graph.build"), "ms"},
      {"graph.balls_ms", self_per_op("graph.balls"), "ms"},
      {"graph.ball_expansions", per_op(counts.ball_expansions), "count"},
      {"view.growth_ms", self_per_op("view.growth"), "ms"},
      {"view.extract_us_per_view", us_per_view("view.extract"), "us"},
      {"view.lp_build_us_per_view", us_per_view("view.lp_build"), "us"},
      {"lp.simplex_us_per_view", us_per_view("lp.simplex"), "us"},
      {"lp.simplex_solves", per_op(counts.simplex_solves), "count"},
      {"lp.simplex_pivots", per_op(counts.simplex_pivots), "count"},
      {"view_class.build_ms", self_per_op("view_class.build"), "ms"},
      {"view_class.lp_solves", per_op(counts.dedup_lp_solves), "count"},
      {"view_class.dedup_ratio",
       counts.dedup_agents > 0
           ? 1.0 - ratio(counts.dedup_lp_solves, counts.dedup_agents)
           : 0.0,
       "ratio"},
      {"averaging.kernel_ms", self_per_op("averaging.kernel"), "ms"},
      {"averaging.dirty_agents", per_op(counts.dirty_agents), "count"},
      {"averaging.resolved_agents", per_op(counts.resolved_agents), "count"},
      {"averaging.resolved_fraction",
       ratio(counts.resolved_agents, counts.averaging_agents), "ratio"},
      {"safe.kernel_ms", self_per_op("safe.kernel"), "ms"},
      {"solution.evaluate_ms", self_per_op("solution.evaluate"), "ms"},
      {"parallel.busy_fraction",
       ratio(traced.pool.busy_ns,
             static_cast<double>(workers) * traced.op_ms * 1e6),
       "ratio"},
      {"parallel.idle_ms", per_op(traced.pool.idle_ns * 1e-6), "ms"},
      {"parallel.bulk_chunks", per_op(traced.pool.chunks), "count"},
      {"parallel.steals", per_op(traced.pool.steals), "count"},
      {"trace.ops_per_s_ratio", ratio(traced_ops_per_s, untraced_ops_per_s),
       "ratio"},
  };
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
  std::string commit = "unknown";
};

bool parse_args(int argc, char** argv, Args& args) try {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--spans-out") {
      args.spans_out = value;
    } else if (key == "--commit") {
      args.commit = value;
    } else {
      std::cerr << "perfbench_client: unknown flag " << key << '\n';
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
} catch (const std::exception&) {  // std::stoull / std::stod
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench_client --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans-out FILE] [--commit SHA]\n";
    return 2;
  }

  // One pool for everything the process solves: the sessions share it,
  // and the session-free reference solves run on it as the global pool.
  // Its workers plus the main thread, which joins every parallel
  // loop, number one less than the CPUs this process may run on: the
  // spare CPU takes the rest of the machine's load, which would
  // otherwise preempt a pool thread and stall every loop joining on it.
  const std::size_t cpus = online_cpus();
  const std::size_t workers = cpus > 2 ? cpus - 2 : 1;
  mmlp::set_global_thread_count(workers);
  mmlp::ThreadPool& pool = mmlp::ThreadPool::global();

  std::unique_ptr<Workload> workload = make_workload(args.workload, pool);
  if (workload == nullptr) {
    std::cerr << "perfbench_client: unknown workload '" << args.workload
              << "' (known:";
    for (const std::string& name : workload_names()) {
      std::cerr << ' ' << name;
    }
    std::cerr << ")\n";
    return 2;
  }

  std::vector<double> setup_s;
  for (double spent = 0.0; setup_s.size() < kMinSetups ||
                           (spent < kSetupSeconds && setup_s.size() < kMaxSetups);
       spent += setup_s.back()) {
    const Clock::time_point start = Clock::now();
    workload->setup(args.seed);
    setup_s.push_back(ms_between(start, Clock::now()) * 1e-3);
  }
  workload->prepare_references();

  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const LoopResult untraced = run_loop(*workload, pool, untraced_seconds,
                                       /*warm_up=*/true, args.seed, 0, nullptr);
  TraceContext trace;
  LoopResult traced;
  if (args.trace) {
    // Warm already: it follows the untraced half.
    traced = run_loop(*workload, pool, args.seconds / 2, /*warm_up=*/false,
                      args.seed, untraced.last_op + 1, &trace);
  }
  const LoopResult& last = args.trace ? traced : untraced;
  // Read before the deferred and final checks, whose reference solves
  // are not the workload's memory.
  const double peak_rss = peak_rss_mb();

  // Deferred sampled checks and the full check of the final state; then
  // the check self-test: one value altered in the client's copy of the
  // last response must be counted as failed.
  std::int64_t failed =
      untraced.failed + traced.failed + workload->verify_deferred();
  if (!last.last_failed &&
      !workload->check(last.last_op, last.last_responses, /*full=*/true)) {
    ++failed;
  }
  bool self_test_fired = false;
  try {
    std::vector<std::string> altered = last.last_responses;
    altered.back() = corrupt_one_value(altered.back());
    self_test_fired = !workload->check(last.last_op, altered, /*full=*/true);
  } catch (const mmlp::CheckError&) {
    // The last response is an error line: there is no value to alter,
    // and the run already counts that operation as failed.
  }

  const std::int64_t attempted = untraced.attempted + traced.attempted;
  const WindowFigures windows = window_figures(untraced);
  const std::vector<Metric> metrics =
      args.trace ? per_layer_metrics(traced, untraced, trace, workers)
                 : end_to_end_metrics(windows, setup_s, peak_rss);

  if (args.trace && !args.spans_out.empty()) {
    std::ofstream spans(args.spans_out);
    trace.spans.write_jsonl(spans);
  }

  // Human-readable report, then the context, then the result line.
  for (const Metric& metric : metrics) {
    std::cout << args.workload << ' ' << metric.name << " = "
              << json_number(metric.value) << ' ' << metric.unit << '\n';
  }
  const double failed_fraction =
      static_cast<double>(failed) / static_cast<double>(attempted);
  std::cout << args.workload << " failed_fraction = " << json_number(failed_fraction)
            << " ratio (" << failed << " of " << attempted << ")\n";
  std::cout << "{\"context\": {\"workload\": \"" << args.workload
            << "\", \"seed\": " << args.seed << ", \"seconds\": "
            << json_number(args.seconds) << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"nproc\": " << cpus << ", \"cpu_model\": \""
            << mmlp::engine::json_escape(cpu_model()) << "\", \"pool_workers\": "
            << workers << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"commit\": \"" << mmlp::engine::json_escape(args.commit)
            << "\", \"inputs\": \"" << mmlp::engine::json_escape(workload->describe())
            << "\", \"setups\": " << setup_s.size()
            << ", \"warmup_ops\": " << untraced.attempted -
                   static_cast<std::int64_t>(untraced.latency_ms.size())
            << ", \"latency_samples\": " << untraced.latency_ms.size()
            << ", \"windows\": " << kWindows
            << ", \"min_samples_per_window\": " << windows.min_ops
            << ", \"window_ops_per_s\": " << json_array(windows.ops_per_s)
            << ", \"min_samples_beyond_p90_per_window\": "
            << windows.min_ops -
                   static_cast<std::size_t>(std::ceil(
                       0.9 * static_cast<double>(windows.min_ops)))
            << ", \"views_sampled\": " << trace.counts.views_sampled
            << ", \"spans\": " << trace.spans.size()
            << ", \"failed_fraction\": " << json_number(failed_fraction)
            << ", \"check_self_test\": \"" << (self_test_fired ? "fired" : "MISSED")
            << "\"}}\n";

  std::cout << "{\"correct\": " << (failed == 0 && self_test_fired ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << '"' << metrics[i].name
              << "\": {\"value\": " << json_number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
