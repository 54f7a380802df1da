#include "serve.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "mmlp/core/local_averaging.hpp"
#include "mmlp/core/safe.hpp"
#include "mmlp/core/solution.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/obs.hpp"

namespace perfbench {

using namespace mmlp;
using engine::Session;
using engine::SolveRequest;
using engine::SolveResult;

namespace {

std::int64_t counter_delta(const obs::MetricsSnapshot& before,
                           const obs::MetricsSnapshot& after,
                           const char* name) {
  const auto value = [name](const obs::MetricsSnapshot& snapshot) {
    const auto it = snapshot.counters.find(name);
    return it != snapshot.counters.end() ? it->second : std::int64_t{0};
  };
  return value(after) - value(before);
}

/// engine::solve broken into its layer calls. Only the algorithms the
/// workloads send (averaging, safe) are decomposed.
SolveResult traced_solve(Session& session, const SolveRequest& request,
                         TraceContext& trace) {
  SpanLog* spans = &trace.spans;
  LayerCounts& counts = trace.counts;
  const auto n = static_cast<std::int64_t>(session.instance().num_agents());
  const bool oblivious = request.collaboration_oblivious;

  SolveResult result;
  result.algorithm = request.algorithm;
  if (request.algorithm == "averaging") {
    {
      ScopedSpan span(spans, "graph.build");
      session.graph(oblivious);
    }
    {
      ScopedSpan span(spans, "graph.balls");
      session.balls(request.R, oblivious);
    }
    {
      ScopedSpan span(spans, "view.growth");
      session.growth_sets(request.R, oblivious);
    }
    if (request.deduplicate) {
      ScopedSpan span(spans, "view_class.build");
      session.view_classes(request.R, oblivious);
    }
    LocalAveragingOptions options;
    options.R = request.R;
    options.collaboration_oblivious = oblivious;
    options.damping = request.damping;
    options.lp = request.simplex;
    options.deduplicate = request.deduplicate;
    LocalAveragingResult averaging;
    IncrementalStats stats{.dirty_agents = static_cast<std::size_t>(n),
                           .resolved_agents = static_cast<std::size_t>(n)};
    {
      ScopedSpan span(spans, "averaging.kernel");
      averaging = request.incremental
                      ? local_averaging_incremental(session, options, &stats)
                      : local_averaging_with(session, options);
    }
    counts.averaging_agents += n;
    counts.dirty_agents += static_cast<std::int64_t>(stats.dirty_agents);
    counts.resolved_agents += static_cast<std::int64_t>(stats.resolved_agents);
    if (request.deduplicate) {
      counts.dedup_agents += n;
      counts.dedup_lp_solves += static_cast<std::int64_t>(averaging.lp_solves);
    }
    result.x = std::move(averaging.x);
    result.diagnostics["R"] = static_cast<double>(request.R);
    result.diagnostics["lp_solves"] = static_cast<double>(averaging.lp_solves);
    if (request.incremental) {
      result.diagnostics["incremental"] = stats.incremental ? 1.0 : 0.0;
      result.diagnostics["dirty_agents"] =
          static_cast<double>(stats.dirty_agents);
      result.diagnostics["resolved_agents"] =
          static_cast<double>(stats.resolved_agents);
    }
  } else if (request.algorithm == "safe") {
    ScopedSpan span(spans, "safe.kernel");
    result.x = safe_solution_with(
        session, SafeOptions{.deduplicate = request.deduplicate});
  } else {
    MMLP_CHECK_MSG(false, "the traced path decomposes averaging and safe "
                          "only, not '" << request.algorithm << "'");
  }
  result.has_solution = true;

  ScopedSpan span(spans, "solution.evaluate");
  const Evaluation evaluation =
      evaluate(session.instance(), result.x, &result.party_benefit);
  result.omega = evaluation.omega;
  result.feasible = evaluation.feasible();
  return result;
}

}  // namespace

engine::WireCommand parse_line(const std::string& line, TraceContext* trace) {
  ScopedSpan span(spans_of(trace), "wire.parse");
  return engine::parse_command_line(line);
}

SolveResult solve_request(Session& session, const SolveRequest& request,
                          TraceContext* trace) {
  if (trace == nullptr) {
    return engine::solve(session, request);
  }
  ScopedSpan span(&trace->spans, "engine.solve");
  const engine::SessionStats stats_before = session.stats();
  const obs::MetricsSnapshot before = obs::Registry::global().snapshot();
  SolveResult result = traced_solve(session, request, *trace);
  const obs::MetricsSnapshot after = obs::Registry::global().snapshot();
  LayerCounts& counts = trace->counts;
  counts.cache_misses += session.stats().cache_misses - stats_before.cache_misses;
  counts.simplex_solves += counter_delta(before, after, "simplex.solves");
  counts.simplex_pivots += counter_delta(before, after, "simplex.pivots");
  counts.ball_expansions += counter_delta(before, after, "bfs.ball_expansions");
  return result;
}

Session::ApplyReport apply_delta(Session& session, const InstanceDelta& delta,
                                 TraceContext* trace) {
  ScopedSpan span(spans_of(trace), "engine.apply");
  return session.apply(delta);
}

namespace {

/// Position just past `"key": ` in line, or npos.
std::size_t value_pos(std::string_view line, std::string_view key) {
  std::string pattern;
  pattern.reserve(key.size() + 4);
  pattern.append("\"").append(key).append("\": ");
  const std::size_t at = line.find(pattern);
  return at == std::string_view::npos ? at : at + pattern.size();
}

}  // namespace

std::optional<double> number_field(std::string_view line, std::string_view key) {
  const std::size_t at = value_pos(line, key);
  if (at == std::string_view::npos) {
    return std::nullopt;
  }
  // Response lines are NUL-terminated std::strings, so strtod stops at
  // the delimiter after the number at the latest.
  const char* begin = line.data() + at;
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin) {
    return std::nullopt;
  }
  return value;
}

std::optional<bool> bool_field(std::string_view line, std::string_view key) {
  const std::size_t at = value_pos(line, key);
  if (at == std::string_view::npos) {
    return std::nullopt;
  }
  const std::string_view rest = line.substr(at);
  if (rest.starts_with("true")) {
    return true;
  }
  if (rest.starts_with("false")) {
    return false;
  }
  return std::nullopt;
}

bool status_ok(std::string_view line) {
  return line.find("\"status\": \"ok\"") != std::string_view::npos;
}

bool parse_x(std::string_view line, std::vector<double>& x) {
  x.clear();
  std::size_t at = value_pos(line, "x");
  if (at == std::string_view::npos || at >= line.size() || line[at] != '[') {
    return false;
  }
  const char* cursor = line.data() + at + 1;
  const char* const stop = line.data() + line.size();
  while (cursor < stop && *cursor != ']') {
    char* end = nullptr;
    const double value = std::strtod(cursor, &end);
    if (end == cursor) {
      return false;
    }
    x.push_back(value);
    cursor = end;
    if (cursor < stop && *cursor == ',') {
      cursor += 2;  // ", "
    }
  }
  return cursor < stop;
}

std::uint64_t bit_digest(const std::vector<double>& x) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const double value : x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xFFU;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string corrupt_one_value(const std::string& line) {
  std::size_t at = value_pos(line, "x");
  if (at != std::string::npos) {
    ++at;  // past '['
  } else {
    at = value_pos(line, "omega");
  }
  MMLP_CHECK_MSG(at != std::string::npos,
                 "response carries neither x nor omega: " << line);
  char* end = nullptr;
  const double value = std::strtod(line.c_str() + at, &end);
  const auto length = static_cast<std::size_t>(end - (line.c_str() + at));
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value + 1.0);
  return line.substr(0, at) + buffer + line.substr(at + length);
}

}  // namespace perfbench
