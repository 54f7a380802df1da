// One request line in, one response line out, through the public wire
// and engine calls: engine::parse_command_line, then engine::solve or
// Session::apply, then result_to_json_line / apply_report_to_json_line.
//
// With a TraceContext the solve is broken into the layer entry points
// engine::solve itself reaches, in its order — Session::graph, balls,
// growth_sets and view_classes, then the kernel (local_averaging_with,
// local_averaging_incremental or safe_solution_with), then evaluate —
// each wrapped in a span, and the layer counters are accumulated. The
// untraced path calls engine::solve as a black box.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mmlp/engine/session.hpp"
#include "mmlp/engine/solver.hpp"
#include "mmlp/engine/wire.hpp"
#include "spans.hpp"

namespace perfbench {

/// Layer counters summed over the traced operations.
struct LayerCounts {
  std::int64_t cache_misses = 0;
  std::int64_t simplex_solves = 0;
  std::int64_t simplex_pivots = 0;
  std::int64_t ball_expansions = 0;
  std::int64_t bytes_out = 0;
  std::int64_t averaging_agents = 0;  ///< n summed over averaging solves
  std::int64_t dirty_agents = 0;
  std::int64_t resolved_agents = 0;
  std::int64_t dedup_agents = 0;      ///< n summed over dedup solves
  std::int64_t dedup_lp_solves = 0;
  std::int64_t views_sampled = 0;
};

struct TraceContext {
  SpanLog spans;
  LayerCounts counts;
};

inline SpanLog* spans_of(TraceContext* trace) {
  return trace != nullptr ? &trace->spans : nullptr;
}

// Building blocks of serve_line.
mmlp::engine::WireCommand parse_line(const std::string& line,
                                     TraceContext* trace);
mmlp::engine::SolveResult solve_request(mmlp::engine::Session& session,
                                        const mmlp::engine::SolveRequest& request,
                                        TraceContext* trace);
mmlp::engine::Session::ApplyReport apply_delta(mmlp::engine::Session& session,
                                               const mmlp::InstanceDelta& delta,
                                               TraceContext* trace);

/// Run `format` (a wire serializer call) inside the wire.format span and
/// count the bytes it produced.
template <typename Format>
std::string format_response(Format&& format, TraceContext* trace) {
  std::string out;
  {
    ScopedSpan span(spans_of(trace), "wire.format");
    out = format();
  }
  if (trace != nullptr) {
    trace->counts.bytes_out += static_cast<std::int64_t>(out.size());
  }
  return out;
}

// ---- Response parsing (output checks; never timed) ----

/// The number after `"key": ` in a response line, if present.
std::optional<double> number_field(std::string_view line, std::string_view key);
/// The literal true/false after `"key": `.
std::optional<bool> bool_field(std::string_view line, std::string_view key);
/// True when the line reports "status": "ok".
bool status_ok(std::string_view line);
/// Parse the "x" array back with strtod; false when absent or malformed.
bool parse_x(std::string_view line, std::vector<double>& x);
/// FNV-1a over the IEEE-754 bit patterns of x.
std::uint64_t bit_digest(const std::vector<double>& x);
bool same_bits(double a, double b);
/// A copy of `line` with one value altered: the first x entry when the
/// line carries x, else omega. The client's check self-test feeds it
/// to the output check, which must count it as failed.
std::string corrupt_one_value(const std::string& line);

/// Serve one request line. `open_session` is called after the line is
/// parsed and returns the session to serve it on (a cold caller opens a
/// fresh one there). On success the solve's x is moved into `x_out`
/// when given. Errors answer an error line (wire.hpp taxonomy) and set
/// `*failed`; they never throw.
template <typename OpenSession>
std::string serve_line(const std::string& line, std::size_t line_number,
                       OpenSession&& open_session, bool emit_x,
                       TraceContext* trace, std::vector<double>* x_out,
                       bool* failed) {
  using namespace mmlp::engine;
  try {
    WireCommand command = parse_line(line, trace);
    Session& session = open_session();
    if (command.kind == WireCommand::Kind::kUpdate) {
      const Session::ApplyReport report =
          apply_delta(session, command.delta, trace);
      return format_response(
          [&] { return apply_report_to_json_line(report, command.id); },
          trace);
    }
    if (command.kind != WireCommand::Kind::kSolve) {
      *failed = true;
      return error_to_json_line(
          "validate", "perfbench serves solve and update lines", line_number);
    }
    SolveResult result = solve_request(session, command.request, trace);
    if (result.status != SolveStatus::kOk) {
      *failed = true;
      return error_to_json_line(solve_status_name(result.status),
                                result.error, line_number);
    }
    std::string out = format_response(
        [&] { return result_to_json_line(result, command.id, emit_x); },
        trace);
    if (x_out != nullptr) {
      *x_out = std::move(result.x);
    }
    return out;
  } catch (const WireParseError& error) {
    *failed = true;
    return error_to_json_line("parse", error.what(), line_number);
  } catch (const mmlp::CheckError& error) {
    *failed = true;
    return error_to_json_line("validate", error.what(), line_number);
  } catch (const std::exception& error) {
    *failed = true;
    return error_to_json_line("internal", error.what(), line_number);
  }
}

}  // namespace perfbench
