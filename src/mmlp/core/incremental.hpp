// Accounting and agent subsets of memo-first solving (the update
// pipeline of engine::Session). A session-backed solve of safe,
// averaging or distributed averaging either splices the dirty region of
// the edits since its memo into the previous result (incremental =
// true; a repeat with no edits in between splices nothing) or — when no
// usable memo exists, ids were remapped, or the options couple every
// agent to every edit — recomputes every agent (incremental = false,
// counters cover the whole instance). Either way the output is bitwise
// identical to a cold full solve of the current instance; the stats
// only say how much work that took.
#pragma once

#include <cstddef>
#include <vector>

#include "mmlp/core/instance.hpp"

namespace mmlp {

struct IncrementalStats {
  bool incremental = false;  ///< memo hit: only the dirty region re-ran
  /// Agents whose per-agent computation (eq. (2) choice, view LP, or
  /// LOCAL-model decision) was re-run.
  std::size_t dirty_agents = 0;
  /// Output entries recomputed and spliced (for the averaging gather
  /// this is the radius-2R region around the edits, a superset of
  /// dirty_agents).
  std::size_t resolved_agents = 0;
};

/// The agents a per-agent kernel runs over: the listed ones, or every
/// agent 0..n−1 when `list` is null.
struct AgentList {
  const std::vector<AgentId>* list = nullptr;
  std::size_t n = 0;

  std::size_t size() const { return list != nullptr ? list->size() : n; }
  AgentId operator[](std::size_t k) const {
    return list != nullptr ? (*list)[k] : static_cast<AgentId>(k);
  }
};

}  // namespace mmlp
