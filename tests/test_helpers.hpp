// Shared fixtures and builders for the mmlp test suite.
#pragma once

#include <cstdint>
#include <vector>

#include "mmlp/core/instance.hpp"
#include "mmlp/util/rng.hpp"

namespace mmlp::testing {

/// The simplest nontrivial instance: two agents sharing one resource,
/// two singleton parties.
///   max min(x0, x1)  s.t.  x0 + x1 <= 1  =>  ω* = 1/2 at x = (1/2, 1/2).
inline Instance two_agent_instance() {
  Instance::Builder builder;
  const AgentId v0 = builder.add_agent();
  const AgentId v1 = builder.add_agent();
  const ResourceId i = builder.add_resource();
  builder.set_usage(i, v0, 1.0).set_usage(i, v1, 1.0);
  const PartyId k0 = builder.add_party();
  const PartyId k1 = builder.add_party();
  builder.set_benefit(k0, v0, 1.0).set_benefit(k1, v1, 1.0);
  return std::move(builder).build();
}

/// A path of `n` agents: resource i_j couples agents j and j+1
/// (a = 1), and every agent has its own singleton party (c = 1).
/// The communication graph is a path, useful for ball/growth tests.
inline Instance path_instance(AgentId n) {
  Instance::Builder builder;
  for (AgentId v = 0; v < n; ++v) {
    builder.add_agent();
  }
  for (AgentId v = 0; v + 1 < n; ++v) {
    const ResourceId i = builder.add_resource();
    builder.set_usage(i, v, 1.0).set_usage(i, v + 1, 1.0);
  }
  if (n == 1) {  // keep I_v nonempty
    const ResourceId i = builder.add_resource();
    builder.set_usage(i, 0, 1.0);
  }
  for (AgentId v = 0; v < n; ++v) {
    const PartyId k = builder.add_party();
    builder.set_benefit(k, v, 1.0);
  }
  return std::move(builder).build();
}

/// The packing special case |K| = 1 (Section 1.3): maximise c·x subject
/// to Ax <= 1 with every agent benefitting the sole party.
inline Instance single_party_instance() {
  Instance::Builder builder;
  const AgentId v0 = builder.add_agent();
  const AgentId v1 = builder.add_agent();
  const AgentId v2 = builder.add_agent();
  const ResourceId i0 = builder.add_resource();
  const ResourceId i1 = builder.add_resource();
  builder.set_usage(i0, v0, 1.0).set_usage(i0, v1, 2.0);
  builder.set_usage(i1, v1, 1.0).set_usage(i1, v2, 1.0);
  const PartyId k = builder.add_party();
  builder.set_benefit(k, v0, 1.0);
  builder.set_benefit(k, v1, 1.0);
  builder.set_benefit(k, v2, 1.0);
  return std::move(builder).build();
}

/// A uniformly random agent id of `instance`.
inline AgentId pick_agent(Rng& rng, const Instance& instance) {
  return static_cast<AgentId>(
      rng.next_below(static_cast<std::uint64_t>(instance.num_agents())));
}

/// True when removing v keeps every incident resource and party
/// support nonempty (the builder's standing assumption).
inline bool removable(const Instance& instance, AgentId v) {
  for (const Coef& entry : instance.agent_resources(v)) {
    if (instance.resource_support(entry.id).size() < 2) {
      return false;
    }
  }
  for (const Coef& entry : instance.agent_parties(v)) {
    if (instance.party_support(entry.id).size() < 2) {
      return false;
    }
  }
  return true;
}

/// One random delta that grows or re-wires but never removes: a new
/// agent next to a random one, a new resource or party over two random
/// agents, a support insert, or a support erase that keeps both sides
/// nonempty (a value edit when no such erase exists). Ids never remap,
/// so a session repairs its caches instead of rebuilding them.
inline InstanceDelta random_growing_delta(Rng& rng, const Instance& instance) {
  InstanceDelta delta;
  const AgentId a = pick_agent(rng, instance);
  const AgentId b = pick_agent(rng, instance);
  switch (rng.next_below(5)) {
    case 0: {
      const AgentId fresh = instance.num_agents();
      delta.add_agents(1);
      delta.set_usage(instance.agent_resources(a).front().id, fresh,
                      rng.uniform(0.1, 1.0));
      const CoefSpan parties = instance.agent_parties(a);
      if (!parties.empty()) {
        delta.set_benefit(parties.front().id, fresh, rng.uniform(0.1, 1.0));
      }
      break;
    }
    case 1: {
      const ResourceId fresh = instance.num_resources();
      delta.add_resources(1).set_usage(fresh, a, rng.uniform(0.1, 1.0));
      if (b != a) {
        delta.set_usage(fresh, b, rng.uniform(0.1, 1.0));
      }
      break;
    }
    case 2: {
      const PartyId fresh = instance.num_parties();
      delta.add_parties(1).set_benefit(fresh, a, rng.uniform(0.1, 1.0));
      if (b != a) {
        delta.set_benefit(fresh, b, rng.uniform(0.1, 1.0));
      }
      break;
    }
    case 3: {
      const auto i = static_cast<ResourceId>(rng.next_below(
          static_cast<std::uint64_t>(instance.num_resources())));
      delta.set_usage(i, a, rng.uniform(0.1, 1.0));
      break;
    }
    default: {
      const CoefSpan row = instance.agent_resources(a);
      const Coef& entry = row[rng.next_below(row.size())];
      if (row.size() >= 2 && instance.resource_support(entry.id).size() >= 2) {
        delta.erase_usage(entry.id, a);
      } else {
        delta.set_usage(entry.id, a, rng.uniform(0.1, 1.0));
      }
      break;
    }
  }
  return delta;
}

}  // namespace mmlp::testing
