#include "runtime/planner.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "engine/ooo/scan_core.hpp"

namespace oosp {
namespace {

// Options a core applies once for all its members: one admission
// pipeline, one clock, one purge cadence, one partitioning decision and
// one metrics bundle. Members of a group must agree on all of them; the
// rest either cannot appear in a group (adaptive_slack, trace — excluded
// below) or have no effect on pure-positive queries (aggressive_negation;
// obs_arrival_side is a wrapper-only concern).
bool options_group_equal(const EngineOptions& a, const EngineOptions& b) {
  return a.slack == b.slack && a.late_policy == b.late_policy &&
         a.quarantine_capacity == b.quarantine_capacity &&
         a.dedup_by_id == b.dedup_by_id && a.registry == b.registry &&
         a.purge_period == b.purge_period &&
         a.partition_by_key == b.partition_by_key && a.metrics == b.metrics;
}

}  // namespace

std::string shared_scan_exclusion(const ScanPlanEntry& e) {
  OOSP_REQUIRE(e.query != nullptr, "planner: null query");
  const CompiledQuery& q = *e.query;
  if (q.is_agg()) return "aggregation queries keep dedicated window state, not a scan core";
  if (e.kind != EngineKind::kOoo)
    return "engine kind is not the native OOO engine, so there is no scan core to share";
  // The shared clock observes the UNION of member types, so it runs ahead
  // of what the query's own engine would have seen — harmless while
  // lateness only moves counters, semantic wherever a decision reads it.
  if (q.positive_steps().size() != q.num_steps())
    return "negation seals pending matches at the shared clock's watermark";
  if (e.options.late_policy != LatePolicy::kAdmit)
    return "dropping or quarantining late events judges lateness by the shared clock";
  if (e.options.adaptive_slack)
    return "adaptive slack retunes K from lateness seen by the shared clock";
  if (e.options.trace) return "trace spans report the shared clock and purge horizon";
  if (OooScanCore::partitions(q, e.options)) {
    for (const TypeId t : q.positive_type_chain())
      if (q.uniform_partition_slot(t) == CompiledStep::npos)
        return "one event type keys on two attributes, but a shared stack shards by one";
  }
  return {};
}

ScanPlan plan_shared_scan(std::span<const ScanPlanEntry> entries, bool enabled) {
  struct Building {
    ScanGroupPlan plan;
    const ScanPlanEntry* leader = nullptr;
    TypeId first_type = kInvalidType;
    bool partitioned = false;
    std::vector<std::size_t> type_slot;  // TypeId -> members' key slot (partitioned)
  };

  ScanPlan out;
  std::vector<Building> open;

  const auto slot_of = [](const Building& b, TypeId t) -> std::size_t {
    return t < b.type_slot.size() ? b.type_slot[t] : CompiledStep::npos;
  };
  const auto absorb = [](Building& b, const CompiledQuery& q, const std::vector<TypeId>& chain) {
    if (!b.partitioned) return;
    for (const TypeId t : chain) {
      if (t >= b.type_slot.size()) b.type_slot.resize(t + 1, CompiledStep::npos);
      b.type_slot[t] = q.uniform_partition_slot(t);
    }
  };

  for (QueryId id = 0; id < entries.size(); ++id) {
    const ScanPlanEntry& e = entries[id];
    if (!enabled || !shared_scan_exclusion(e).empty()) {
      out.solo.push_back(id);
      continue;
    }
    const CompiledQuery& q = *e.query;
    const std::vector<TypeId> chain = q.positive_type_chain();
    const bool partitioned = OooScanCore::partitions(q, e.options);

    bool placed = false;
    for (Building& b : open) {
      if (!options_group_equal(e.options, b.leader->options)) continue;
      if (b.partitioned != partitioned) continue;
      // Sharing pays off only when the scans actually overlap: require
      // the same first SEQ type.
      if (b.first_type != chain.front()) continue;
      if (partitioned) {
        // Overlapping types must agree on the key attribute — the core
        // keeps ONE stack per (type, key shard).
        const bool agree = std::all_of(chain.begin(), chain.end(), [&](TypeId t) {
          const std::size_t theirs = slot_of(b, t);
          return theirs == CompiledStep::npos || theirs == q.uniform_partition_slot(t);
        });
        if (!agree) continue;
      }
      b.plan.members.push_back(id);
      absorb(b, q, chain);
      placed = true;
      break;
    }
    if (!placed) {
      Building b;
      b.leader = &e;
      b.first_type = chain.front();
      b.partitioned = partitioned;
      b.plan.members.push_back(id);
      absorb(b, q, chain);
      open.push_back(std::move(b));
    }
  }

  for (Building& b : open) {
    if (b.plan.members.size() < 2) {
      // A group of one is exactly the query's own engine.
      out.solo.push_back(b.plan.members.front());
      continue;
    }
    out.groups.push_back(std::move(b.plan));
  }
  std::sort(out.solo.begin(), out.solo.end());
  return out;
}

}  // namespace oosp
