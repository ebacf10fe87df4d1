// Plan-time grouping for the shared multi-query sequence scan (MQO).
//
// N queries over the same event types pay the arrival-side cost
// (admission, dedup, stack insertion, watermark/purge bookkeeping) N
// times when each runs on its own engine. The planner buckets compiled
// queries whose scans are physically compatible — native OOO kind, equal
// state-shaping options, the same first SEQ type, and (when partitioned)
// agreeing per-type key attributes — into ScanGroupPlans; at execution
// time each group runs on ONE OooScanCore (engine/ooo/scan_core.hpp)
// with the queries as its members, while a query that runs alone runs
// on an OooEngine, a core of one member.
//
// A group's members share one clock and one watermark, driven by the
// union of their types. The remaining exclusions are exactly the
// features whose decisions read that shared clock — negation sealing,
// drop/quarantine late policies, adaptive slack, trace spans — plus a
// type keyed on two attributes (a shared stack shards by one) and
// queries that do not run on a scan core at all (other engine kinds,
// AGG).
//
// Grouping is deterministic: entries are visited in registration order
// and greedily join the first compatible open bucket, so the same query
// set always produces the same plan (checkpoints rely on this — a group
// is snapshotted once, and restore re-plans to the identical layout).
// Buckets that end up with a single member run solo, so the optimization
// is invisible except in throughput.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/core/sink.hpp"
#include "engine/engines.hpp"
#include "query/compiled.hpp"

namespace oosp {

// One registered query as the planner sees it. QueryId is the index of
// the entry in the span handed to plan_shared_scan.
struct ScanPlanEntry {
  std::shared_ptr<const CompiledQuery> query;
  EngineKind kind = EngineKind::kOoo;
  EngineOptions options;
};

// One shared-scan group: >= 2 queries that will run on one scan core.
struct ScanGroupPlan {
  std::vector<QueryId> members;  // ascending registration order
};

struct ScanPlan {
  std::vector<ScanGroupPlan> groups;
  std::vector<QueryId> solo;  // ascending; run on per-query engines
};

// Why `e` can never join a shared-scan group; empty when it is eligible.
// Each reason names the shared state the query cannot live with, so "my
// query didn't group" is answerable.
std::string shared_scan_exclusion(const ScanPlanEntry& e);

// Buckets `entries` into shared-scan groups. With `enabled` false (or
// for ineligible/singleton entries) everything lands in `solo`.
ScanPlan plan_shared_scan(std::span<const ScanPlanEntry> entries, bool enabled);

}  // namespace oosp
