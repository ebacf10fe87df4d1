// Native out-of-order engine — the paper's contribution, as a
// PatternEngine.
//
// A thin adapter over a one-member OooScanCore (scan_core.hpp), which
// holds the whole algorithm: timestamp-ordered stacks filtered by
// step-local predicates at insert time, retroactive construction
// anchored at each inserted event, negation sealing (conservative or
// aggressive), K-slack purge against a monotone watermark, late-event
// policies, adaptive slack and batched ingestion. The multi-query runner
// runs the same core with several members when queries share a scan, so
// a query's output and stats are the same whichever way it runs.
//
// Options honoured: slack (K), purge_period, partition_by_key (hash
// partition all state by the query's equi-join key), late_policy +
// quarantine_capacity, adaptive_slack + slack_estimator, dedup_by_id,
// registry (schema validation), aggressive_negation, metrics, trace.
#pragma once

#include "engine/core/engine.hpp"
#include "engine/ooo/scan_core.hpp"

namespace oosp {

class OooEngine final : public PatternEngine {
 public:
  explicit OooEngine(EngineContext ctx)
      : PatternEngine(std::move(ctx)),
        core_({ScanMember{ctx_.query, ctx_.sink, options_.trace}}, options_, obs_) {}

  void on_event(const Event& e) override { core_.on_event(e); }
  void on_batch(std::span<const Event* const> batch) override { core_.on_batch(batch); }
  void finish() override { core_.finish(); }
  std::string name() const override { return std::string(core_.name()); }
  EngineStats stats_snapshot() const override { return core_.member_stats(0); }
  std::vector<Event> drain_quarantine() override { return core_.drain_quarantine(); }
  void snapshot(CheckpointWriter& w) const override { core_.snapshot(w); }
  void restore(CheckpointReader& r) override { core_.restore(r); }

 private:
  OooScanCore core_;
};

}  // namespace oosp
