// The OOO scan core — the paper's physical operator, run for one query
// (OooEngine) or for a group of queries sharing one scan (the
// multi-query runner's shared-scan groups).
//
// Shared per core, done ONCE per arrival however many member queries
// there are:
//
//  * Admission (schema validation, dedup, LatePolicy), stream-clock
//    observation, the monotone seal watermark, the adaptive-slack
//    estimator, purge cadence and the event arena.
//
//  * Scan: one timestamp-ordered SortedStack per STACK SLOT — a
//    (type, key attribute) pair read by one or more (member, positive
//    ordinal) steps — per key shard when hash-partitioned. A stack
//    admits an event iff it passes the step-local predicates of at
//    least one of its readers (the paper's scan-time filter). A reader
//    of a stack that serves more than one step re-checks its own local
//    predicates at visit time; a reader that owns its stack never does,
//    so a query with distinct step types inserts, visits and evaluates
//    exactly what a dedicated engine would.
//
// Per member: retroactive anchored construction and predicate
// evaluation, EngineStats, the trace hook, and negation sealing
// (negative buffers, the pending heap, the aggressive policy's
// revocable emissions).
//
//  * Retroactive construction: a newly inserted event e at step i can
//    only create matches that CONTAIN e, so construction is anchored at
//    e — enumerate leftward (steps i−1…0, timestamps descending below
//    e.ts) then rightward (steps i+1…n−1, ascending, bounded by the
//    window anchored at the step-0 binding). Every new match is emitted
//    exactly once: at the insertion of its last-arriving constituent.
//
//  * Negation sealing: a candidate with negated steps is checked against
//    the negatives buffered so far and, if a negation interval could
//    still admit a late negative (interval end not yet K-sealed), parked
//    in the member's pending heap until the watermark seals it. Under
//    aggressive_negation it is emitted at once and retracted if a late
//    negative lands inside the interval before it seals.
//
//  * K-slack purge: every purge_period admitted events, state below
//    watermark − W_max + 1 is dropped, W_max being the widest member
//    window — no admitted future event can join it in any member's
//    window, and the extra state a narrower member keeps is invisible to
//    it (its left phase floors at anchor_ts − W_member).
//
//  * Slack-violation safety net: seal/purge decisions use the MONOTONE
//    watermark, so retuning K never rewinds a decision. An event at or
//    below it broke the contract; LatePolicy decides its fate. With
//    adaptive_slack, growth applies at once and shrink waits for a purge
//    cadence point.
//
//  * Batched ingestion: admission, clock and contract decisions run per
//    event in ARRIVAL order, the admitted slice is sorted by (ts, id) and
//    spliced in, then "resolve up to the mark, purge at the mark" is
//    replayed per purge-cadence crossing — a pass no pending resolution
//    can observe is subsumed by the next. on_event() is a batch of one.
//
// Stats: arrival counters (events_seen/late/violations/relevant) go to
// every member the event is relevant to — every member for a clock tick,
// an event no member's pattern reads (the runner delivers those to a
// negation query so its seals progress). Physical counters (instances,
// purges, admission outcomes, footprint, slack retunes) exist once and
// live in member 0's stats, so summing over members is the core's
// physical reality and a one-member core reports exactly one engine.
//
// Checkpoint: one frame — an engine guard per member, every member's
// stats, the shared state, the shards, then each member's sealing state.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/event_arena.hpp"
#include "engine/core/admission.hpp"
#include "engine/core/engine.hpp"
#include "engine/core/negative_buffer.hpp"
#include "engine/ooo/sorted_stack.hpp"
#include "stream/clock.hpp"
#include "stream/slack_estimator.hpp"

namespace oosp {

// One query running on a core.
struct ScanMember {
  std::shared_ptr<const CompiledQuery> query;
  std::shared_ptr<MatchSink> sink;
  TraceHook trace;
};

class OooScanCore {
 public:
  // `options` govern the whole core (a group's members agree on them —
  // runtime/planner.hpp); `obs` is the instrument bundle it reports into.
  OooScanCore(std::vector<ScanMember> members, const EngineOptions& options, EngineObs obs);

  OooScanCore(const OooScanCore&) = delete;
  OooScanCore& operator=(const OooScanCore&) = delete;

  // Whether a query running alone on a core hash-partitions its state:
  // partition_by_key and a full equi-join key covering every step.
  static bool partitions(const CompiledQuery& q, const EngineOptions& options);

  void on_event(const Event& e);
  void on_batch(std::span<const Event* const> batch);
  void finish();

  // Events parked by LatePolicy::kQuarantine, once for the whole core.
  std::vector<Event> drain_quarantine() { return admission_.drain_quarantine(); }

  std::string_view name() const noexcept {
    return options_.aggressive_negation ? "ooo-aggressive" : "ooo-native";
  }
  std::size_t num_members() const noexcept { return members_.size(); }
  // True when events of type `t` are pattern input for some member.
  bool relevant(TypeId t) const noexcept { return !readers_of(t).empty(); }
  EngineStats member_stats(std::size_t i) const;

  // restore() must run on a freshly built core (same members, options)
  // before any event; guards throw CheckpointError on drift.
  void snapshot(CheckpointWriter& w) const;
  void restore(CheckpointReader& r);

 private:
  struct Shard {
    std::vector<SortedStack> stacks;        // per stack slot
    std::vector<NegativeBuffer> negatives;  // per (member, negated ordinal)
  };

  struct NegCheck {
    std::size_t ordinal;  // negated ordinal
    Timestamp lo, hi;     // open interval (lo, hi)
  };

  struct PendingMatch {
    Match match;
    std::vector<NegCheck> checks;
    Timestamp seal_ts;  // max interval end; final once clock >= seal_ts + K
    Value shard_key;    // meaningful only when partitioned
    // Wall clock at candidate completion, for the wall-time latency
    // histogram; captured only when metrics are enabled.
    std::chrono::steady_clock::time_point held_since{};
  };
  struct PendingLater {
    bool operator()(const PendingMatch& a, const PendingMatch& b) const noexcept {
      return a.seal_ts > b.seal_ts;
    }
  };

  struct Member {
    std::shared_ptr<const CompiledQuery> query;
    std::shared_ptr<MatchSink> sink;
    TraceHook trace;
    EngineStats stats;
    std::vector<std::size_t> ordinal_of_step;
    std::vector<std::size_t> step_of_positive;
    std::vector<std::size_t> step_of_negated;
    std::vector<std::size_t> slot_of_ordinal;  // positive ordinal -> stack slot
    std::vector<bool> recheck;                 // positive ordinal -> slot is shared
    std::size_t first_negative = 0;  // index of negated ordinal 0 in Shard::negatives
    // anchored_schedule[a][pos]: predicate ids ready at position pos of
    // the binding order (a, a−1, …, 0, a+1, …, n−1) — ordinals.
    std::vector<std::vector<std::vector<std::size_t>>> anchored_schedule;
    // Non-local predicates referencing each negated ordinal, evaluated
    // when the aggressive policy probes a late negative.
    std::vector<std::vector<std::size_t>> neg_check_predicates;
    std::vector<const Event*> bindings;  // by pattern step index
    std::priority_queue<PendingMatch, std::vector<PendingMatch>, PendingLater> pending;
    // Aggressive policy: emitted matches whose negation intervals have not
    // sealed yet, ordered by seal_ts — sealing pops a prefix and a late
    // negative at ts t inspects only entries with seal_ts > t.
    std::deque<PendingMatch> unsealed_emitted;
  };

  // One (member, step) that reads events of a type, in (member, step)
  // order — the order a dedicated engine visits its steps in.
  struct Reader {
    std::uint32_t member;
    std::uint32_t step;
    std::size_t index;     // positive ordinal, or Shard::negatives index
    std::size_t slot;      // stack slot (positive readers)
    std::size_t key_slot;  // partition attribute (partitioned cores)
    bool negated;
  };

  // Admitted slice with the seal watermark in effect at each arrival:
  // candidates complete against the trigger's arrival watermark, so a
  // same-batch negative can still fail a candidate the batch-end
  // watermark would already call sealed.
  struct AdmittedEvent {
    const Event* e;
    Timestamp wm;
  };

  static std::vector<Member> make_members(std::vector<ScanMember> specs);
  const std::vector<Reader>& readers_of(TypeId t) const noexcept {
    return t < readers_.size() ? readers_[t] : no_readers_;
  }
  const std::vector<std::uint32_t>& audience_of(TypeId t) const noexcept {
    return t < audience_.size() && !audience_[t].empty() ? audience_[t] : all_members_;
  }
  EngineStats& physical() noexcept { return members_.front().stats; }

  Shard make_shard() const;
  Shard& shard_for(const Value& key);
  Shard* find_shard(const Value& key);
  void write_shard(CheckpointWriter& w, const Shard& sh) const;
  Shard read_shard(CheckpointReader& r);
  static void write_pending(CheckpointWriter& w, const PendingMatch& pm);
  static PendingMatch read_pending(CheckpointReader& r);

  void insert_event(const Event& e);
  bool passes_local(Member& m, std::size_t step, const Event& e);
  void construct_anchored(Member& m, Shard& shard, const Value& key,
                          std::size_t anchor_ordinal, const OooInstance& anchor);
  void left_phase(Member& m, Shard& shard, const Value& key, std::size_t ordinal,
                  std::size_t anchor_ordinal, const OooInstance& successor);
  void right_phase(Member& m, Shard& shard, const Value& key, std::size_t ordinal,
                   std::size_t anchor_ordinal);
  // The visited instance at `ordinal` is bound; false when a shared
  // stack's instance fails this member's local predicates or the
  // schedule's predicates at `sched_pos` reject the partial binding.
  bool accept_visit(Member& m, std::size_t ordinal, std::size_t anchor_ordinal,
                    std::size_t sched_pos);
  void complete_candidate(Member& m, Shard& shard, const Value& key);
  void emit(Member& m, Match&& match);
  bool violated_now(Member& m, Shard& shard, const std::vector<NegCheck>& checks,
                    std::span<const Event*> bindings);
  std::vector<const Event*> positive_bindings(const Member& m, const Match& match) const;
  // Resolve pending/unsealed matches sealed by `watermark` (possibly
  // earlier than the current one — replaying per-event seal points).
  void process_pending_up_to(Timestamp watermark);
  void resolve_pending(Member& m, PendingMatch&& pm);
  void handle_late_negative(Member& m, const Value& key, const Event& e, std::size_t step);
  void maybe_grow_slack();
  void apply_adaptive_shrink();
  // One purge pass with thresholds derived from `horizon`, the watermark
  // in effect when the purge-period counter crossed.
  void purge_pass(Timestamp horizon);
  void purge_shard(Shard& shard, Timestamp pos_threshold, Timestamp neg_threshold);
  void trace_span(const Member& m, TraceKind kind, Timestamp ts,
                  const Match* match = nullptr, const Event* e = nullptr) const {
    if (m.trace) m.trace(TraceSpan{kind, ts, clock_.now(), match, e});
  }
  bool sealed_at_arrival(Timestamp interval_end) const noexcept {
    // No future event can fall strictly inside an interval ending at
    // `interval_end` once every timestamp <= interval_end − 1 is sealed.
    return arrival_watermark_ >= interval_end - 1;
  }

  EngineOptions options_;
  EngineObs obs_;
  MqoObs mqo_obs_;  // registered only for cores of >= 2 members
  std::vector<Member> members_;
  StreamClock clock_;
  SlackEstimator estimator_;
  AdmissionControl admission_;
  // One Event copy per admitted relevant arrival; stacks and negative
  // buffers reference it by handle. Cleared and rebuilt on restore.
  EventArena arena_;
  // High-water mark of clock_.seal_point(): every seal and purge decision
  // used a horizon <= this; an arrival at or below it is a violation.
  Timestamp seal_watermark_ = kMinTimestamp;
  // Watermark at the arrival being spliced (== seal_watermark_ per event).
  Timestamp arrival_watermark_ = kMinTimestamp;
  bool partitioned_ = false;
  bool started_ = false;
  Timestamp window_ = 0;  // widest member window: the purge horizon
  std::size_t events_since_purge_ = 0;

  std::vector<TypeId> slot_type_;                     // stack slot -> type
  std::vector<std::vector<Reader>> readers_;          // by TypeId
  std::vector<std::vector<std::uint32_t>> audience_;  // by TypeId
  std::vector<std::uint32_t> all_members_;            // a clock tick's audience
  const std::vector<Reader> no_readers_;
  std::vector<std::uint32_t> negative_owner_;  // Shard::negatives index -> member

  Shard root_;
  std::unordered_map<Value, Shard, ValueHasher> shards_;

  std::vector<AdmittedEvent> batch_admitted_;
  // Watermarks at the purge-period crossings of the current batch.
  std::vector<Timestamp> batch_purge_marks_;
  // Per stack slot: index of the current event's instance, npos until a
  // reader admits it (an event enters each stack at most once).
  std::vector<std::size_t> inserted_at_;
};

}  // namespace oosp
