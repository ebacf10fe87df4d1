// Batched ingestion (Session::push_batch → ShardedRunner::on_batch →
// SpscQueue bulk ops → engine on_batch): SPSC bulk-transfer units, the
// event-arena recycling contract, batch-vs-per-event bit-identical
// output across engine kinds / keying / batch sizes, kill-at-batch-
// boundary recovery, checkpoint/restore mid-stream under batched
// feeding, and the aggressive-negation retraction-semantics pin.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/event_arena.hpp"
#include "common/rng.hpp"
#include "common/spsc_queue.hpp"
#include "engine_test_util.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/session.hpp"
#include "stream/disorder.hpp"
#include "stream/faults.hpp"
#include "workload/synthetic.hpp"

namespace oosp {
namespace {

using testutil::make_abcd_registry;
using testutil::make_event;
using testutil::make_test_engine;

// ----------------------------------------------------------- SPSC bulk

TEST(SpscBulk, RoundTripWithWraparoundMatchesModel) {
  SpscQueue<int> q(8);  // power of two; one slot reserved -> 7 usable
  constexpr std::size_t kUsable = 7;
  std::deque<int> model;
  Rng rng(42);
  int next = 0;
  std::vector<int> out(16);
  for (int round = 0; round < 2000; ++round) {
    if (rng.bernoulli(0.55)) {
      std::vector<int> src;
      const auto want = static_cast<std::size_t>(rng.uniform_int(1, 10));
      for (std::size_t i = 0; i < want; ++i) src.push_back(next + static_cast<int>(i));
      const std::size_t pushed = q.try_push_n(std::span<int>(src));
      // Single-threaded: the stale head cache only ever underestimates
      // free space and is refreshed on demand, so a bulk push must
      // accept exactly min(requested, free).
      ASSERT_EQ(pushed, std::min(want, kUsable - model.size()));
      for (std::size_t i = 0; i < pushed; ++i) model.push_back(src[i]);
      next += static_cast<int>(pushed);
    } else {
      const auto max = static_cast<std::size_t>(rng.uniform_int(1, 10));
      const std::size_t popped = q.try_pop_n(out.data(), max);
      ASSERT_EQ(popped, std::min(max, model.size()));
      for (std::size_t i = 0; i < popped; ++i) {
        ASSERT_EQ(out[i], model.front());
        model.pop_front();
      }
    }
  }
  // FIFO order held across ~2000 mixed transactions including many
  // wrap-arounds (ring is only 8 slots).
}

TEST(SpscBulk, BulkAndSingleOpsInterleave) {
  SpscQueue<int> q(4);  // 3 usable
  std::vector<int> src{1, 2, 3, 4, 5};
  EXPECT_EQ(q.try_push_n(std::span<int>(src)), 3u);  // partial fill
  EXPECT_EQ(q.try_push_n(std::span<int>(src)), 0u);  // full
  int v = 0;
  EXPECT_TRUE(q.try_pop(v));
  EXPECT_EQ(v, 1);
  std::vector<int> out(8);
  EXPECT_EQ(q.try_pop_n(out.data(), out.size()), 2u);
  EXPECT_EQ(out[0], 2);
  EXPECT_EQ(out[1], 3);
  EXPECT_EQ(q.try_pop_n(out.data(), out.size()), 0u);  // empty
  std::span<int> empty;
  EXPECT_EQ(q.try_push_n(empty), 0u);  // empty request is a no-op
}

// ----------------------------------------------------------- arena

TEST(EventArena, RecyclingAndAddressStability) {
  const TypeRegistry reg = make_abcd_registry();
  EventArena arena;
  std::vector<EventHandle> handles;
  std::vector<const Event*> addrs;
  // Grow across several 256-slot chunks; addresses must never move.
  for (EventId i = 0; i < 1000; ++i) {
    const EventHandle h =
        arena.alloc(make_event(reg, "A", i, static_cast<Timestamp>(i), 1, 2));
    handles.push_back(h);
    addrs.push_back(&arena.get(h));
  }
  EXPECT_EQ(arena.live(), 1000u);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    EXPECT_EQ(&arena.get(handles[i]), addrs[i]) << "slot moved at " << i;
    EXPECT_EQ(arena.get(handles[i]).id, static_cast<EventId>(i));
  }
  // Refcounting: a retained handle survives one release.
  arena.retain(handles[0]);
  arena.release(handles[0]);
  EXPECT_EQ(arena.live(), 1000u);
  EXPECT_EQ(arena.get(handles[0]).id, 0u);
  // Releasing to zero recycles the slot: the next alloc reuses it (and
  // with it the attrs capacity) instead of growing the arena.
  arena.release(handles[0]);
  EXPECT_EQ(arena.live(), 999u);
  const std::size_t size_before = arena.size();
  const EventHandle reused = arena.alloc(make_event(reg, "B", 5000, 77, 3, 4));
  EXPECT_EQ(reused, handles[0]);
  EXPECT_EQ(arena.size(), size_before);
  EXPECT_EQ(arena.get(reused).id, 5000u);
  EXPECT_EQ(arena.get(reused).ts, 77);
}

// ------------------------------------ aggressive retraction semantics

// Pins the emit-then-retract contract of aggressive negation so the
// batched path (and the seal-indexed pending-match bookkeeping) cannot
// silently change it: a premature match is EMITTED as soon as its
// constituents exist, and RETRACTED when an in-contract late negative
// lands inside its negation interval; matches whose interval seals
// clean are never retracted.
TEST(AggressiveNegation, EmitsPrematurelyAndRetractsOnLateNegative) {
  const TypeRegistry reg = make_abcd_registry();
  const CompiledQuery q = compile_query(
      "PATTERN SEQ(A a, !B b, C c) WHERE a.k == b.k AND a.k == c.k WITHIN 100", reg);
  EngineOptions opt;
  opt.slack = 50;
  opt.aggressive_negation = true;
  const auto sink = std::make_shared<CollectingSink>();
  const auto engine = make_test_engine(EngineKind::kOoo, q, sink, opt);

  engine->on_event(make_event(reg, "A", 0, 10, 1));
  engine->on_event(make_event(reg, "C", 1, 30, 1));
  // Interval (10, 30) is unsealed (watermark = 30 - 50 < 10): the match
  // is emitted prematurely.
  ASSERT_EQ(sink->matches().size(), 1u);
  EXPECT_EQ(match_key(sink->matches()[0]), (MatchKey{0, 1}));
  EXPECT_TRUE(sink->retracted().empty());

  // Late negative inside (10, 30), same key, within slack: retract.
  engine->on_event(make_event(reg, "B", 2, 20, 1));
  ASSERT_EQ(sink->retracted().size(), 1u);
  EXPECT_EQ(match_key(sink->retracted()[0]), (MatchKey{0, 1}));

  // Second key: premature emission whose interval seals clean survives.
  engine->on_event(make_event(reg, "A", 3, 110, 2));
  engine->on_event(make_event(reg, "C", 4, 130, 2));
  engine->on_event(make_event(reg, "D", 5, 400, 0));  // clock: seals everything
  engine->finish();
  EXPECT_EQ(sink->retracted().size(), 1u);
  EXPECT_EQ(sink->net_sorted_keys(), (std::vector<MatchKey>{{3, 4}}));
}

// -------------------------------------- batch-vs-per-event determinism

// Feeds `arrivals` through a fresh engine in random-sized on_batch
// slices (pointer spans, like the runners deliver).
std::shared_ptr<CollectingSink> run_engine_batched(EngineKind kind,
                                                   const CompiledQuery& q,
                                                   const std::vector<Event>& arrivals,
                                                   const EngineOptions& options,
                                                   std::uint64_t partition_seed,
                                                   std::size_t fixed_batch = 0) {
  const auto sink = std::make_shared<CollectingSink>();
  const auto engine = make_test_engine(kind, q, sink, options);
  Rng rng(partition_seed);
  std::vector<const Event*> ptrs;
  std::size_t i = 0;
  while (i < arrivals.size()) {
    const std::size_t want =
        fixed_batch ? fixed_batch : static_cast<std::size_t>(rng.uniform_int(1, 64));
    const std::size_t n = std::min(want, arrivals.size() - i);
    ptrs.clear();
    for (std::size_t k = 0; k < n; ++k) ptrs.push_back(&arrivals[i + k]);
    engine->on_batch(std::span<const Event* const>(ptrs.data(), ptrs.size()));
    i += n;
  }
  engine->finish();
  return sink;
}

struct BatchCase {
  const char* label;
  EngineKind kind;
  std::string query;
  EngineOptions options;
};

class BatchDeterminism : public ::testing::Test {
 protected:
  BatchDeterminism()
      : wl_({.num_events = 3'000, .num_types = 3, .key_cardinality = 24,
             .mean_gap = 5, .seed = 7}) {
    const auto ordered = wl_.generate();
    DisorderInjector inj(LatencyModel::uniform(80), 0.3, 21);
    arrivals_ = inj.deliver(ordered);
    slack_ = inj.slack_bound();
  }

  SyntheticWorkload wl_;
  std::vector<Event> arrivals_;
  Timestamp slack_ = 0;
};

TEST_F(BatchDeterminism, EngineSweepMatchesPerEventOutput) {
  EngineOptions plain;
  EngineOptions unkeyed;
  unkeyed.partition_by_key = false;
  EngineOptions slacked = plain;
  slacked.slack = slack_;
  EngineOptions slacked_unkeyed = unkeyed;
  slacked_unkeyed.slack = slack_;
  EngineOptions eager = slacked;
  eager.purge_period = 1;

  const std::string keyed_q = wl_.seq_query(2, true, 200);
  const std::string unkeyed_q = wl_.seq_query(2, false, 200);
  const std::string neg_q = wl_.negation_query(200);

  const std::vector<BatchCase> cases{
      {"inorder-keyed", EngineKind::kInOrder, keyed_q, plain},
      {"inorder-unkeyed", EngineKind::kInOrder, unkeyed_q, unkeyed},
      {"nfa-keyed", EngineKind::kNfa, keyed_q, plain},
      {"ooo-keyed", EngineKind::kOoo, keyed_q, slacked},
      {"ooo-unkeyed", EngineKind::kOoo, unkeyed_q, slacked_unkeyed},
      {"ooo-keyed-eager-purge", EngineKind::kOoo, keyed_q, eager},
      {"ooo-negation", EngineKind::kOoo, neg_q, slacked},
      {"kslack-inorder", EngineKind::kKSlackInOrder, keyed_q, slacked},
      {"kslack-nfa", EngineKind::kKSlackNfa, keyed_q, slacked},
      {"kslack-negation", EngineKind::kKSlackInOrder, neg_q, slacked},
  };

  for (const BatchCase& c : cases) {
    const CompiledQuery q = compile_query(c.query, wl_.registry());
    const auto oracle = testutil::run_engine(c.kind, q, arrivals_, c.options);
    std::vector<MatchKey> oracle_keys;
    for (const Match& m : oracle) oracle_keys.push_back(match_key(m));
    std::sort(oracle_keys.begin(), oracle_keys.end());
    ASSERT_GT(oracle_keys.size(), 0u) << c.label << ": vacuous case";
    // Random partitions plus the degenerate extremes: all singletons
    // (must be the per-event path exactly) and one whole-stream batch.
    for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
      const auto sink = run_engine_batched(c.kind, q, arrivals_, c.options, seed);
      EXPECT_EQ(sink->sorted_keys(), oracle_keys) << c.label << " seed=" << seed;
      EXPECT_TRUE(sink->retracted().empty()) << c.label;
    }
    const auto ones = run_engine_batched(c.kind, q, arrivals_, c.options, 0, 1);
    EXPECT_EQ(ones->sorted_keys(), oracle_keys) << c.label << " batch=1";
    const auto whole =
        run_engine_batched(c.kind, q, arrivals_, c.options, 0, arrivals_.size());
    EXPECT_EQ(whole->sorted_keys(), oracle_keys) << c.label << " batch=all";
  }
}

TEST_F(BatchDeterminism, AggressiveNegationNetSetMatchesPerEvent) {
  // Aggressive emission/retraction multisets may legitimately differ
  // under batching (a negative sorted ahead of its trigger within one
  // batch suppresses a premature emission instead of retracting it);
  // the NET result must not.
  EngineOptions opt;
  opt.slack = slack_;
  opt.aggressive_negation = true;
  const CompiledQuery q = compile_query(wl_.negation_query(200), wl_.registry());
  const auto sink_oracle = std::make_shared<CollectingSink>();
  const auto oracle = make_test_engine(EngineKind::kOoo, q, sink_oracle, opt);
  for (const Event& e : arrivals_) oracle->on_event(e);
  oracle->finish();
  ASSERT_GT(sink_oracle->matches().size(), 0u);
  for (const std::uint64_t seed : {21ull, 22ull}) {
    const auto sink = run_engine_batched(EngineKind::kOoo, q, arrivals_, opt, seed);
    EXPECT_EQ(sink->net_sorted_keys(), sink_oracle->net_sorted_keys())
        << "seed=" << seed;
  }
}

std::vector<std::pair<QueryId, MatchKey>> run_session_stream(
    const SyntheticWorkload& wl, const std::vector<Event>& arrivals, Timestamp slack,
    std::size_t shards, std::size_t batch, std::uint64_t seed,
    std::size_t checkpoint_every = 0, WorkerKillHook hook = {},
    std::size_t queue_capacity = 0) {
  const auto sink = std::make_shared<CollectingTaggedSink>();
  SessionConfig cfg;
  cfg.engine(EngineKind::kOoo)
      .slack(slack)
      .shards(shards)
      .metrics(false)
      .query(wl.seq_query(2, true, 200))
      .query(wl.negation_query(200));
  if (checkpoint_every) {
    cfg.checkpoint_every(checkpoint_every)
        .max_restarts(10)
        .restart_backoff(std::chrono::milliseconds(0), std::chrono::milliseconds(0));
  }
  if (hook) cfg.kill_hook(std::move(hook));
  if (queue_capacity) cfg.queue_capacity(queue_capacity);
  Session session(wl.registry(), cfg, sink);
  if (batch == 0) {
    for (const Event& e : arrivals) session.push(e);
  } else {
    Rng rng(seed);
    std::size_t i = 0;
    while (i < arrivals.size()) {
      const std::size_t want =
          seed ? static_cast<std::size_t>(rng.uniform_int(1, 2 * batch)) : batch;
      const std::size_t n = std::min(want, arrivals.size() - i);
      session.push_batch(std::span<const Event>(arrivals.data() + i, n));
      i += n;
    }
  }
  session.close();
  std::vector<std::pair<QueryId, MatchKey>> out;
  for (const TaggedMatch& tm : sink->matches())
    out.emplace_back(tm.query, match_key(tm.match));
  return out;
}

TEST_F(BatchDeterminism, SessionInlineAndShardedMatchPerEventExactly) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    const auto oracle = run_session_stream(wl_, arrivals_, slack_, shards, 0, 0);
    ASSERT_GT(oracle.size(), 10u) << "shards=" << shards;
    for (const std::uint64_t seed : {31ull, 32ull}) {
      const auto batched =
          run_session_stream(wl_, arrivals_, slack_, shards, 64, seed);
      // finish() delivers in canonical order: the full tagged sequence —
      // not just the multiset — must be bit-identical.
      EXPECT_EQ(batched, oracle) << "shards=" << shards << " seed=" << seed;
    }
    const auto giant = run_session_stream(wl_, arrivals_, slack_, shards,
                                          arrivals_.size(), 0);
    EXPECT_EQ(giant, oracle) << "shards=" << shards << " batch=all";
  }
}

// ------------------------------------------- batched feeding + recovery

class BatchRecovery : public ::testing::Test {
 protected:
  BatchRecovery()
      : wl_({.num_events = 250, .num_types = 3, .key_cardinality = 12,
             .mean_gap = 6, .seed = 33}) {
    const auto ordered = wl_.generate();
    DisorderInjector inj(LatencyModel::uniform(60), 0.25, 5);
    arrivals_ = inj.deliver(ordered);
    slack_ = inj.slack_bound();
  }

  SyntheticWorkload wl_;
  std::vector<Event> arrivals_;
  Timestamp slack_ = 0;
};

TEST_F(BatchRecovery, KillAtEveryBatchBoundaryYieldsPerEventOutput) {
  constexpr std::size_t kBatch = 32;
  const auto oracle = run_session_stream(wl_, arrivals_, slack_, 3, 0, 0,
                                         /*checkpoint_every=*/7);
  ASSERT_GT(oracle.size(), 5u);
  // Batched + recovery, fault-free, must already be bit-identical (each
  // staged chunk enters the backup before the ring, so the backup
  // invariant holds per chunk).
  EXPECT_EQ(run_session_stream(wl_, arrivals_, slack_, 3, kBatch, 0, 7), oracle);
  // Kill the worker at the first event of every batch: the crash lands
  // exactly on a producer-side batch boundary each time.
  for (std::size_t i = 0; i < arrivals_.size(); i += kBatch) {
    WorkerKillFault fault({arrivals_[i].id});
    const auto run =
        run_session_stream(wl_, arrivals_, slack_, 3, kBatch, 0, 7, fault.hook());
    EXPECT_EQ(run, oracle) << "diverged after kill at batch boundary " << i;
    EXPECT_EQ(fault.victims_remaining(), 0u) << "kill at " << i << " never fired";
  }
  // Seeded ragged batches (1..2*kBatch events) with a kill at EVERY
  // index: most deaths land mid-batch, on a chunk the producer has
  // already staged into the backup.
  constexpr std::uint64_t kRaggedSeed = 41;
  EXPECT_EQ(run_session_stream(wl_, arrivals_, slack_, 3, kBatch, kRaggedSeed, 7), oracle);
  for (std::size_t i = 0; i < arrivals_.size(); ++i) {
    WorkerKillFault fault({arrivals_[i].id});
    const auto run = run_session_stream(wl_, arrivals_, slack_, 3, kBatch, kRaggedSeed, 7,
                                        fault.hook());
    EXPECT_EQ(run, oracle) << "diverged after kill at index " << i << " (ragged)";
    EXPECT_EQ(fault.victims_remaining(), 0u) << "kill at " << i << " never fired";
  }
}

TEST_F(BatchRecovery, OneBatchLargerThanTheBackupBoundFinishes) {
  // One push_batch of the whole stream into 16-slot rings with a cadence
  // of 7: the staged sub-batches far exceed the backup bound
  // (2 * 7 + 16 events), so admission must proceed chunk by chunk as
  // checkpoints trim the backup — a whole-batch admission would deadlock.
  const auto oracle = run_session_stream(wl_, arrivals_, slack_, 3, 0, 0, 7);
  ASSERT_GT(arrivals_.size(), 2 * 7 + 16u);
  EXPECT_EQ(run_session_stream(wl_, arrivals_, slack_, 3, arrivals_.size(), 0, 7, {},
                               /*queue_capacity=*/16),
            oracle);
  // The same with a mid-stream kill: supervision restarts the shard from
  // inside the chunked admission.
  WorkerKillFault fault({arrivals_[arrivals_.size() / 2].id});
  EXPECT_EQ(run_session_stream(wl_, arrivals_, slack_, 3, arrivals_.size(), 0, 7,
                               fault.hook(), /*queue_capacity=*/16),
            oracle);
  EXPECT_EQ(fault.victims_remaining(), 0u);
}

// -------------------------------- checkpoint/restore under batched feed

TEST_F(BatchRecovery, ArenaStateSurvivesCheckpointRestoreMidStream) {
  // Cut the batched stream at several points: snapshot, restore into a
  // fresh engine (fresh arena — handles are rebuilt, bytes must not
  // change), verify re-snapshot byte identity, finish on the suffix, and
  // compare the union against an uninterrupted per-event run.
  EngineOptions opt;
  opt.slack = slack_;
  const CompiledQuery q = compile_query(wl_.negation_query(200), wl_.registry());
  const auto full = testutil::run_engine_keys(EngineKind::kOoo, q, arrivals_, opt);
  ASSERT_GT(full.size(), 0u);
  constexpr std::size_t kBatch = 16;
  for (const std::size_t cut_batches : {1ul, 5ul, 11ul}) {
    const std::size_t cut = std::min(cut_batches * kBatch, arrivals_.size());
    const auto sink1 = std::make_shared<CollectingSink>();
    const auto engine1 = make_test_engine(EngineKind::kOoo, q, sink1, opt);
    std::vector<const Event*> ptrs;
    std::size_t i = 0;
    while (i < cut) {
      const std::size_t n = std::min(kBatch, cut - i);
      ptrs.clear();
      for (std::size_t k = 0; k < n; ++k) ptrs.push_back(&arrivals_[i + k]);
      engine1->on_batch(std::span<const Event* const>(ptrs.data(), ptrs.size()));
      i += n;
    }
    const auto bytes = checkpoint_engine(*engine1);

    const auto sink2 = std::make_shared<CollectingSink>();
    const auto engine2 = make_test_engine(EngineKind::kOoo, q, sink2, opt);
    restore_engine(*engine2, bytes);
    EXPECT_EQ(checkpoint_engine(*engine2), bytes)
        << "cut=" << cut << ": restored engine re-snapshots to different bytes";
    while (i < arrivals_.size()) {
      const std::size_t n = std::min(kBatch, arrivals_.size() - i);
      ptrs.clear();
      for (std::size_t k = 0; k < n; ++k) ptrs.push_back(&arrivals_[i + k]);
      engine2->on_batch(std::span<const Event* const>(ptrs.data(), ptrs.size()));
      i += n;
    }
    engine2->finish();

    std::vector<MatchKey> all = sink1->sorted_keys();
    const auto tail = sink2->sorted_keys();
    all.insert(all.end(), tail.begin(), tail.end());
    std::sort(all.begin(), all.end());
    EXPECT_EQ(all, full) << "cut=" << cut;
  }
}

}  // namespace
}  // namespace oosp
