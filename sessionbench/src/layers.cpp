#include "layers.hpp"

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "affinity.hpp"
#include "engine/engines.hpp"
#include "numbers.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/multi_query.hpp"
#include "session_runs.hpp"

namespace sessionbench {

namespace {

using Clock = std::chrono::steady_clock;
using oosp::Event;

constexpr int kCompileRepetitions = 200;
constexpr int kMinRounds = 2;

double seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

oosp::EngineOptions engine_options(const Inputs& in, oosp::MetricsRegistry* metrics) {
  oosp::EngineOptions o;
  o.slack = in.slack;
  o.metrics = metrics;
  return o;
}

// The kind the Session would pick: AGG queries run on the aggregation
// engine, everything else on the native OOO engine.
oosp::EngineKind kind_of(const oosp::CompiledQuery& q) {
  return q.is_agg() ? oosp::EngineKind::kAgg : oosp::EngineKind::kOoo;
}

// MultiQueryRunner driven directly on this thread: the single-threaded
// run of the same job, with its own metrics registry like a Session's.
struct RunnerRun {
  double run_s = 0.0;   // first call until finish() returns
  double work_s = 0.0;  // inside on_event/on_batch and finish(), snapshots excluded
  std::vector<double> snapshot_us;
  std::vector<double> snapshot_bytes;
  std::uint64_t routed = 0;
  std::uint64_t seen = 0;
  std::size_t groups = 0;
  std::uint64_t shared_insertions = 0;
  std::vector<oosp::TaggedMatch> output;
};

RunnerRun run_runner(const Workload& w, const Inputs& in, Tracer& t, std::size_t slot) {
  const Tracer::NameId n_run = t.name("multi_query.run"), n_setup = t.name("multi_query.setup"),
                       n_call = t.name(w.batch <= 1 ? "multi_query.on_event"
                                                    : "multi_query.on_batch"),
                       n_snapshot = t.name("multi_query.snapshot"),
                       n_finish = t.name("multi_query.finish");
  RunnerRun r;
  oosp::MetricsRegistry metrics;
  const auto sink = std::make_shared<oosp::CollectingTaggedSink>();
  ScopedSpan run(t, n_run);

  const std::uint64_t setup = t.begin(n_setup);
  oosp::MultiQueryRunner runner(in.registry(), sink);
  for (const std::string& text : in.queries) {
    auto q = oosp::compile_query_shared(text, in.registry());
    const oosp::EngineKind kind = kind_of(*q);
    runner.add_query(std::move(q), kind, engine_options(in, &metrics));
  }
  runner.prepare();
  t.end(setup);
  const CpuRotation::Pin pin(slot);

  std::int64_t work_ns = 0;
  std::size_t since_snapshot = 0;
  const auto f0 = Clock::now();
  feed(in.arrivals, w.batch, [&](std::span<const Event> s) {
    const std::uint64_t id = t.begin(n_call, /*detail=*/true);
    if (w.batch <= 1) {
      runner.on_event(s.front());
    } else {
      runner.on_batch(s);
    }
    work_ns += t.end(id);
    since_snapshot += s.size();
    if (w.checkpoint_every > 0 && since_snapshot >= w.checkpoint_every) {
      since_snapshot = 0;
      const std::uint64_t c = t.begin(n_snapshot);
      oosp::CheckpointWriter writer;
      runner.snapshot(writer);
      const std::vector<std::uint8_t> frame = std::move(writer).finalize();
      r.snapshot_us.push_back(static_cast<double>(t.end(c)) * 1e-3);
      r.snapshot_bytes.push_back(static_cast<double>(frame.size()));
    }
  });
  const std::uint64_t fin = t.begin(n_finish);
  runner.finish();
  work_ns += t.end(fin);
  r.run_s = seconds(Clock::now() - f0);
  run.close();

  r.work_s = static_cast<double>(work_ns) * 1e-9;
  r.routed = runner.events_routed();
  r.seen = runner.events_seen();
  r.groups = runner.group_count();
  r.shared_insertions = metrics.snapshot().counter("oosp_mqo_shared_insertions_total");
  r.output = sink->take();
  return r;
}

// Each query's engine built with make_engine and fed every arrival, one
// engine after the other.
struct EnginesRun {
  double ooo_s = 0.0;  // inside on_event/on_batch and finish(), summed over OOO engines
  double agg_s = 0.0;  // the same for AGG engines
  oosp::EngineStats ooo_stats;  // summed over OOO engines
  std::uint64_t seals = 0;
  std::uint64_t windows_emitted = 0;
  std::int64_t tree_depth = 0;
  std::uint64_t results_wrong = 0;
};

EnginesRun run_engines(const Workload& w, const Inputs& in, const Reference& ref,
                       const std::vector<const Event*>& arrivals, Tracer& t, std::size_t slot) {
  const Tracer::NameId n_run = t.name("engine.run"), n_setup = t.name("engine.setup"),
                       n_finish = t.name("engine.finish");
  const Tracer::NameId n_call[2] = {
      t.name(w.batch <= 1 ? "engine.ooo.on_event" : "engine.ooo.on_batch"),
      t.name(w.batch <= 1 ? "engine.agg.on_event" : "engine.agg.on_batch")};
  EnginesRun r;
  oosp::MetricsRegistry metrics;
  const CpuRotation::Pin pin(slot);
  for (oosp::QueryId q = 0; q < ref.queries.size(); ++q) {
    const oosp::EngineKind kind = kind_of(*ref.queries[q]);
    const bool agg = kind == oosp::EngineKind::kAgg;
    const auto sink = std::make_shared<oosp::CollectingSink>();
    ScopedSpan run(t, n_run);
    const std::uint64_t setup = t.begin(n_setup);
    const auto engine = oosp::make_engine(kind, ref.queries[q], sink, engine_options(in, &metrics));
    t.end(setup);
    std::int64_t work_ns = 0;
    feed(arrivals, w.batch, [&](std::span<const Event* const> s) {
      const std::uint64_t id = t.begin(n_call[agg ? 1 : 0], /*detail=*/true);
      if (w.batch <= 1) {
        engine->on_event(*s.front());
      } else {
        engine->on_batch(s);
      }
      work_ns += t.end(id);
    });
    const std::uint64_t fin = t.begin(n_finish);
    engine->finish();
    work_ns += t.end(fin);
    run.close();
    (agg ? r.agg_s : r.ooo_s) += static_cast<double>(work_ns) * 1e-9;
    if (!agg) r.ooo_stats += engine->stats_snapshot();
    r.results_wrong += results_wrong(ref, q, sink->matches());
  }
  const oosp::MetricsSnapshot snap = metrics.snapshot();
  r.seals = snap.counter("oosp_engine_match_seals_total");
  r.windows_emitted = snap.counter("oosp_agg_windows_emitted_total");
  r.tree_depth = snap.gauge("oosp_agg_tree_depth");
  return r;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

}  // namespace

Report run_layers(const Workload& w, const Inputs& in, const Reference& ref, double seconds_budget,
                  Tracer& tracer) {
  Report rep;
  const double n = static_cast<double>(in.arrivals.size());
  const SessionShape shape = SessionShape::of(w);
  std::uint32_t run_id = 0;

  // query: compiling the workload's queries, as Session setup does.
  std::vector<double> compile_us;
  {
    tracer.set_run(run_id++);
    const Tracer::NameId n_compile = tracer.name("query.compile");
    std::vector<std::shared_ptr<const oosp::CompiledQuery>> keep;
    for (int i = 0; i < kCompileRepetitions; ++i) {
      keep.clear();
      const std::uint64_t s = tracer.begin(n_compile);
      for (const std::string& text : in.queries)
        keep.push_back(oosp::compile_query_shared(text, in.registry()));
      compile_us.push_back(static_cast<double>(tracer.end(s)) * 1e-3);
    }
  }

  OutputCheck check(ref);
  const auto account = [&](const SessionRun& r) {
    rep.attempted += r.events;
    rep.failed += r.failed;
    rep.replayed += r.replayed;
    rep.results_wrong += check.check(r.output);
  };
  // An untraced pass still gets one span, so the file shows every pass.
  const auto untraced = [&](const char* name, const SessionShape& s, long slot) {
    tracer.set_run(run_id++);
    ScopedSpan span(tracer, tracer.name(name));
    SessionRun r = run_session(w, in, s, CallTiming::kNone, slot);
    account(r);
    return r;
  };

  std::vector<const Event*> pointers;
  pointers.reserve(in.arrivals.size());
  for (const Event& e : in.arrivals) pointers.push_back(&e);

  untraced("session.warmup", shape, -1);

  std::vector<double> push_ns, push_tail_us, finish_ms, wrapper_ns, mq_ns, saving_ns, ooo_ns, agg_ns,
      producer_ns, speedup, ckpt_count, ckpt_overhead_ns, obs_overhead, trace_overhead,
      scrape_us, snapshot_us, snapshot_bytes, retries, broadcasts;
  std::int64_t watermark_lag = 0;
  RunnerRun last_runner;
  EnginesRun last_engines;
  std::size_t shards = 1;
  int rounds = 0;
  const auto start = Clock::now();
  while (rounds < kMinRounds || seconds(Clock::now() - start) < seconds_budget) {
    // Metrics on and off alternate which goes first.
    SessionShape off = shape;
    off.metrics = false;
    SessionRun plain, quiet;
    if (rounds % 2 == 0) {
      plain = untraced("session.untraced", shape, rounds);
      quiet = untraced("session.metrics_off", off, rounds);
    } else {
      quiet = untraced("session.metrics_off", off, rounds);
      plain = untraced("session.untraced", shape, rounds);
    }

    tracer.set_run(run_id++);
    SessionRun traced = run_session(w, in, shape, CallTiming::kSpans, rounds, &tracer);
    account(traced);

    tracer.set_run(run_id++);
    RunnerRun runner = run_runner(w, in, tracer, rounds);
    rep.results_wrong += results_wrong(ref, runner.output);

    tracer.set_run(run_id++);
    EnginesRun engines = run_engines(w, in, ref, pointers, tracer, rounds);
    rep.results_wrong += engines.results_wrong;

    if (w.checkpoint_every > 0) {
      SessionShape plain_shape = shape;
      plain_shape.checkpoint_every = 0;
      const SessionRun no_ckpt = untraced("session.no_checkpoint", plain_shape, rounds);
      ckpt_overhead_ns.push_back((plain.run_s - no_ckpt.run_s) * 1e9 / n);
    } else {
      ckpt_overhead_ns.push_back(0.0);
    }

    const double mq = runner.work_s * 1e9 / n;
    push_ns.push_back(traced.push_s * 1e9 / n);
    push_tail_us.push_back(tail_mean(traced.call_ns, 0.99) * 1e-3);
    finish_ms.push_back(traced.finish_s * 1e3);
    wrapper_ns.push_back((traced.push_s + traced.finish_s) * 1e9 / n - mq);
    mq_ns.push_back(mq);
    saving_ns.push_back((engines.ooo_s + engines.agg_s) * 1e9 / n - mq);
    ooo_ns.push_back(engines.ooo_s * 1e9 / n);
    agg_ns.push_back(engines.agg_s * 1e9 / n);
    producer_ns.push_back(traced.shards > 1 ? traced.push_s * 1e9 / n : 0.0);
    speedup.push_back(ratio(runner.run_s, plain.run_s));
    obs_overhead.push_back(ratio(plain.run_s, quiet.run_s) - 1.0);
    trace_overhead.push_back(ratio(traced.run_s, plain.run_s) - 1.0);
    retries.push_back(static_cast<double>(traced.metrics.counter("oosp_shard_push_retries_total")));
    broadcasts.push_back(static_cast<double>(traced.metrics.counter("oosp_shard_broadcasts_total")));
    ckpt_count.push_back(static_cast<double>(traced.metrics.counter("oosp_shard_checkpoints_total")));
    watermark_lag = std::max(watermark_lag, traced.watermark_lag);
    for (double s : traced.scrape_s) scrape_us.push_back(s * 1e6);
    snapshot_us.insert(snapshot_us.end(), runner.snapshot_us.begin(), runner.snapshot_us.end());
    snapshot_bytes.insert(snapshot_bytes.end(), runner.snapshot_bytes.begin(),
                          runner.snapshot_bytes.end());
    shards = traced.shards;
    last_runner = std::move(runner);
    last_engines = engines;
    ++rounds;
  }

  const oosp::EngineStats& es = last_engines.ooo_stats;
  rep.add("query.compile_us", median(compile_us), "us");
  rep.add("session.push_ns_per_event", median(push_ns), "ns/ev");
  rep.add("session.push_tail_us", median(push_tail_us), "us");
  rep.add("session.finish_ms", median(finish_ms), "ms");
  rep.add("session.wrapper_ns_per_event", median(wrapper_ns), "ns/ev");
  rep.add("multi_query.ns_per_event", median(mq_ns), "ns/ev");
  rep.add("multi_query.routed_frac",
          ratio(static_cast<double>(last_runner.routed), static_cast<double>(last_runner.seen)),
          "fraction");
  rep.add("mqo.groups", static_cast<double>(last_runner.groups), "count");
  rep.add("mqo.shared_insertions", static_cast<double>(last_runner.shared_insertions), "count");
  rep.add("mqo.sharing_saving_ns_per_event", median(saving_ns), "ns/ev");
  rep.add("engine.ooo.ns_per_event", median(ooo_ns), "ns/ev");
  rep.add("engine.instances_inserted", static_cast<double>(es.instances_inserted), "count");
  rep.add("engine.construction_visits", static_cast<double>(es.construction_visits), "count");
  rep.add("engine.predicate_evals", static_cast<double>(es.predicate_evals), "count");
  rep.add("engine.match_yield",
          ratio(static_cast<double>(es.matches_emitted), static_cast<double>(es.construction_visits)),
          "ratio");
  rep.add("engine.purge_passes", static_cast<double>(es.purge_passes), "count");
  rep.add("engine.purged_per_pass",
          ratio(static_cast<double>(es.instances_purged), static_cast<double>(es.purge_passes)),
          "count");
  rep.add("engine.pending_peak", static_cast<double>(es.pending_peak), "count");
  rep.add("engine.seals", static_cast<double>(last_engines.seals), "count");
  rep.add("engine.cancels", static_cast<double>(es.matches_cancelled), "count");
  rep.add("engine.agg.ns_per_event", median(agg_ns), "ns/ev");
  rep.add("agg.windows_emitted", static_cast<double>(last_engines.windows_emitted), "count");
  rep.add("agg.tree_depth", static_cast<double>(last_engines.tree_depth), "levels");
  rep.add("sharded.producer_ns_per_event", median(producer_ns), "ns/ev");
  rep.add("sharded.push_retries", median(retries), "count");
  rep.add("sharded.broadcasts", median(broadcasts), "count");
  rep.add("sharded.watermark_lag", static_cast<double>(watermark_lag), "ts");
  rep.add("sharded.speedup_vs_1shard", median(speedup), "x");
  rep.add("checkpoint.count", median(ckpt_count), "count");
  rep.add("checkpoint.bytes_per_checkpoint", median(snapshot_bytes), "bytes");
  rep.add("checkpoint.duration_p50_us", quantile(snapshot_us, 0.50), "us");
  rep.add("checkpoint.duration_p99_us", quantile(snapshot_us, 0.99), "us");
  rep.add("recovery.replayed_events", static_cast<double>(rep.replayed), "count");
  rep.add("checkpoint.overhead_ns_per_event", median(ckpt_overhead_ns), "ns/ev");
  rep.add("obs.overhead_frac", median(obs_overhead), "fraction");
  rep.add("obs.scrape_us", median(scrape_us), "us");
  rep.add("trace.overhead_frac", median(trace_overhead), "fraction");

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "effective shards %zu; %d rounds (medians over rounds); %zu snapshot samples",
                shards, rounds, snapshot_us.size());
  rep.notes.push_back(buf);
  return rep;
}

}  // namespace sessionbench
