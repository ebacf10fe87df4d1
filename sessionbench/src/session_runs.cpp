#include "session_runs.hpp"

#include <chrono>
#include <ctime>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>

#include "affinity.hpp"
#include "runtime/session.hpp"

namespace sessionbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

SessionRun run_session(const Workload& w, const Inputs& in, const SessionShape& shape,
                       CallTiming timing, long slot, Tracer* tracer) {
  if (timing == CallTiming::kSpans && tracer == nullptr)
    throw std::invalid_argument("run_session: kSpans needs a tracer");
  const bool spans = timing == CallTiming::kSpans;
  Tracer::NameId n_run = 0, n_setup = 0, n_push = 0, n_finish = 0, n_scrape = 0,
                 n_snapshot = 0, n_text = 0;
  if (spans) {
    n_run = tracer->name("session.run");
    n_setup = tracer->name("session.setup");
    n_push = tracer->name(w.batch <= 1 ? "session.push" : "session.push_batch");
    n_finish = tracer->name("session.finish");
    n_scrape = tracer->name("obs.scrape");
    n_snapshot = tracer->name("obs.metrics_snapshot");
    n_text = tracer->name("obs.metrics_text");
  }

  SessionRun r;
  r.events = in.arrivals.size();
  const auto sink = std::make_shared<oosp::CollectingTaggedSink>();
  const std::uint64_t run_span = spans ? tracer->begin(n_run) : 0;

  const std::uint64_t setup_span = spans ? tracer->begin(n_setup) : 0;
  const auto t0 = Clock::now();
  oosp::Session session(in.registry(), session_config(in, shape), sink);
  const auto t1 = Clock::now();
  if (spans) tracer->end(setup_span);
  r.setup_s = seconds(t1 - t0);
  r.shards = session.shard_count();
  std::optional<CpuRotation::Pin> pin;
  if (slot >= 0) pin.emplace(static_cast<std::size_t>(slot));

  // Both scrape calls a monitoring agent makes, as one span.
  const auto scrape = [&] {
    const std::uint64_t s = tracer->begin(n_scrape);
    const std::uint64_t a = tracer->begin(n_snapshot);
    const oosp::MetricsSnapshot snap = session.metrics_snapshot();
    tracer->end(a);
    const std::uint64_t b = tracer->begin(n_text);
    const std::string text = session.metrics_text();
    tracer->end(b);
    r.scrape_s.push_back(static_cast<double>(tracer->end(s)) * 1e-9);
    r.watermark_lag = std::max(r.watermark_lag, snap.gauge("oosp_shard_watermark_lag"));
  };
  const auto push = [&](std::span<const oosp::Event> s) {
    if (w.batch <= 1) {
      session.push(s.front());
    } else {
      session.push_batch(s);
    }
  };

  const std::size_t step = std::max<std::size_t>(1, w.batch);
  const std::size_t calls = (in.arrivals.size() + step - 1) / step;
  const double cpu0 = cpu_seconds();
  const auto f0 = Clock::now();
  switch (timing) {
    case CallTiming::kNone:
      feed(in.arrivals, w.batch, push);
      break;
    case CallTiming::kDurations:
      r.call_ns.reserve(calls);
      feed(in.arrivals, w.batch, [&](std::span<const oosp::Event> s) {
        const auto a = Clock::now();
        push(s);
        r.call_ns.push_back(static_cast<std::uint32_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - a).count()));
      });
      break;
    case CallTiming::kSpans: {
      std::size_t index = 0;
      std::int64_t push_ns = 0;
      r.call_ns.reserve(calls);
      feed(in.arrivals, w.batch, [&](std::span<const oosp::Event> s) {
        if (index++ == calls / 2 && shape.metrics) scrape();
        const std::uint64_t id = tracer->begin(n_push, /*detail=*/true);
        push(s);
        const std::int64_t ns = tracer->end(id);
        push_ns += ns;
        r.call_ns.push_back(static_cast<std::uint32_t>(ns));
      });
      r.push_s = static_cast<double>(push_ns) * 1e-9;
      break;
    }
  }
  const auto f1 = Clock::now();
  const std::uint64_t finish_span = spans ? tracer->begin(n_finish) : 0;
  session.finish();
  if (spans) tracer->end(finish_span);
  const auto f2 = Clock::now();
  r.cpu_s = cpu_seconds() - cpu0;
  r.run_s = seconds(f2 - f0);
  r.finish_s = seconds(f2 - f1);
  if (spans && shape.metrics) scrape();
  if (spans) tracer->end(run_span);

  r.output = sink->take();
  r.failed = session.overload_shed() + session.degraded_accounting().dropped_events;
  for (oosp::QueryId q = 0; q < session.query_count(); ++q) {
    const oosp::EngineStats st = session.stats(q);
    r.failed += st.events_dropped_late + st.events_quarantined + st.events_rejected;
  }
  r.state_peak = session.total_stats().footprint_peak;
  r.replayed = session.replayed_events();
  if (shape.metrics) r.metrics = session.metrics_snapshot();
  return r;
}

}  // namespace sessionbench
