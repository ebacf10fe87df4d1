#include "end_to_end.hpp"

#include <chrono>
#include <cstdio>

#include "numbers.hpp"
#include "session_runs.hpp"

namespace sessionbench {

namespace {

constexpr int kMinRepetitions = 3;

std::string fmt(const char* f, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b, c);
  return buf;
}

}  // namespace

Report run_end_to_end(const Workload& w, const Inputs& in, const Reference& ref,
                      double seconds) {
  Report rep;
  OutputCheck check(ref);
  const SessionShape shape = SessionShape::of(w);
  const auto account = [&](const SessionRun& r) {
    rep.attempted += r.events;
    rep.failed += r.failed;
    rep.replayed += r.replayed;
    rep.results_wrong += check.check(r.output);
  };

  // A sharded workload's ordered output must equal its single-shard run:
  // that run goes first, so every later output is compared with it.
  if (w.shards > 1) account(run_session(w, in, SessionShape{1, 0, true}, CallTiming::kNone));
  // Warm-up: the first run in a process is slower; checked, not timed.
  account(run_session(w, in, shape, CallTiming::kDurations));

  std::vector<double> setup, eps, finish, tail, cpu, delay_mean, delay_p99, delay_p50, peak;
  // Every call of every timed run, pooled, for the printed percentiles.
  LogLinearHistogram ingest;
  std::size_t shards = 1;
  std::size_t results = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0;; ++i) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (i >= kMinRepetitions && elapsed >= seconds) break;
    SessionRun r = run_session(w, in, shape, CallTiming::kDurations, i);
    account(r);
    const double n = static_cast<double>(r.events);
    setup.push_back(r.setup_s);
    eps.push_back(n / r.run_s);
    finish.push_back(r.finish_s);
    for (const std::uint32_t ns : r.call_ns) ingest.add(ns);
    tail.push_back(tail_mean(r.call_ns, 0.99) * 1e-3);
    cpu.push_back(r.cpu_s * 1e9 / n);
    const DelayStats d = result_delays(r.output);
    delay_mean.push_back(d.mean);
    delay_p50.push_back(d.p50);
    delay_p99.push_back(d.p99);
    peak.push_back(static_cast<double>(r.state_peak));
    shards = r.shards;
    results = r.output.size();
  }
  const std::size_t reps = eps.size();

  rep.add("throughput_eps", median(eps), "ev/s");
  rep.add("setup_s", median(setup), "s");
  rep.add("ingest_p50_us", ingest.quantile(0.50) * 1e-3, "us");
  rep.add("cpu_ns_per_event", median(cpu), "ns/ev");
  rep.add("result_delay_mean_ts", median(delay_mean), "ts");
  rep.add("result_delay_p99_ts", median(delay_p99), "ts");
  rep.add("state_peak", median(peak), "count");

  rep.notes.push_back(fmt("effective shards %.0f; %.0f timed runs (medians over runs)",
                          static_cast<double>(shards), static_cast<double>(reps)));
  rep.notes.push_back(fmt("ingest: %.0f ", static_cast<double>(ingest.count())) +
                      (w.batch <= 1 ? "push" : "push_batch") +
                      fmt(" calls pooled over runs; p99 %.1f us, p99.9 %.1f us",
                          ingest.quantile(0.99) * 1e-3, ingest.quantile(0.999) * 1e-3));
  // Printed, not bounded: both jump by 10-100x when one shard worker
  // falls behind and fills its ring (see README.md).
  rep.notes.push_back(fmt("finish_s %.6g s; ingest_tail_us %.6g us (mean of each run's "
                          "slowest 1%% of calls)",
                          median(finish), median(tail)));
  rep.notes.push_back(fmt("results per run: %.0f; result_delay_p50_ts %.0f ts",
                          static_cast<double>(results), median(delay_p50)));
  return rep;
}

}  // namespace sessionbench
