// One run of the product path over a workload's arrivals:
// Session construction, push()/push_batch() from this (the only
// producer) thread, finish(). The load is closed-loop: each call returns
// before the next is made, and push blocks under kBlock backpressure.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "engine/core/sink.hpp"
#include "obs/metrics.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace sessionbench {

// How the feed is instrumented.
enum class CallTiming {
  kNone,       // wall time of the whole run only
  kDurations,  // plus one duration per push/push_batch call
  kSpans,      // spans around construction, every call, finish and scrapes
};

struct SessionRun {
  double setup_s = 0.0;   // Session constructor
  double run_s = 0.0;     // first push until finish() returns
  double finish_s = 0.0;  // inside finish()
  double cpu_s = 0.0;     // process CPU time over run_s, every thread
  std::vector<std::uint32_t> call_ns;  // kDurations, kSpans: one per call
  std::vector<oosp::TaggedMatch> output;
  std::uint64_t events = 0;
  // Events shed, refused, dropped or quarantined, summed over queries.
  std::uint64_t failed = 0;
  std::uint64_t state_peak = 0;  // sum of EngineStats::footprint_peak
  std::uint64_t replayed = 0;
  std::size_t shards = 1;
  // kSpans only: total time inside push calls, scrape durations, and the
  // largest watermark lag any scrape saw.
  double push_s = 0.0;
  std::vector<double> scrape_s;
  std::int64_t watermark_lag = 0;
  oosp::MetricsSnapshot metrics;  // after finish(), when metrics are on
};

// `slot` >= 0 pins the producer thread, once the Session is built, to
// the slot-th allowed CPU (see affinity.hpp); -1 leaves it unpinned.
SessionRun run_session(const Workload& w, const Inputs& in, const SessionShape& shape,
                       CallTiming timing, long slot = -1, Tracer* tracer = nullptr);

// Feeds `items` (events, or pointers to them) in the workload's batch
// shape: `call(span)` gets one item (batch == 1) or one slice of up to
// `batch` items.
template <class T, class Call>
void feed(const std::vector<T>& items, std::size_t batch, Call&& call) {
  const std::size_t n = items.size();
  const std::size_t step = batch == 0 ? 1 : batch;
  for (std::size_t i = 0; i < n; i += step)
    call(std::span<const T>(items.data() + i, std::min(step, n - i)));
}

}  // namespace sessionbench
