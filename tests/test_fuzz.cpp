// Randomized differential testing: for a sweep of seeds, generate a
// random query and a random disorder regime, then require the native OOO
// engine (with per-seed-rotated options), the buffered engine and — via
// net results — the aggressive policy to reproduce the oracle exactly.
// Any divergence prints the full reproduction recipe (all inputs derive
// from the seed).
#include <gtest/gtest.h>

#include <sstream>

#include "engine_test_util.hpp"
#include "stream/disorder.hpp"
#include "stream/outage.hpp"
#include "workload/synthetic.hpp"

namespace oosp {
namespace {

using testutil::run_engine;

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSweep, EnginesMatchOracle) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);

  // Random workload shape.
  SyntheticConfig cfg;
  cfg.num_events = 1'200 + static_cast<std::size_t>(rng.uniform_int(0, 1'200));
  cfg.num_types = static_cast<std::size_t>(rng.uniform_int(2, 5));
  cfg.key_cardinality = rng.uniform_int(2, 40);
  cfg.key_skew = rng.bernoulli(0.5) ? rng.uniform(0.5, 1.5) : 0.0;
  cfg.mean_gap = rng.uniform_int(2, 8);
  cfg.seed = seed;
  SyntheticWorkload wl(cfg);
  const auto ordered = wl.generate();

  // Random query over that workload.
  const Timestamp window = rng.uniform_int(40, 400);
  const std::size_t max_len = std::min<std::size_t>(cfg.num_types, 4);
  std::string query_text;
  if (cfg.num_types >= 3 && rng.bernoulli(0.35)) {
    query_text = wl.negation_query(window);
  } else {
    const auto len = static_cast<std::size_t>(
        rng.uniform_int(2, static_cast<std::int64_t>(max_len)));
    const bool keyed = rng.bernoulli(0.7);
    const std::int64_t min_val = rng.bernoulli(0.3) ? rng.uniform_int(100, 700) : -1;
    query_text = wl.seq_query(len, keyed, window, min_val);
  }

  // Random disorder: jitter or partial outage.
  std::vector<Event> arrivals;
  Timestamp slack = 0;
  if (rng.bernoulli(0.3)) {
    OutageInjector inj({.outages = static_cast<std::size_t>(rng.uniform_int(1, 4)),
                        .min_duration = rng.uniform_int(50, 150),
                        .max_duration = rng.uniform_int(150, 600),
                        .affected_fraction = rng.uniform(0.2, 0.8),
                        .seed = seed + 7});
    arrivals = inj.deliver(ordered);
    slack = inj.slack_bound();
  } else {
    const Timestamp max_delay = rng.uniform_int(20, 500);
    LatencyModel model;
    switch (rng.uniform_int(0, 2)) {
      case 0: model = LatencyModel::uniform(max_delay); break;
      case 1: model = LatencyModel::pareto(2.0, 1.3, max_delay); break;
      default:
        model = LatencyModel::normal(max_delay / 2.0, max_delay / 3.0, max_delay);
    }
    DisorderInjector inj(model, rng.uniform(0.05, 0.6), seed + 7);
    arrivals = inj.deliver(ordered);
    slack = inj.slack_bound();
  }

  const CompiledQuery q = compile_query(query_text, wl.registry());
  const auto truth = oracle_keys(q, arrivals);

  std::ostringstream recipe;
  recipe << "seed=" << seed << " query=\"" << query_text << "\" events="
         << arrivals.size() << " slack=" << slack << " expected=" << truth.size();

  // Rotate engine options by seed so the whole grid gets fuzzed over the
  // suite without running every combination on every seed.
  EngineOptions opt;
  opt.slack = slack;
  opt.partition_by_key = (seed % 2) == 0;
  opt.purge_period = (seed % 5 == 0) ? 1 : (seed % 5 == 1 ? 0 : 32);

  {
    const auto sink = std::make_shared<CollectingSink>();
    const auto engine = testutil::make_test_engine(EngineKind::kOoo, q, sink, opt);
    for (const Event& e : arrivals) engine->on_event(e);
    engine->finish();
    EXPECT_EQ(sink->sorted_keys(), truth) << "ooo conservative, " << recipe.str();
    EXPECT_EQ(engine->stats_snapshot().contract_violations, 0u) << recipe.str();
  }
  {
    EngineOptions aopt = opt;
    aopt.aggressive_negation = true;
    const auto sink = std::make_shared<CollectingSink>();
    const auto engine = testutil::make_test_engine(EngineKind::kOoo, q, sink, aopt);
    for (const Event& e : arrivals) engine->on_event(e);
    engine->finish();
    EXPECT_EQ(sink->net_sorted_keys(), truth) << "ooo aggressive, " << recipe.str();
  }
  {
    const auto sink = std::make_shared<CollectingSink>();
    const auto engine = testutil::make_test_engine(EngineKind::kKSlackInOrder, q, sink, opt);
    for (const Event& e : arrivals) engine->on_event(e);
    engine->finish();
    EXPECT_EQ(sink->sorted_keys(), truth) << "kslack, " << recipe.str();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace oosp
