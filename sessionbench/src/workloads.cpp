#include "workloads.hpp"

namespace sessionbench {

using oosp::SyntheticWorkload;

namespace {

std::vector<std::string> single_seq3(const SyntheticWorkload& g) {
  return {g.seq_query(3, /*keyed=*/true, 1000)};
}

// Eight 2-step SEQs that share their T0 prefix and differ only in a
// step-local threshold (one shared-scan group), one negation query
// (conservative sealing, fed clock ticks by every type) and one
// sliding-window aggregate.
std::vector<std::string> mixed_ten(const SyntheticWorkload& g) {
  std::vector<std::string> q;
  for (std::int64_t t = 0; t < 8; ++t) q.push_back(g.seq_query(2, true, 1000, t * 100));
  q.push_back(g.negation_query(1000));
  q.push_back("AGG avg(T2.val) OVER 1000 SLIDE 100");
  return q;
}

std::vector<std::string> single_seq2_short(const SyntheticWorkload& g) {
  return {g.seq_query(2, true, 200)};
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    Workload single_ooo{.name = "single_ooo",
                        .events = 500'000,
                        .keys = 256,
                        .mean_gap = 4,
                        .late_fraction = 0.20,
                        .max_delay = 500,
                        .queries = &single_seq3,
                        .batch = 1,
                        .shards = 1};
    Workload query_mix{.name = "query_mix",
                       .events = 300'000,
                       .keys = 4096,
                       .mean_gap = 1,
                       .late_fraction = 0.10,
                       .max_delay = 300,
                       .queries = &mixed_ten,
                       .batch = 256,
                       .shards = 1};
    Workload sharded_batch{.name = "sharded_batch",
                           .events = 600'000,
                           .keys = 8192,
                           .mean_gap = 1,
                           .late_fraction = 0.10,
                           .max_delay = 300,
                           .queries = &single_seq2_short,
                           .batch = 256,
                           .shards = 3};
    Workload sharded_recovery = sharded_batch;
    sharded_recovery.name = "sharded_recovery";
    sharded_recovery.checkpoint_every = 50'000;
    return std::vector<Workload>{single_ooo, query_mix, sharded_batch, sharded_recovery};
  }();
  return all;
}

// splitmix64: decorrelates the generator and injector seeds.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::string workload_names() {
  std::string out;
  for (const Workload& w : workloads()) out += (out.empty() ? "" : ", ") + w.name;
  return out;
}

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  oosp::SyntheticConfig cfg;
  cfg.num_events = w.events;
  cfg.num_types = 3;
  cfg.key_cardinality = w.keys;
  cfg.mean_gap = w.mean_gap;
  cfg.seed = mix(seed * 2 + 1);

  Inputs in;
  in.generator = std::make_unique<SyntheticWorkload>(cfg);
  oosp::DisorderInjector injector(oosp::LatencyModel::uniform(w.max_delay), w.late_fraction,
                                  mix(seed * 2 + 2));
  in.arrivals = injector.deliver(in.generator->generate());
  in.slack = injector.slack_bound();
  in.disorder = oosp::DisorderInjector::measure(in.arrivals);
  in.queries = w.queries(*in.generator);
  return in;
}

oosp::SessionConfig session_config(const Inputs& in, const SessionShape& shape) {
  oosp::SessionConfig cfg;
  cfg.engine(oosp::EngineKind::kOoo)
      .slack(in.slack)
      .shards(shape.shards)
      .checkpoint_every(shape.checkpoint_every)
      .metrics(shape.metrics);
  for (const std::string& q : in.queries) cfg.query(q);
  return cfg;
}

}  // namespace sessionbench
