// The benchmark's workloads: what each one generates, which standing
// queries it registers and how its Session is shaped.
//
// Every workload draws a timestamp-ordered stream from a
// SyntheticWorkload (types T0..T2, schema {key:int, val:int}) and turns
// it into an arrival stream with a DisorderInjector: `late_fraction` of
// the events are delayed by U[0, max_delay]. The Session trusts
// K = the injector's slack bound, runs the native OOO engine and keeps
// every other SessionConfig default (metrics on, kBlock, kAdmit). Both
// generators are seeded from the benchmark's --seed; the program under
// test only ever sees the generated arrivals.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/session.hpp"
#include "stream/disorder.hpp"
#include "workload/synthetic.hpp"

namespace sessionbench {

struct Workload {
  std::string name;
  // Input shape.
  std::size_t events = 0;
  std::int64_t keys = 0;
  oosp::Timestamp mean_gap = 1;
  double late_fraction = 0.0;
  oosp::Timestamp max_delay = 0;
  // Standing queries, rendered against the generator's type names.
  std::vector<std::string> (*queries)(const oosp::SyntheticWorkload&) = nullptr;
  // Session shape. batch == 1 means one push() per event.
  std::size_t batch = 1;
  std::size_t shards = 1;
  std::size_t checkpoint_every = 0;
};

// nullptr when there is no workload of that name.
const Workload* find_workload(std::string_view name);
std::string workload_names();

struct Inputs {
  std::unique_ptr<oosp::SyntheticWorkload> generator;  // owns the type registry
  std::vector<oosp::Event> arrivals;
  std::vector<std::string> queries;
  oosp::Timestamp slack = 0;
  oosp::DisorderStats disorder;

  const oosp::TypeRegistry& registry() const { return generator->registry(); }
};

// Deterministic in (workload, seed).
Inputs make_inputs(const Workload& w, std::uint64_t seed);

// How one Session run is configured: the workload's own shape, or a
// variant of it (one shard, no checkpoints, metrics off).
struct SessionShape {
  std::size_t shards = 1;
  std::size_t checkpoint_every = 0;
  bool metrics = true;

  static SessionShape of(const Workload& w) {
    return SessionShape{w.shards, w.checkpoint_every, true};
  }
};

oosp::SessionConfig session_config(const Inputs& in, const SessionShape& shape);

}  // namespace sessionbench
