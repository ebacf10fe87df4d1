// Reference results and the checks the benchmark applies to every run.
//
// SEQ queries are checked against the brute-force oracle (oracle_keys);
// AGG queries against a recompute reference that folds every window from
// the full event multiset with the engine's numeric contract. Both are
// computed once per process, outside every timed region.
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/core/match.hpp"
#include "engine/core/sink.hpp"
#include "query/compiled.hpp"
#include "workloads.hpp"

namespace sessionbench {

// One aggregate window result: the payload of the synthetic result event.
struct AggRow {
  oosp::Timestamp end = 0;
  std::int64_t key = 0;
  oosp::Timestamp start = 0;
  std::int64_t count = 0;
  oosp::ValueType type = oosp::ValueType::kInt;
  std::uint64_t value_bits = 0;  // int value, or the double's bit pattern

  auto operator<=>(const AggRow&) const = default;
};

struct Reference {
  std::vector<std::shared_ptr<const oosp::CompiledQuery>> queries;
  // Per query: sorted oracle match keys (SEQ) or sorted window rows (AGG).
  std::vector<std::vector<oosp::MatchKey>> seq_keys;
  std::vector<std::vector<AggRow>> agg_rows;
};

Reference build_reference(const Inputs& in);

// Missed plus spurious results, summed over queries.
std::uint64_t results_wrong(const Reference& ref, std::span<const oosp::TaggedMatch> out);
// The same for one query's untagged results (a standalone engine).
std::uint64_t results_wrong(const Reference& ref, oosp::QueryId q,
                            std::span<const oosp::Match> out);

// Order-sensitive fingerprint over query ids, event ids and attribute
// values (not detection clocks). Two runs with equal fingerprints and
// lengths delivered the same results in the same order.
std::uint64_t sequence_fingerprint(std::span<const oosp::TaggedMatch> out);

// Checks a series of Session outputs that must all be the same ordered
// sequence: the first against the reference, every later one against
// the first. Returns the results wrong in `out` (a reordering of correct
// results counts as one).
class OutputCheck {
 public:
  explicit OutputCheck(const Reference& ref) : ref_(ref) {}

  std::uint64_t check(std::span<const oosp::TaggedMatch> out);

 private:
  const Reference& ref_;
  bool seen_first_ = false;
  std::uint64_t fingerprint_ = 0;
  std::size_t size_ = 0;
};

// Result delay in stream time (detection_clock − last_ts) over every
// delivered result.
struct DelayStats {
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};
DelayStats result_delays(std::span<const oosp::TaggedMatch> out);

}  // namespace sessionbench
