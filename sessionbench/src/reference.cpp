#include "reference.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <utility>

#include "engine/oracle/oracle.hpp"
#include "numbers.hpp"
#include "runtime/verify.hpp"

namespace sessionbench {

using oosp::AggFn;
using oosp::Event;
using oosp::Match;
using oosp::TaggedMatch;
using oosp::Value;
using oosp::ValueType;

namespace {

AggRow row_of(std::int64_t start, std::int64_t end, std::int64_t key, std::int64_t count,
              const Value& v) {
  AggRow r{end, key, start, count, v.type(), 0};
  r.value_bits = v.type() == ValueType::kDouble
                     ? std::bit_cast<std::uint64_t>(v.as_double())
                     : static_cast<std::uint64_t>(v.as_int());
  return r;
}

AggRow decode(const Match& m) {
  const Event& e = m.events.front();
  return row_of(e.attrs.at(0).as_int(), e.attrs.at(1).as_int(), e.attrs.at(2).as_int(),
                e.attrs.at(4).as_int(), e.attrs.at(3));
}

std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  const std::int64_t q = a / b, r = a % b;
  return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;
}

// Recompute reference for one AGG query: every (key, window) folded anew
// from the (ts, id)-sorted events. Int sums wrap through uint64,
// double sums fold in (ts, id) order, avg divides in double and -0.0 is
// canonicalised — the engine's numeric contract.
std::vector<AggRow> recompute(const oosp::CompiledQuery& q, std::vector<Event> events) {
  const oosp::AggSpec& spec = q.agg();
  const oosp::Timestamp w = q.window(), s = spec.slide;
  std::sort(events.begin(), events.end(), oosp::TsIdLess{});
  struct Acc {
    std::uint64_t count = 0, isum = 0;
    std::int64_t imin = std::numeric_limits<std::int64_t>::max();
    std::int64_t imax = std::numeric_limits<std::int64_t>::min();
    double dsum = 0.0;
    double dmin = std::numeric_limits<double>::infinity();
    double dmax = -std::numeric_limits<double>::infinity();
  };
  std::map<std::pair<std::int64_t, std::int64_t>, Acc> accs;  // (key, window index)
  const bool dbl = spec.value_type == ValueType::kDouble;
  for (const Event& e : events) {
    if (e.type != spec.type) continue;
    std::int64_t iv = 0;
    double dv = 0.0;
    if (spec.fn != AggFn::kCount) {
      const Value& v = e.attrs.at(spec.value_slot);
      if (dbl) {
        dv = v.as_double();
        if (dv == 0.0) dv = 0.0;
      } else {
        iv = v.as_int();
      }
    }
    const std::int64_t key = spec.has_key ? e.attrs.at(spec.key_slot).as_int() : 0;
    for (std::int64_t i = floor_div(e.ts - w, s) + 1, hi = floor_div(e.ts, s); i <= hi; ++i) {
      Acc& a = accs[{key, i}];
      ++a.count;
      a.isum += static_cast<std::uint64_t>(iv);
      a.imin = std::min(a.imin, iv);
      a.imax = std::max(a.imax, iv);
      a.dsum += dv;
      a.dmin = std::min(a.dmin, dv);
      a.dmax = std::max(a.dmax, dv);
    }
  }
  std::vector<AggRow> out;
  out.reserve(accs.size());
  for (const auto& [ki, a] : accs) {
    const auto count = static_cast<std::int64_t>(a.count);
    Value v;
    switch (spec.fn) {
      case AggFn::kCount: v = Value(count); break;
      case AggFn::kSum:
        v = dbl ? Value(a.dsum == 0.0 ? 0.0 : a.dsum)
                : Value(static_cast<std::int64_t>(a.isum));
        break;
      case AggFn::kMin: v = dbl ? Value(a.dmin) : Value(a.imin); break;
      case AggFn::kMax: v = dbl ? Value(a.dmax) : Value(a.imax); break;
      case AggFn::kAvg: {
        const double sum = dbl ? a.dsum : static_cast<double>(static_cast<std::int64_t>(a.isum));
        const double avg = sum / static_cast<double>(a.count);
        v = Value(avg == 0.0 ? 0.0 : avg);
        break;
      }
    }
    out.push_back(row_of(ki.second * s, ki.second * s + w, ki.first, count, v));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Size of the symmetric difference of two sorted multisets.
template <class T>
std::uint64_t sorted_mismatch(const std::vector<T>& want, const std::vector<T>& got) {
  std::uint64_t wrong = 0;
  std::size_t i = 0, j = 0;
  while (i < want.size() && j < got.size()) {
    if (want[i] == got[j]) {
      ++i;
      ++j;
    } else if (want[i] < got[j]) {
      ++wrong;
      ++i;
    } else {
      ++wrong;
      ++j;
    }
  }
  return wrong + (want.size() - i) + (got.size() - j);
}

std::uint64_t query_wrong(const Reference& ref, oosp::QueryId q,
                          const std::vector<const Match*>& got) {
  if (ref.queries[q]->is_agg()) {
    std::vector<AggRow> rows;
    rows.reserve(got.size());
    for (const Match* m : got) rows.push_back(decode(*m));
    std::sort(rows.begin(), rows.end());
    return sorted_mismatch(ref.agg_rows[q], rows);
  }
  std::vector<oosp::MatchKey> keys;
  keys.reserve(got.size());
  for (const Match* m : got) keys.push_back(oosp::match_key(*m));
  std::sort(keys.begin(), keys.end());
  const oosp::VerifyResult v = oosp::compare_keys(ref.seq_keys[q], keys);
  return v.missed + v.false_positives;
}

}  // namespace

Reference build_reference(const Inputs& in) {
  Reference ref;
  for (const std::string& text : in.queries) {
    auto q = oosp::compile_query_shared(text, in.registry());
    if (q->is_agg()) {
      ref.agg_rows.push_back(recompute(*q, in.arrivals));
      ref.seq_keys.emplace_back();
    } else {
      ref.seq_keys.push_back(oosp::oracle_keys(*q, in.arrivals));
      ref.agg_rows.emplace_back();
    }
    ref.queries.push_back(std::move(q));
  }
  return ref;
}

std::uint64_t results_wrong(const Reference& ref, std::span<const TaggedMatch> out) {
  std::vector<std::vector<const Match*>> by_query(ref.queries.size());
  std::uint64_t wrong = 0;
  for (const TaggedMatch& tm : out) {
    if (tm.query < by_query.size()) {
      by_query[tm.query].push_back(&tm.match);
    } else {
      ++wrong;  // a result for a query that was never registered
    }
  }
  for (oosp::QueryId q = 0; q < by_query.size(); ++q) wrong += query_wrong(ref, q, by_query[q]);
  return wrong;
}

std::uint64_t results_wrong(const Reference& ref, oosp::QueryId q, std::span<const Match> out) {
  std::vector<const Match*> got;
  got.reserve(out.size());
  for (const Match& m : out) got.push_back(&m);
  return query_wrong(ref, q, got);
}

std::uint64_t sequence_fingerprint(std::span<const TaggedMatch> out) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const TaggedMatch& tm : out) {
    mix(tm.query);
    mix(tm.match.events.size());
    for (const Event& e : tm.match.events) {
      mix(e.id);
      for (const Value& v : e.attrs) {
        switch (v.type()) {
          case ValueType::kInt: mix(static_cast<std::uint64_t>(v.as_int())); break;
          case ValueType::kDouble: mix(std::bit_cast<std::uint64_t>(v.as_double())); break;
          default: mix(v.hash()); break;
        }
      }
    }
  }
  return h;
}

std::uint64_t OutputCheck::check(std::span<const TaggedMatch> out) {
  const std::uint64_t fp = sequence_fingerprint(out);
  if (!seen_first_) {
    seen_first_ = true;
    fingerprint_ = fp;
    size_ = out.size();
    return results_wrong(ref_, out);
  }
  if (fp == fingerprint_ && out.size() == size_) return 0;
  return std::max<std::uint64_t>(1, results_wrong(ref_, out));
}

DelayStats result_delays(std::span<const TaggedMatch> out) {
  std::vector<oosp::Timestamp> d;
  d.reserve(out.size());
  double sum = 0.0;
  for (const TaggedMatch& tm : out) {
    d.push_back(tm.match.detection_delay());
    sum += static_cast<double>(d.back());
  }
  DelayStats s;
  if (d.empty()) return s;
  s.mean = sum / static_cast<double>(d.size());
  s.p50 = quantile(d, 0.50);
  s.p99 = quantile(d, 0.99);
  return s;
}

}  // namespace sessionbench
