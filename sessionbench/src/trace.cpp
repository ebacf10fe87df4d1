#include "trace.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>

namespace sessionbench {

Tracer::Tracer(std::size_t detail_budget)
    : epoch_(std::chrono::steady_clock::now()), detail_budget_(detail_budget) {
  spans_.reserve(detail_budget + 4096);
}

Tracer::NameId Tracer::name(std::string_view n) {
  for (NameId i = 0; i < names_.size(); ++i)
    if (names_[i] == n) return i;
  names_.emplace_back(n);
  totals_.emplace_back();
  return static_cast<NameId>(names_.size() - 1);
}

std::uint64_t Tracer::begin(NameId name, bool detail) {
  const std::uint64_t parent = open_.empty() ? kNoParent : open_.back().id;
  open_.push_back(Open{next_id_, parent, name, detail, now_ns(), 0});
  return next_id_++;
}

std::int64_t Tracer::end(std::uint64_t span) {
  const std::int64_t t = now_ns();
  if (open_.empty() || open_.back().id != span)
    throw std::logic_error("trace spans closed out of order");
  const Open o = open_.back();
  open_.pop_back();
  const std::int64_t dur = t - o.start_ns;
  Totals& tot = totals_[o.name];
  ++tot.count;
  tot.total_ns += dur;
  tot.self_ns += dur - o.child_ns;
  if (!open_.empty()) open_.back().child_ns += dur;
  if (o.detail && detail_stored_ >= detail_budget_) {
    ++detail_dropped_;
  } else {
    if (o.detail) ++detail_stored_;
    spans_.push_back(Span{o.id, o.parent, o.name, run_, o.start_ns, t});
  }
  return dur;
}

bool Tracer::write_json(const std::string& path) const {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "w"),
                                                          &std::fclose);
  if (!f) return false;
  std::FILE* out = f.get();
  std::fprintf(out, "{\n\"clock\": \"steady_clock ns since tracer start\",\n");
  std::fprintf(out, "\"span_fields\": [\"id\", \"name\", \"parent\", \"run\", \"start_ns\", \"end_ns\"],\n");
  std::fprintf(out, "\"detail_spans_not_stored\": %llu,\n",
               static_cast<unsigned long long>(detail_dropped_));
  std::fprintf(out, "\"totals\": {");
  for (std::size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(out, "%s\n  \"%s\": {\"count\": %llu, \"total_ns\": %lld, \"self_ns\": %lld}",
                 i ? "," : "", names_[i].c_str(),
                 static_cast<unsigned long long>(totals_[i].count),
                 static_cast<long long>(totals_[i].total_ns),
                 static_cast<long long>(totals_[i].self_ns));
  }
  std::fprintf(out, "\n},\n\"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const long long parent = s.parent == kNoParent ? -1 : static_cast<long long>(s.parent);
    std::fprintf(out, "%s\n[%llu,\"%s\",%lld,%u,%lld,%lld]", i ? "," : "",
                 static_cast<unsigned long long>(s.id), names_[s.name].c_str(), parent,
                 s.run, static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  std::fprintf(out, "\n]\n}\n");
  return std::ferror(out) == 0;
}

}  // namespace sessionbench
