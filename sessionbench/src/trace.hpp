// In-memory span recorder for the traced run.
//
// A span is (id, name, parent, run, start, end). Spans nest: begin()
// opens a span under the innermost open one, end() closes it. Times are
// steady_clock nanoseconds since the tracer was built. Everything stays
// in memory until write_json() at the end of the run.
//
// Per name the tracer also keeps exact totals — count, total time, and
// self time (a span's duration minus the time its direct children
// cover) — so the written totals never depend on which spans were
// stored. Spans opened with `detail = true` (one per push/on_event
// call) are stored only while the detail budget lasts; past it they are
// still timed and counted, just not kept, and the file says how many
// were left out. Single-threaded: spans are opened and closed on the
// producer thread only.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sessionbench {

class Tracer {
 public:
  using NameId = std::uint32_t;

  explicit Tracer(std::size_t detail_budget);

  // Interns a span name; look names up once, outside timed loops.
  NameId name(std::string_view n);

  // Groups the spans that follow under one run id (one pass over the
  // input — a Session, a runner or an engine run).
  void set_run(std::uint32_t run) noexcept { run_ = run; }

  // Opens a span; returns the value to hand to end().
  std::uint64_t begin(NameId name, bool detail = false);
  // Closes the innermost open span, which must be `span`; returns its
  // duration in nanoseconds.
  std::int64_t end(std::uint64_t span);

  // Writes names, stored spans, per-name totals and the count of detail
  // spans left out. Returns false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  static constexpr std::uint64_t kNoParent = ~std::uint64_t{0};

  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  struct Span {
    std::uint64_t id;
    std::uint64_t parent;
    std::uint32_t name;
    std::uint32_t run;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  struct Open {
    std::uint64_t id;
    std::uint64_t parent;
    NameId name;
    bool detail;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::size_t detail_budget_;
  std::size_t detail_stored_ = 0;
  std::uint64_t detail_dropped_ = 0;
  std::uint64_t next_id_ = 0;
  std::uint32_t run_ = 0;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Open> open_;
  std::vector<Span> spans_;
};

// Opens a span for the lifetime of a scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, Tracer::NameId name) : t_(t), span_(t.begin(name)) {}
  ~ScopedSpan() {
    if (!closed_) t_.end(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Closes early; returns the duration in nanoseconds.
  std::int64_t close() {
    closed_ = true;
    return t_.end(span_);
  }

 private:
  Tracer& t_;
  std::uint64_t span_;
  bool closed_ = false;
};

}  // namespace sessionbench
