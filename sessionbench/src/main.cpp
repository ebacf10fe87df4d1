// Session-path benchmark binary.
//
//   sessionbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--spans-out <file>]
//
// Generates the workload's arrivals from the seed, computes the reference
// results, then measures: --trace 0 gives the end-to-end metrics of the
// workload's Session, --trace 1 the per-layer metrics of the traced run
// (and writes its spans to --spans-out). Prints readable lines, then, as
// the last line, one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Exits 1 when any output disagrees with the reference or any event was
// shed, refused, dropped or quarantined; 2 on bad arguments.
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "end_to_end.hpp"
#include "layers.hpp"
#include "reference.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace sessionbench;

// Spans per-call that the traced run keeps in memory (40 bytes each).
constexpr std::size_t kDetailSpanBudget = 200'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "sessionbench: %s\nusage: sessionbench --workload <%s> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <file>]\n",
               why.c_str(), workload_names().c_str());
  std::exit(2);
}

template <class T>
T number(std::string_view flag, std::string_view text) {
  T v{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size())
    usage("bad value for " + std::string(flag) + ": " + std::string(text));
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = number<std::uint64_t>(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = number<double>(flag, value);
      have_seconds = true;
    } else if (flag == "--trace") {
      a.trace = number<int>(flag, value);
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      usage("unknown flag " + std::string(flag));
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds) usage("missing a required flag");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

// Shortest text that reads back as the same double.
std::string number_text(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

int run(const Args& args) {
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) usage("unknown workload " + args.workload);

  const auto t0 = std::chrono::steady_clock::now();
  const Inputs in = make_inputs(*w, args.seed);
  const double generate_s = since(t0);
  const auto t1 = std::chrono::steady_clock::now();
  const Reference ref = build_reference(in);
  const double reference_s = since(t1);

  std::string shape = w->batch <= 1 ? "push per event"
                                    : "push_batch(" + std::to_string(w->batch) + ")";
  shape += ", " + std::to_string(w->shards) + " shard(s)";
  if (w->checkpoint_every > 0)
    shape += ", checkpoint_every(" + std::to_string(w->checkpoint_every) + ")";
  std::printf("workload %s, seed %llu: %zu events, %zu queries, %s; K = %lld, %.1f%% late\n",
              w->name.c_str(), static_cast<unsigned long long>(args.seed), in.arrivals.size(),
              in.queries.size(), shape.c_str(), static_cast<long long>(in.slack),
              in.disorder.ooo_percent());
  std::printf("untimed: generation %.2f s, reference %.2f s\n", generate_s, reference_s);

  Report rep;
  if (args.trace == 0) {
    rep = run_end_to_end(*w, in, ref, args.seconds);
  } else {
    Tracer tracer(kDetailSpanBudget);
    rep = run_layers(*w, in, ref, args.seconds, tracer);
    if (!args.spans_out.empty()) {
      if (!tracer.write_json(args.spans_out)) {
        std::fprintf(stderr, "sessionbench: cannot write %s\n", args.spans_out.c_str());
        return 2;
      }
      std::printf("spans written to %s\n", args.spans_out.c_str());
    }
  }

  for (const std::string& note : rep.notes) std::printf("%s\n", note.c_str());
  for (const Metric& m : rep.metrics)
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  const double failed_frac =
      rep.attempted ? static_cast<double>(rep.failed) / static_cast<double>(rep.attempted) : 0.0;
  std::printf("  %-34s %14.6g %s\n", "events_failed_frac", failed_frac, "fraction");
  std::printf("  %-34s %14llu %s\n", "results_wrong",
              static_cast<unsigned long long>(rep.results_wrong), "count");
  if (rep.replayed != 0)
    std::printf("  recovery replayed %llu events in a fault-free run\n",
                static_cast<unsigned long long>(rep.replayed));

  std::string json = "{\"correct\": ";
  json += rep.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + number_text(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return rep.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sessionbench: %s\n", e.what());
    return 3;
  }
}
