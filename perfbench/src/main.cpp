// perfbench: runs one round of one workload and prints its results as one
// JSON line. perfbench/run.py runs rounds, each in a fresh process, until
// the run's time budget is spent, and aggregates them (see README.md).
//
//   perfbench --workload <name> --seed <n> --trace <0|1>
//             [--inject <fault>] [--trace-out <file>]
//   perfbench --list-metrics
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "harness.h"
#include "report.h"

namespace perfbench {

#if !PERFBENCH_ALLOC_COUNT
AllocCounts ReadAllocCounts() { return {}; }
#endif

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string inject;
  std::string trace_out;
};

bool Parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--inject") {
      args->inject = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

using RoundFn = RoundOutcome (*)(const RoundSpec&);

RoundFn Workload(const std::string& name) {
  if (name == "postmark-deleg") return RunPostmarkRound;
  if (name == "repo-update-poll") return RunRepoUpdateRound;
  if (name == "fleet-agg-poll") return RunFleetRound;
  return nullptr;
}

int Main(int argc, char** argv) {
  MarkProcessStart();
  if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) {
    std::printf("%s\n", MetricListJson().c_str());
    return 0;
  }
  Args args;
  const RoundFn run = Parse(argc, argv, &args) ? Workload(args.workload) : nullptr;
  if (run == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --trace <0|1> "
                 "[--inject <fault>] [--trace-out <file>]\n");
    return 2;
  }

  RoundSpec spec;
  spec.seed = args.seed;
  spec.trace = args.trace;
  spec.inject = args.inject;
  const RoundOutcome r = run(spec);
  const double peak_rss_mb = static_cast<double>(PeakRssKb()) / 1024.0;

  bool correct = r.correct;
  for (const auto& e : r.errors) std::fprintf(stderr, "%s\n", e.c_str());
  if (r.vfs_calls < 1000) {
    std::fprintf(stderr, "only %llu timed Vfs calls; the p99 needs >= 1000\n",
                 static_cast<unsigned long long>(r.vfs_calls));
    correct = false;
  }

  std::map<std::string, double> values = {
      {"setup_s", Seconds(r.setup_end_ns)},
      {"wall_s", r.wall_s},
      {"peak_rss_mb", peak_rss_mb},
      {"virtual_s", r.virtual_s},
      {"vfs_op_p99_ms", r.vfs_p99_ms},
      {"wan_mb", r.wan_mb},
  };
  std::vector<MetricValue> metrics;
  for (const MetricDef& def : EndToEndMetrics()) {
    metrics.push_back({&def, values.at(def.name)});
  }
  if (args.trace) {
    values.clear();
    for (const auto& [name, v] : r.layers) values[name] = v;
    values["bench.ops"] = static_cast<double>(r.attempted);
    values["sim.events_per_s"] =
        r.wall_s > 0 ? static_cast<double>(r.events) / r.wall_s : 0;
    for (const MetricDef& def : PerLayerMetrics()) {
      auto it = values.find(def.name);
      if (it == values.end()) {
        std::fprintf(stderr, "internal: metric %s not produced\n", def.name.c_str());
        return 2;
      }
      metrics.push_back({&def, it->second});
    }
    const auto summary = Summarize(r.spans);
    for (const SpanSummary& s : summary) {
      std::fprintf(stderr, "span %-18s n=%-8llu total %9.4f s  self %9.4f s\n",
                   s.name.c_str(), static_cast<unsigned long long>(s.count),
                   s.total_s, s.self_s);
    }
    if (!args.trace_out.empty() && !WriteTrace(args.trace_out, r.spans, summary)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 2;
    }
  }
  std::printf("%s\n", RoundJson(correct, r.attempted, r.failed, r.events,
                                r.vfs_calls, metrics)
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
