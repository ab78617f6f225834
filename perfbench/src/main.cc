// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload ingest|scan|cluster --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//
// Each run executes a fixed op script determined by the workload, the seed
// and --seconds (never by the clock), checks every answer against an exact
// model, and prints as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// script runs twice, untraced and then traced with bench-side spans, and
// the metrics are the per-layer ones plus the tracing overhead.
// The exit code is 0 only when every answer was right and no call failed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload ingest|scan|cluster"
               " --seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  std::exit(2);
}

uint64_t ParseNumber(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    Usage((std::string(flag) + " needs a whole number").c_str());
  }
  return v;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) Usage((std::string(flag) + " needs a value").c_str());
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = ParseNumber(flag, value);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      const uint64_t s = ParseNumber(flag, value);
      if (s < 1 || s > 600) Usage("--seconds must be in [1, 600]");
      args.seconds = static_cast<int>(s);
    } else if (std::strcmp(flag, "--trace") == 0) {
      const uint64_t t = ParseNumber(flag, value);
      if (t > 1) Usage("--trace must be 0 or 1");
      args.trace = t == 1;
    } else if (std::strcmp(flag, "--out-dir") == 0) {
      args.out_dir = value;
    } else {
      Usage((std::string("unknown flag ") + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

RunResult Run(const Args& args, bool traced) {
  if (args.workload == "ingest") return RunIngest(args, traced);
  if (args.workload == "scan") return RunScan(args, traced);
  if (args.workload == "cluster") return RunCluster(args, traced);
  Usage(("unknown workload " + args.workload).c_str());
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void PrintFingerprint(const RunResult& run) {
  std::printf("fingerprint {");
  const char* sep = "";
  for (const auto& [key, value] : run.fingerprint) {
    std::printf("%s\"%s\": %s", sep, key.c_str(), Number(value).c_str());
    sep = ", ";
  }
  std::printf("}\n");
}

void PrintReport(const char* label, const RunResult& run) {
  const Tail load = TailOf(AdjustedMs(run.loads));
  const Tail refresh = TailOf(AdjustedMs(run.refreshes));
  std::printf("%s run: %llu calls, %llu failed (failed_frac %g)\n", label,
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed),
              run.attempted > 0
                  ? static_cast<double>(run.failed) / run.attempted
                  : 0.0);
  for (const Metric& m : EndToEnd(run)) {
    std::printf("  %-24s %14s %s\n", m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("  set-ups (s):");
  for (double s : run.setup_s) std::printf(" %.4f", s);
  std::printf("\n");
  std::printf("  load tail = p%.2f of %zu loads; refresh tail = p%.2f of %zu "
              "refreshes\n",
              load.percentile, load.samples, refresh.percentile,
              refresh.samples);
  // The same timings as measured, before the core-speed adjustment.
  std::printf("  core speed %.3f (loads), %.3f (refreshes) of the reference\n",
              run.load_core_speed, run.refresh_core_speed);
  std::printf("  wall set-ups (s):");
  for (double s : run.setup_wall_s) std::printf(" %.4f", s);
  std::printf("\n");
  const std::vector<double> wall_loads = WallMs(run.loads);
  const std::vector<double> wall_refreshes = WallMs(run.refreshes);
  std::printf("  wall: load p50 %.4f tail %.4f ms, refresh p50 %.4f tail "
              "%.4f ms\n",
              Median(wall_loads), TailOf(wall_loads).value,
              Median(wall_refreshes), TailOf(wall_refreshes).value);
  if (!run.late_ms.empty()) {
    double max = 0;
    for (double v : run.late_ms) max = std::max(max, v);
    std::printf("  paced reader started late by p50 %.3f ms, max %.3f ms\n",
                Median(run.late_ms), max);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  std::filesystem::create_directories(args.out_dir);

  const RunResult untraced = Run(args, false);
  PrintReport("untraced", untraced);
  PrintFingerprint(untraced);
  RunResult traced;
  if (args.trace && untraced.ok()) {
    traced = Run(args, true);
    PrintReport("traced", traced);
  }
  const RunResult& last = args.trace ? traced : untraced;
  const bool correct = untraced.ok() && last.ok();
  if (!untraced.error.empty()) std::printf("WRONG: %s\n", untraced.error.c_str());
  if (!traced.error.empty()) std::printf("WRONG: %s\n", traced.error.c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = EndToEnd(untraced);
  } else {
    RunResult& t = traced;
    const std::vector<Metric> base = EndToEnd(untraced);
    const std::vector<Metric> with = EndToEnd(t);
    for (size_t i = 0; i < base.size(); ++i) {
      t.layer["trace.overhead." + base[i].name] =
          base[i].value > 0 ? with[i].value / base[i].value : 0;
    }
    double late_max = 0;
    for (double v : untraced.late_ms) late_max = std::max(late_max, v);
    t.layer["bench.gen_late_p50_ms"] = Median(untraced.late_ms);
    t.layer["bench.gen_late_max_ms"] = late_max;
    const Tail load = TailOf(AdjustedMs(untraced.loads));
    const Tail refresh = TailOf(AdjustedMs(untraced.refreshes));
    t.layer["bench.load_samples"] = static_cast<double>(load.samples);
    t.layer["bench.load_tail_pct"] = load.percentile;
    t.layer["bench.refresh_samples"] = static_cast<double>(refresh.samples);
    t.layer["bench.refresh_tail_pct"] = refresh.percentile;
    t.layer["bench.core_speed"] = untraced.load_core_speed;
    t.layer["bench.wall_load_p50_ms"] = Median(WallMs(untraced.loads));
    t.layer["bench.wall_refresh_p50_ms"] = Median(WallMs(untraced.refreshes));
    for (const LayerSpec& spec : LayerCatalog()) {
      const auto it = t.layer.find(spec.name);
      metrics.push_back(
          {spec.name, it == t.layer.end() ? 0.0 : it->second, spec.unit});
    }
  }

  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") + ", \"attempted\": " +
                     std::to_string(untraced.attempted + traced.attempted) +
                     ", \"failed\": " +
                     std::to_string(untraced.failed + traced.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
