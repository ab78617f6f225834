// check_si: seeded snapshot-isolation stress runner (see stress.h).
//
//   check_si --mode=single|cluster|both --seeds=N --seed0=S --ops=K [-v]
//            [--ingest-parallel=P] [--simd=scalar|avx2|neon|auto]
//            [--purge-stress] [--online] [--dump-metrics]
//
// Runs N seeds starting at S; each seed derives a configuration via
// MakeSeedConfig and runs the full workload. Exit code 0 when every seed
// passes; on divergence, prints the replayable diagnostic (config line,
// seed, per-thread operation trace) and exits 1.
//
// Every scan — single-node and cluster alike — runs the morsel pipeline at
// fan-out = the pool size with the visibility cache on; its answer is
// bit-identical at any worker count (DESIGN.md §4b), so scan parallelism
// needs no flag. The rest of the configuration matrix is drawn per seed by
// MakeSeedConfig: ingest fan-out and purge stress (single-node) and the
// SIMD backend (both modes). The failure report's replay line echoes the
// draw through the override flags below, which pin a value for every seed
// of a run:
//
// --ingest-parallel=P sets the single-node parse/encode fan-out
// (DatabaseOptions::ingest_parallelism; DESIGN.md §4f). Parse output is
// bit-identical at any fan-out, so the oracle comparison is unchanged.
//
// --simd=B forces the scan-kernel SIMD backend (common/simd.h). Kernel
// results are bit-identical across backends by contract, so the oracle
// comparison is unchanged.
//
// --purge-stress runs a dedicated purge thread looping the concurrent
// phased purge pipeline (engine/table.cc) through every single-node seed,
// so compaction installs, vis-cache invalidations and EBR retirement race
// live scans continuously. Purge never touches history above the LSE, so
// the oracle comparison is unchanged. Cluster seeds ignore it.
//
// --online additionally installs the online SI checker (online_checker.h)
// for every seed: sampled transactions and scans are validated against the
// visibility rules while the workload runs, and any violation the checker
// records fails the seed exactly like an oracle divergence — each --online
// run therefore cross-checks the online checker against the offline oracle.
//
// --dump-metrics prints the Prometheus exposition of the metrics registry
// after all seeds finish — the stress harness doubles as a concurrent-writer
// workout for the observability layer, and the dump proves the snapshot
// stays consistent under it. The dump carries the pool.* gauges/counters,
// the query.worker_scan_us / query.parallel_merge_us histograms and the
// query.vis_cache_* family (docs/OBSERVABILITY.md).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "check/stress.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace {

struct Args {
  std::string mode = "both";
  uint64_t seeds = 20;
  uint64_t seed0 = 1;
  int ops = 0;  // 0: keep MakeSeedConfig default
  int ingest_parallel = 0;  // 0: keep the per-seed draw
  bool online = false;  // install the online SI checker per seed
  bool purge_stress = false;  // force the concurrent-purge thread on
  std::string simd;  // empty: keep the per-seed draw
  bool verbose = false;
  bool dump_metrics = false;
};

bool ParseFlag(const char* arg, const char* name, const char** value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (ParseFlag(argv[i], "--mode", &value)) {
      args.mode = value;
    } else if (ParseFlag(argv[i], "--seeds", &value)) {
      args.seeds = std::strtoull(value, nullptr, 10);
    } else if (ParseFlag(argv[i], "--seed0", &value)) {
      args.seed0 = std::strtoull(value, nullptr, 10);
    } else if (ParseFlag(argv[i], "--ops", &value)) {
      args.ops = std::atoi(value);
    } else if (ParseFlag(argv[i], "--ingest-parallel", &value)) {
      args.ingest_parallel = std::atoi(value);
    } else if (std::strcmp(argv[i], "--online") == 0) {
      args.online = true;
    } else if (std::strcmp(argv[i], "--purge-stress") == 0) {
      args.purge_stress = true;
    } else if (ParseFlag(argv[i], "--simd", &value)) {
      args.simd = value;
    } else if (std::strcmp(argv[i], "-v") == 0 ||
               std::strcmp(argv[i], "--verbose") == 0) {
      args.verbose = true;
    } else if (std::strcmp(argv[i], "--dump-metrics") == 0) {
      args.dump_metrics = true;
    } else {
      std::fprintf(stderr,
                   "unknown argument: %s\n"
                   "usage: check_si [--mode=single|cluster|both] [--seeds=N] "
                   "[--seed0=S] [--ops=K] [--ingest-parallel=P] "
                   "[--simd=B] [--purge-stress] [--online] [-v] "
                   "[--dump-metrics]\n",
                   argv[i]);
      std::exit(2);
    }
  }
  if (args.mode != "single" && args.mode != "cluster" &&
      args.mode != "both") {
    std::fprintf(stderr, "bad --mode=%s\n", args.mode.c_str());
    std::exit(2);
  }
  return args;
}

/// Runs one seed in one mode; returns false (after printing the full
/// diagnostic) on divergence.
bool RunOne(const Args& args, uint64_t seed, bool cluster) {
  cubrick::check::StressOptions opt =
      cubrick::check::MakeSeedConfig(seed, cluster);
  if (args.ops > 0) opt.ops_per_thread = args.ops;
  if (args.ingest_parallel > 0) {
    opt.ingest_parallelism = static_cast<size_t>(args.ingest_parallel);
  }
  if (!args.simd.empty()) opt.simd = args.simd;
  if (args.online) opt.online_check = true;
  if (args.purge_stress && !cluster) opt.purge_stress = true;
  const cubrick::check::StressReport report =
      cluster ? cubrick::check::RunClusterStress(opt)
              : cubrick::check::RunSingleNodeStress(opt);
  if (!report.ok()) {
    std::fprintf(stderr, "\n=== FAIL: %s seed %llu ===\n",
                 cluster ? "cluster" : "single",
                 static_cast<unsigned long long>(seed));
    for (const std::string& failure : report.failures) {
      std::fprintf(stderr, "%s\n", failure.c_str());
    }
    return false;
  }
  if (args.verbose) {
    std::string draw = "simd=" + (opt.simd.empty() ? "default" : opt.simd);
    if (!cluster) {
      draw += " ingest_parallel=" + std::to_string(opt.ingest_parallelism) +
              " purge_stress=" + (opt.purge_stress ? "1" : "0");
    }
    std::printf("%s seed %llu ok (%s): %s\n", cluster ? "cluster" : "single",
                static_cast<unsigned long long>(seed), draw.c_str(),
                report.Summary().c_str());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const bool run_single = args.mode == "single" || args.mode == "both";
  const bool run_cluster = args.mode == "cluster" || args.mode == "both";
  uint64_t passed = 0;
  for (uint64_t i = 0; i < args.seeds; ++i) {
    const uint64_t seed = args.seed0 + i;
    if (run_single && !RunOne(args, seed, /*cluster=*/false)) return 1;
    if (run_cluster && !RunOne(args, seed, /*cluster=*/true)) return 1;
    ++passed;
    if (!args.verbose && passed % 25 == 0) {
      std::printf("[check_si] %llu/%llu seeds ok\n",
                  static_cast<unsigned long long>(passed),
                  static_cast<unsigned long long>(args.seeds));
      std::fflush(stdout);
    }
  }
  std::printf("[check_si] PASS: %llu seeds, mode=%s\n",
              static_cast<unsigned long long>(passed), args.mode.c_str());
  if (args.dump_metrics) {
    const cubrick::obs::MetricsSnapshot snap =
        cubrick::obs::MetricsRegistry::Global().Snapshot();
    std::printf("\n%s", cubrick::obs::ExportPrometheus(snap).c_str());
  }
  return 0;
}
