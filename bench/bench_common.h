// Shared workload generators and reporting helpers for the experiment
// drivers in bench/. Each fig*_ binary regenerates one table/figure of the
// paper (see DESIGN.md §4 and EXPERIMENTS.md); scale knobs default to
// CI-friendly sizes and can be raised with CUBRICK_BENCH_SCALE=<multiplier>.

#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "cubrick/database.h"
#include "ingest/parser.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/percentile.h"

namespace cubrick::bench {

/// CUBRICK_OBS_DISABLE=1 turns every instrument write into an untaken
/// branch, so the same binary measures the uninstrumented baseline for
/// overhead comparisons (docs/OBSERVABILITY.md). Call first in main().
inline void InitBenchObs() {
  const char* env = std::getenv("CUBRICK_OBS_DISABLE");
  if (env != nullptr && env[0] == '1') obs::SetEnabled(false);
}

/// Scale multiplier from the environment (default 1.0). A malformed or
/// non-positive CUBRICK_BENCH_SCALE aborts the run instead of silently
/// falling back to 1.0 — a typo'd scale in CI would otherwise run the
/// seed-size workload and quietly pass the baseline gate at the wrong scale.
inline double ScaleFactor() {
  const char* env = std::getenv("CUBRICK_BENCH_SCALE");
  if (env == nullptr || env[0] == '\0') return 1.0;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  if (end == env || *end != '\0' || !(v > 0)) {
    std::fprintf(stderr,
                 "bench: CUBRICK_BENCH_SCALE=\"%s\" is not a positive "
                 "number; refusing to guess a scale\n",
                 env);
    std::exit(2);
  }
  return v;
}

inline uint64_t Scaled(uint64_t base) {
  return static_cast<uint64_t>(static_cast<double>(base) * ScaleFactor());
}

/// Pretty-prints a byte count ("1.5 MB").
inline std::string HumanBytes(double bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 4) {
    bytes /= 1024.0;
    ++u;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f %s", bytes, units[u]);
  return buf;
}

inline std::string HumanCount(double n) {
  const char* units[] = {"", "K", "M", "B"};
  int u = 0;
  while (n >= 1000.0 && u < 3) {
    n /= 1000.0;
    ++u;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f%s", n, units[u]);
  return buf;
}

/// The paper's single-column worst case (§VI-A, Fig 6): most concurrency
/// metadata per byte of data. One 16-way partition-key dimension (zero bess
/// bits) plus one int64 metric.
inline Status CreateSingleColumnCube(Database* db, const std::string& name) {
  return db->CreateCube(name, {{"shard_key", 16, 1, false}},
                        {{"value", DataType::kInt64}});
}

/// Generates one batch for the single-column cube.
inline std::vector<Record> SingleColumnBatch(Random* rng, uint64_t rows) {
  std::vector<Record> records;
  records.reserve(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    records.push_back({static_cast<int64_t>(rng->Uniform(16)),
                       static_cast<int64_t>(rng->Next() & 0xffffff)});
  }
  return records;
}

/// The paper's "typical 40 column dataset" (§VI-A, Fig 7): 4 dimensions and
/// 36 metrics (30 int64 + 6 double).
inline Status CreateWideCube(Database* db, const std::string& name) {
  std::vector<DimensionDef> dims = {
      {"region", 64, 8, false},
      {"product", 256, 32, false},
      {"channel", 8, 8, false},
      {"day", 32, 32, false},
  };
  std::vector<MetricDef> metrics;
  for (int i = 0; i < 30; ++i) {
    metrics.push_back({"m_int_" + std::to_string(i), DataType::kInt64});
  }
  for (int i = 0; i < 6; ++i) {
    metrics.push_back({"m_dbl_" + std::to_string(i), DataType::kDouble});
  }
  return db->CreateCube(name, std::move(dims), std::move(metrics));
}

inline std::vector<Record> WideBatch(Random* rng, uint64_t rows) {
  std::vector<Record> records;
  records.reserve(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    Record r;
    r.values.reserve(40);
    r.values.emplace_back(static_cast<int64_t>(rng->Uniform(64)));
    r.values.emplace_back(static_cast<int64_t>(rng->Uniform(256)));
    r.values.emplace_back(static_cast<int64_t>(rng->Uniform(8)));
    r.values.emplace_back(static_cast<int64_t>(rng->Uniform(32)));
    for (int m = 0; m < 30; ++m) {
      r.values.emplace_back(static_cast<int64_t>(rng->Next() & 0xffff));
    }
    for (int m = 0; m < 6; ++m) {
      r.values.emplace_back(rng->NextDouble() * 100.0);
    }
    records.push_back(std::move(r));
  }
  return records;
}

/// The canonical aggregation query used by the SI-vs-RU experiments: sum +
/// count of the first metric grouped by the first dimension.
inline cubrick::Query AggregationQuery(bool grouped = true) {
  cubrick::Query q;
  if (grouped) q.group_by = {0};
  q.aggs = {{AggSpec::Fn::kSum, 0}, {AggSpec::Fn::kCount, 0}};
  return q;
}

/// The morsel pipeline (PlanMorsels -> ScanMorsels -> MergePartials) over
/// every brick of `table` at an explicit worker count — the building block
/// Table::Scan runs per shard at the pool size, pinned here so a bench can
/// sweep it. The table must be quiescent (no writer) for the call.
inline QueryResult ScanAtWorkers(Table* table, const aosi::Snapshot& snapshot,
                                 ScanMode mode, const cubrick::Query& q,
                                 size_t workers) {
  std::vector<const Brick*> bricks;
  table->VisitBricks([&bricks](const Brick& brick) { bricks.push_back(&brick); });
  return MergePartials(ScanMorsels(PlanMorsels(bricks, q), snapshot, mode, q,
                                   &ThreadPool::Global(), workers),
                       q.aggs.size());
}

/// Headline numbers a driver wants in its baseline file, in print order.
using BenchHeadline = std::vector<std::pair<std::string, double>>;

/// Sanitizer flavor this binary was compiled with ("none", "thread",
/// "address") — detected from compiler macros so it matches the actual
/// instrumentation, not just the CUBRICK_SANITIZE cache entry.
inline const char* SanitizerFlavor() {
#if defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  return "thread";
#elif __has_feature(address_sanitizer)
  return "address";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

/// Writes the machine-readable baseline for a bench run: the driver's
/// headline numbers plus a full registry snapshot — every counter, gauge
/// and histogram the run touched (docs/OBSERVABILITY.md). Default path is
/// BENCH_<name>.json in the working directory; CUBRICK_BENCH_JSON overrides
/// it. CI parses these with scripts/check_bench_baseline.py.
inline void EmitBenchJson(const std::string& name,
                          const BenchHeadline& headline) {
  const char* env = std::getenv("CUBRICK_BENCH_JSON");
  const std::string path = (env != nullptr && env[0] != '\0')
                               ? std::string(env)
                               : "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "EmitBenchJson: cannot open %s for writing\n",
                 path.c_str());
    return;
  }
  // Machine-capability stamp: lets the baseline checker judge numbers in
  // context — multi-thread scaling assertions are meaningless on a box with
  // fewer cores than measured threads, and sanitizer builds run ~2-15x
  // slower than release, so absolute latencies must not be compared across
  // flavors.
  const unsigned cores = std::thread::hardware_concurrency();
  std::fprintf(f,
               "{\n  \"bench\": \"%s\",\n  \"scale\": %g,\n"
               "  \"machine\": {\n    \"cores\": %u,\n"
               "    \"sanitizer\": \"%s\",\n"
               "    \"simd_backend\": \"%s\"\n  },\n  \"headline\": {",
               name.c_str(), ScaleFactor(), cores, SanitizerFlavor(),
               simd::ActiveBackendName());
  bool first = true;
  for (const auto& [key, value] : headline) {
    std::fprintf(f, "%s\n    \"%s\": %g", first ? "" : ",", key.c_str(),
                 value);
    first = false;
  }
  const std::string metrics =
      obs::ExportJson(obs::MetricsRegistry::Global().Snapshot());
  std::fprintf(f, "\n  },\n  \"metrics\": %s\n}\n", metrics.c_str());
  std::fclose(f);
  std::printf("\nBaseline written to %s\n", path.c_str());
}

}  // namespace cubrick::bench
