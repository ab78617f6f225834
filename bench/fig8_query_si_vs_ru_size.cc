// Figure 8 — Query latency: Snapshot Isolation vs Read Uncommitted,
// as a function of dataset size.
//
// Paper setup (§VI-B): a single client runs the same query repeatedly,
// alternating between SI (epochs-vector bitmap generation + pendingTxs
// bookkeeping) and best-effort RU (scan everything). The gap between the
// two series is the CPU cost of enforcing SI, which the paper reports as
// minor. Expected shape: both latencies grow linearly with dataset size;
// SI tracks RU within a few percent.

#include <cinttypes>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "engine/table.h"

using namespace cubrick;
using namespace cubrick::bench;

int main() {
  InitBenchObs();
  const std::vector<uint64_t> kSizes = {
      Scaled(10'000), Scaled(50'000), Scaled(100'000), Scaled(250'000),
      Scaled(500'000)};
  const uint64_t kRowsPerTxn = 10'000;
  const int kReps = 41;

  std::printf(
      "Figure 8: query latency SI vs RU, growing dataset "
      "(same aggregation, alternating modes, one client thread)\n\n");
  std::printf("%12s %10s %12s %12s %10s %12s\n", "rows", "txns", "si_p50_us",
              "ru_p50_us", "overhead", "si_par4_us");

  double last_si = 0.0, last_ru = 0.0, last_par4 = 0.0;
  for (uint64_t size : kSizes) {
    Database db;  // inline shards; each scan fans out over the pool
    CUBRICK_CHECK(CreateSingleColumnCube(&db, "t").ok());
    Random rng(42);
    uint64_t loaded = 0;
    uint64_t txns = 0;
    while (loaded < size) {
      const uint64_t n = std::min(kRowsPerTxn, size - loaded);
      CUBRICK_CHECK(db.Load("t", SingleColumnBatch(&rng, n)).ok());
      loaded += n;
      ++txns;
    }

    const cubrick::Query q = AggregationQuery();
    // Alternate SI and RU within the same run, exactly as the paper's
    // single-thread experiment does; warm up once per mode.
    (void)db.Query("t", q, ScanMode::kSnapshotIsolation);
    (void)db.Query("t", q, ScanMode::kReadUncommitted);
    obs::LatencyRecorder si_rec, ru_rec;
    for (int i = 0; i < kReps; ++i) {
      Stopwatch t1;
      CUBRICK_CHECK(db.Query("t", q, ScanMode::kSnapshotIsolation).ok());
      si_rec.Record(t1.ElapsedMicros());
      Stopwatch t2;
      CUBRICK_CHECK(db.Query("t", q, ScanMode::kReadUncommitted).ok());
      ru_rec.Record(t2.ElapsedMicros());
    }
    const double si = static_cast<double>(si_rec.Percentile(50));
    const double ru = static_cast<double>(ru_rec.Percentile(50));
    // Same SI query through the morsel pipeline pinned at 4 workers: how
    // the scan parallelism scales at each dataset size (tracks core count;
    // ~1.0x on one core).
    Table* table = db.FindTable("t");
    CUBRICK_CHECK(table != nullptr);
    aosi::Txn ro = db.BeginReadOnly();
    obs::LatencyRecorder par_rec;
    for (int i = 0; i < kReps; ++i) {
      Stopwatch t3;
      (void)ScanAtWorkers(table, ro.snapshot(), ScanMode::kSnapshotIsolation,
                          q, 4);
      par_rec.Record(t3.ElapsedMicros());
    }
    db.txns().EndReadOnly(ro);
    const double par4 = static_cast<double>(par_rec.Percentile(50));
    std::printf("%12" PRIu64 " %10" PRIu64 " %12.0f %12.0f %9.2f%% %12.0f\n",
                size, txns, si, ru,
                ru == 0 ? 0.0 : 100.0 * (si - ru) / ru, par4);
    std::fflush(stdout);
    last_si = si;
    last_ru = ru;
    last_par4 = par4;
  }
  std::printf(
      "\nShape check: SI latency should track RU within a small margin — "
      "the paper reports the SI overhead as minor.\n");
  EmitBenchJson(
      "fig8",
      {{"largest_rows", static_cast<double>(kSizes.back())},
       {"si_p50_us", last_si},
       {"ru_p50_us", last_ru},
       {"si_par4_p50_us", last_par4},
       {"overhead_pct",
        last_ru == 0 ? 0.0 : 100.0 * (last_si - last_ru) / last_ru}});
  return 0;
}
