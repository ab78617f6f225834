// Workload `scan`: one client over a preloaded cube sized well beyond the
// 105 MiB L3. A few RW transactions stay pending on a rotation: after each
// closed-loop dashboard refresh the oldest one commits and a new one opens
// with a small load, so every snapshot has pending transactions to exclude
// (the paper's Fig 9 axis). The group panel is also run in Read Uncommitted
// mode after each refresh, interleaved, for the SI/RU ratio of Fig 8/9.
//
// Visibility, the vis-cache, filters, kernels and grouping do most of the
// work; ingest does little.

#include <algorithm>
#include <deque>

#include "bench.h"

namespace perfbench {
namespace {

// Preload: 32 days x 128 batches = 16.8M rows, 425 MB of columns. Every
// refresh's agg panel streams both 8-byte metric columns, 270 MB: 2.4x the
// 105 MiB (110 MB) L3. The group and filter panels read only the newest 2
// and 3 days, 18 and 27 MB: inside L3.
constexpr uint64_t kDays = 32;
constexpr size_t kLoadsPerDay = 128;
constexpr size_t kPoolSize = 64;
constexpr size_t kPending = 4;
// Rotation loads land in the day after the preload.
constexpr uint64_t kToday = kDays;
// Script length per --seconds.
constexpr double kCyclesPerSecond = 7;
// One set-up takes seconds here, so fewer repeats than kSetupRepeats.
constexpr int kScanSetupRepeats = 3;

struct PendingLoad {
  cubrick::aosi::Txn txn;
  size_t batch = 0;
  /// Time spent in this load's own calls: begin and append, later the
  /// commit. Its probe reading is the one right after the append.
  Sample busy;
};

}  // namespace

RunResult RunScan(const Args& args, bool traced) {
  RunResult run;
  const int repeats = traced ? 1 : kScanSetupRepeats;
  const size_t cycles =
      static_cast<size_t>(args.seconds * kCyclesPerSecond + 0.5);
  DataSet data(args.seed, kPoolSize);
  const std::vector<Op> preload =
      PreloadScript(kDays, kLoadsPerDay, kPoolSize, args.seed);
  // Rotation batches, drawn up front so the script is fixed by the seed.
  const std::vector<Op> rotation =
      PreloadScript(1, cycles + kPending, kPoolSize, args.seed + 1);

  const cubrick::DatabaseOptions options;
  std::unique_ptr<cubrick::Database> db;
  CubeModel model;
  std::deque<PendingLoad> pending;
  size_t next_rotation = 0;
  HostProbe probe;

  // Opens one pending RW transaction with a small load into today.
  auto open_pending = [&](Tracer& tracer) {
    const Op& op = rotation[next_rotation++];
    const std::vector<Record>& rows = data.Batch(op.batch, kToday);
    probe.Read();
    const Clock::time_point t0 = Clock::now();
    Span root(tracer, 0, "load");
    PendingLoad p;
    p.batch = op.batch;
    if (!run.Track(BeginAndAppend(*db, options, rows, root, &p.txn),
                   "pending append")) {
      return false;
    }
    root.End();
    p.busy = EndSample(probe, t0);
    pending.push_back(p);
    return true;
  };

  // Set-up: cube creation, preload, one quiescent purge, then the pending
  // transactions.
  Tracer untraced(false);
  for (int s = 0; s < repeats && run.ok(); ++s) {
    pending.clear();
    db.reset();
    model = CubeModel();
    next_rotation = 0;
    SetupTimer timer;
    db = std::make_unique<cubrick::Database>(options);
    run.Track(db->CreateCube("sales", SalesDimensions(), SalesMetrics()),
              "CreateCube");
    SingleNodePreload(*db, options, data, preload, &model, &timer, &run);
    db->txns().TryAdvanceLSE(db->txns().LCE());
    db->PurgeAll();
    for (size_t p = 0; p < kPending && run.ok(); ++p) open_pending(untraced);
    timer.Stop(&run);
  }
  if (!run.ok()) return run;

  Dashboard dash =
      Dashboard::Make(*db->FindSchema("sales"), data.in_regions());
  dash.SetNewestDay(kToday);
  Tracer tracer(traced);
  LayerInputs layers;
  layers.before = PhaseCounters::Read();
  int64_t limbo_max = 0;
  uint64_t pending_rows = 0;
  for (const PendingLoad& p : pending) {
    pending_rows += data.Summary(p.batch).total.count;
  }

  for (size_t c = 0; c < cycles && run.ok(); ++c) {
    // Dashboard refresh under SI.
    const RefreshCounters c0 = RefreshCounters::Read();
    probe.Read();
    const Clock::time_point t0 = Clock::now();
    PanelResults got;
    {
      Span root(tracer, 0, "refresh");
      if (!run.Track(SingleNodeRefresh(*db, dash, root, &got), "refresh")) {
        break;
      }
    }
    run.refreshes.push_back(EndSample(probe, t0));
    layers.refresh.AddDelta(RefreshCounters::Read(), c0);
    const std::string diff = model.Check(dash, got);
    if (!diff.empty()) {
      run.Fail("refresh " + std::to_string(c) + ": " + diff);
      break;
    }

    // The same group panel under Read Uncommitted: sees the pending rows.
    {
      Span root(tracer, 0, "query.group_ru");
      const cubrick::aosi::Txn ro = db->BeginReadOnly();
      auto ru = db->QueryIn(ro, "sales", dash.group,
                            cubrick::ScanMode::kReadUncommitted);
      db->txns().EndReadOnly(ro);
      root.End();
      if (!run.Track(ru.ok() ? cubrick::Status::OK() : ru.status(),
                     "RU group panel")) {
        break;
      }
      uint64_t ru_rows = 0;
      for (const auto& [key, states] : ru->groups()) ru_rows += states[1].count;
      const uint64_t want =
          model.DaysTotal(dash.group_first_day(), kToday).count + pending_rows;
      if (ru_rows != want) {
        run.Fail("RU group panel: want " + std::to_string(want) +
                 " rows (committed plus pending), got " +
                 std::to_string(ru_rows));
        break;
      }
    }

    // Rotate: the oldest pending transaction commits, a new one opens.
    PendingLoad oldest = pending.front();
    pending.pop_front();
    {
      const Clock::time_point c1 = Clock::now();
      Span root(tracer, 0, "load");
      Span span(root, "aosi.commit");
      if (!run.Track(db->Commit(oldest.txn), "commit")) break;
      span.End();
      root.End();
      oldest.busy.wall_ms += MsBetween(c1, Clock::now());
    }
    const BatchSummary& committed = data.Summary(oldest.batch);
    model.Load(kToday, committed);
    pending_rows -= committed.total.count;
    run.loads.push_back(oldest.busy);
    run.rows_loaded += committed.total.count;
    if (!open_pending(tracer)) break;
    pending_rows += data.Summary(pending.back().batch).total.count;
    if (traced) {
      limbo_max = std::max(limbo_max, EbrLimboBytes());
    }
  }
  // A load is a small slice of a cycle, so load_rows_per_s is over the
  // loads' own busy time (there are no retention steps); over the cycle it
  // would only restate refresh_per_s.
  if (!run.ok()) return run;
  AdjustToReference(probe, &run.loads);
  AdjustToReference(probe, &run.refreshes);
  run.refresh_service = run.refreshes;
  run.load_core_speed = run.refresh_core_speed = probe.CoreSpeed();

  // Last quiescent maintenance step: commit what is pending, advance LSE,
  // purge; then the memory metrics.
  for (const PendingLoad& p : pending) {
    if (!run.Track(db->Commit(p.txn), "final commit")) return run;
    model.Load(kToday, data.Summary(p.batch));
  }
  pending.clear();
  db->txns().TryAdvanceLSE(db->txns().LCE());
  db->PurgeAll();
  layers.after = PhaseCounters::Read();
  const uint64_t live = model.total().count;
  if (db->TotalRecords() != live) {
    run.Fail("after the final purge the cube holds " +
             std::to_string(db->TotalRecords()) + " rows, want " +
             std::to_string(live));
  }
  run.history_bytes_per_row =
      static_cast<double>(db->HistoryMemoryUsage()) / live;
  run.data_bytes_per_row = static_cast<double>(db->DataMemoryUsage()) / live;

  run.fingerprint = {
      {"cycles", static_cast<double>(run.refreshes.size())},
      {"loads", static_cast<double>(run.loads.size())},
      {"live_rows", static_cast<double>(live)},
      {"live_sum", static_cast<double>(model.total().sum)},
      {"rows_scanned", static_cast<double>(layers.refresh.rows_scanned)},
      {"history_bytes_per_row", run.history_bytes_per_row},
      {"data_bytes_per_row", run.data_bytes_per_row}};
  if (traced) {
    layers.spans = Summarize(tracer.All());
    layers.loads = run.loads.size();
    layers.rows_loaded = run.rows_loaded;
    layers.refreshes = run.refreshes.size();
    layers.rw_txns = run.loads.size();
    layers.ebr_limbo_max = limbo_max;
    FillLayers(layers, &run);
    tracer.WriteChromeTrace(args.out_dir + "/trace-scan.json");
  }
  return run;
}

}  // namespace perfbench
