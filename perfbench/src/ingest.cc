// Workload `ingest`: a single node with a data directory. One closed-loop
// loader pushes 4096-row batches over a rolling retention window of day
// partitions; each day boundary deletes the oldest day and checkpoints
// (flush, LSE advance, purge). A second thread refreshes the dashboard at a
// fixed pace of one refresh every other day, open loop, each timed from its
// due time. The refreshes alternate between two phases: one is due when the
// day's retention delete commits, so it runs against the day's checkpoint;
// the next is due halfway through a day's loads, and the loader's next load
// waits until it has begun, so that load queues behind its scans.
//
// Parse, dictionary, append, commit, flush and purge do most of the work;
// the paced reader shows what its scans cost the loader.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <limits>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

// Live window: kWindow days of kLoadsPerDay batches, 1.05M rows, about
// 26 MB of columns: well inside the 105 MiB L3.
constexpr uint64_t kWindow = 8;
constexpr size_t kLoadsPerDay = 32;
constexpr size_t kPoolSize = 32;
// The reader's pace is set on the loader's clock, not the wall clock: with
// a wall-clock pace, what each refresh overlaps (checkpoint or loads) would
// change with the machine's speed, and the tails with it. One day is a
// retire op followed by its loads. With one refresh per day the reader was
// busy for most of the 16 loads between a mid-day refresh and the next
// checkpoint, so a slow refresh made the next one late and the tails
// spread; every other day it is busy about a fifth of the time.
constexpr size_t kOpsPerDay = kLoadsPerDay + 1;
constexpr uint64_t kDaysPerRefresh = 2;

/// Script op whose completion makes refresh `r` due.
size_t RefreshTrigger(uint64_t r) {
  return r * kDaysPerRefresh * kOpsPerDay + (r % 2 == 0 ? 0 : kLoadsPerDay / 2);
}
bool IsMidDayTrigger(size_t op) {
  const uint64_t r = op / (kDaysPerRefresh * kOpsPerDay);
  return r % 2 == 1 && op == RefreshTrigger(r);
}
// Script length per --seconds: loads the loader finishes per second.
constexpr double kLoadsPerSecond = 450;

/// What the loader publishes to the reader: how many script ops have
/// completed, and when each did. The reader replays that prefix of the
/// script into its own model to know which states a snapshot may show.
struct Progress {
  static constexpr size_t kAborted = std::numeric_limits<size_t>::max();
  explicit Progress(size_t ops) : finished(ops) {}

  std::atomic<size_t> done{0};
  /// finished[i] is written before `done` passes i.
  std::vector<Clock::time_point> finished;

  void Complete(size_t op) {
    finished[op] = Clock::now();
    done.store(op + 1, std::memory_order_release);
    done.notify_one();
  }
  void Abort() {
    done.store(kAborted, std::memory_order_release);
    done.notify_one();
  }
  /// Ops completed so far (all of them once the loader stopped).
  size_t Done() const {
    const size_t now = done.load(std::memory_order_acquire);
    return now == kAborted ? finished.size() : now;
  }
  /// Waits until at least `ops` ops are done; false if the loader stopped.
  bool WaitFor(size_t ops) {
    size_t now = done.load(std::memory_order_acquire);
    while (now < ops) {
      done.wait(now, std::memory_order_acquire);
      now = done.load(std::memory_order_acquire);
    }
    return now != kAborted;
  }

  /// Refreshes the reader has begun; kAborted once it stopped. Left to the
  /// race between the reader's wake-up and the loader's next parse, the
  /// load after a mid-day trigger ran first in some runs and queued behind
  /// the scans in others.
  std::atomic<size_t> begun{0};

  void Begin(size_t refreshes) {
    begun.store(refreshes, std::memory_order_release);
    begun.notify_one();
  }
  /// Waits until the reader has begun `refreshes` refreshes or stopped.
  void WaitBegun(size_t refreshes) {
    size_t now = begun.load(std::memory_order_acquire);
    while (now < refreshes) {
      begun.wait(now, std::memory_order_acquire);
      now = begun.load(std::memory_order_acquire);
    }
  }
};

/// Highest day whose loads started within the first `done` ops.
uint64_t NewestDay(const std::vector<Op>& script, size_t done) {
  for (size_t i = std::min(done, script.size()); i > 0; --i) {
    if (script[i - 1].kind == Op::Kind::kLoad) return script[i - 1].day;
  }
  return kWindow - 1;
}

}  // namespace

RunResult RunIngest(const Args& args, bool traced) {
  RunResult run;
  const int repeats = traced ? 1 : kSetupRepeats;
  const uint64_t days = std::max<uint64_t>(
      1, static_cast<uint64_t>(args.seconds * kLoadsPerSecond / kLoadsPerDay +
                               0.5));
  DataSet data(args.seed, kPoolSize);
  const std::vector<Op> preload =
      PreloadScript(kWindow, kLoadsPerDay, kPoolSize, args.seed);
  const std::vector<Op> script =
      RetentionScript(kWindow, days, kLoadsPerDay, kPoolSize, args.seed);
  const std::string data_dir = args.out_dir + "/ingest-data";

  cubrick::DatabaseOptions options;
  options.data_dir = data_dir;
  std::unique_ptr<cubrick::Database> db;
  CubeModel model;

  // Set-up: cube creation, preload of the window, one checkpoint.
  for (int s = 0; s < repeats && run.ok(); ++s) {
    db.reset();
    std::filesystem::remove_all(data_dir);
    std::filesystem::create_directories(data_dir);
    model = CubeModel();
    SetupTimer timer;
    db = std::make_unique<cubrick::Database>(options);
    run.Track(db->CreateCube("sales", SalesDimensions(), SalesMetrics()),
              "CreateCube");
    SingleNodePreload(*db, options, data, preload, &model, &timer, &run);
    run.Track(db->Checkpoint().status(), "preload checkpoint");
    timer.Stop(&run);
  }
  if (!run.ok()) return run;

  Dashboard dash =
      Dashboard::Make(*db->FindSchema("sales"), data.in_regions());
  Tracer tracer(traced);
  Progress progress(script.size());
  LayerInputs layers;
  layers.before = PhaseCounters::Read();
  const CubeModel setup_model = model;
  std::atomic<int64_t> limbo_max{0};
  auto sample_limbo = [&] {
    if (!traced) return;
    const int64_t v = EbrLimboBytes();
    int64_t cur = limbo_max.load(std::memory_order_relaxed);
    while (v > cur && !limbo_max.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  };

  RunResult reader;
  HostProbe reader_probe;
  std::thread reader_thread([&] {
    CubeModel seen = setup_model;
    size_t cursor = 0;
    auto apply = [&](const Op& op) {
      if (op.kind == Op::Kind::kLoad) {
        seen.Load(op.day, data.Summary(op.batch));
      } else {
        seen.DropDay(op.day);
      }
    };
    const uint64_t refreshes = (days + kDaysPerRefresh - 1) / kDaysPerRefresh;
    for (uint64_t r = 0; r < refreshes && reader.ok(); ++r) {
      const size_t trigger = RefreshTrigger(r);
      if (!progress.WaitFor(trigger + 1)) break;
      const Clock::time_point due = progress.finished[trigger];
      reader_probe.Read();
      const Clock::time_point begin = Clock::now();
      const size_t floor = progress.Done();
      const uint64_t newest = NewestDay(script, floor);
      dash.SetNewestDay(newest);
      const RefreshCounters c0 = RefreshCounters::Read();
      progress.Begin(r + 1);
      PanelResults got;
      Span root(tracer, 1, "refresh");
      const cubrick::Status status = SingleNodeRefresh(*db, dash, root, &got);
      root.End();
      const Clock::time_point end = Clock::now();
      const size_t reading = reader_probe.Read();
      layers.refresh.AddDelta(RefreshCounters::Read(), c0);
      sample_limbo();
      // The snapshot was taken after `floor` ops had completed and before
      // the op after the one in flight when the refresh ended.
      const size_t ceiling = std::min(script.size(), progress.Done() + 1);
      if (!reader.Track(status, "refresh")) break;
      reader.refreshes.push_back({MsBetween(due, end), reading});
      reader.refresh_service.push_back({MsBetween(begin, end), reading});
      reader.late_ms.push_back(MsBetween(due, begin));
      while (cursor < floor) apply(script[cursor++]);
      const Agg agg = CubeModel::AggOf(got.agg);
      while (!(agg == seen.total()) && cursor < ceiling) {
        apply(script[cursor++]);
      }
      if (agg.count % kBatchRows != 0) {
        reader.Fail("refresh saw a torn batch: count " +
                    std::to_string(agg.count));
      }
      const std::string diff = seen.Check(dash, got);
      if (!diff.empty()) {
        reader.Fail("refresh " + std::to_string(r) + " after op " +
                    std::to_string(cursor) + ": " + diff);
      }
    }
    progress.Begin(Progress::kAborted);
  });

  // Loader (this thread): the retention script.
  HostProbe probe;
  for (size_t i = 0; i < script.size(); ++i) {
    const Op& op = script[i];
    if (op.kind == Op::Kind::kRetire) {
      probe.Read();
      const Clock::time_point t0 = Clock::now();
      Span root(tracer, 0, "retire");
      cubrick::FilterClause day;
      day.dim = kDimDay;
      day.op = cubrick::FilterClause::Op::kEq;
      day.values = {op.day};
      {
        Span span(root, "aosi.delete");
        if (!run.Track(db->DeletePartitions("sales", {day}),
                       "DeletePartitions")) {
          break;
        }
      }
      model.DropDay(op.day);
      progress.Complete(i);
      Span span(root, "persist.checkpoint");
      if (!run.Track(db->Checkpoint().status(), "Checkpoint")) break;
      span.End();
      root.End();
      run.retires.push_back(EndSample(probe, t0));
    } else {
      const std::vector<Record>& rows = data.Batch(op.batch, op.day);
      probe.Read();
      const Clock::time_point t0 = Clock::now();
      Span root(tracer, 0, "load");
      cubrick::aosi::Txn txn;
      if (!run.Track(BeginAndAppend(*db, options, rows, root, &txn),
                     "append")) {
        break;
      }
      {
        Span span(root, "aosi.commit");
        if (!run.Track(db->Commit(txn), "commit")) break;
      }
      root.End();
      run.loads.push_back(EndSample(probe, t0));
      run.rows_loaded += rows.size();
      model.Load(op.day, data.Summary(op.batch));
      progress.Complete(i);
      if (IsMidDayTrigger(i)) {
        progress.WaitBegun(i / (kDaysPerRefresh * kOpsPerDay) + 1);
      }
    }
    sample_limbo();
  }
  if (!run.ok()) progress.Abort();
  reader_thread.join();

  run.refreshes = std::move(reader.refreshes);
  run.refresh_service = std::move(reader.refresh_service);
  run.late_ms = std::move(reader.late_ms);
  AdjustToReference(probe, &run.loads);
  AdjustToReference(probe, &run.retires);
  AdjustToReference(reader_probe, &run.refreshes);
  AdjustToReference(reader_probe, &run.refresh_service);
  run.load_core_speed = probe.CoreSpeed();
  run.refresh_core_speed = reader_probe.CoreSpeed();
  run.attempted += reader.attempted;
  run.failed += reader.failed;
  if (!reader.error.empty()) run.Fail(reader.error);
  if (!run.ok()) return run;

  // Last quiescent maintenance step, then the memory metrics.
  run.Track(db->Checkpoint().status(), "final checkpoint");
  layers.after = PhaseCounters::Read();
  const uint64_t live = model.total().count;
  if (db->TotalRecords() != live) {
    run.Fail("after the final checkpoint the cube holds " +
             std::to_string(db->TotalRecords()) + " rows, want " +
             std::to_string(live));
  }
  run.history_bytes_per_row =
      static_cast<double>(db->HistoryMemoryUsage()) / live;
  run.data_bytes_per_row = static_cast<double>(db->DataMemoryUsage()) / live;

  run.fingerprint = {{"ops", static_cast<double>(script.size())},
                     {"loads", static_cast<double>(run.loads.size())},
                     {"refreshes", static_cast<double>(run.refreshes.size())},
                     {"live_rows", static_cast<double>(live)},
                     {"live_sum", static_cast<double>(model.total().sum)},
                     {"history_bytes_per_row", run.history_bytes_per_row},
                     {"data_bytes_per_row", run.data_bytes_per_row}};
  if (traced) {
    layers.spans = Summarize(tracer.All());
    layers.loads = run.loads.size();
    layers.rows_loaded = run.rows_loaded;
    layers.refreshes = run.refreshes.size();
    layers.rw_txns = run.loads.size() + days;
    layers.ebr_limbo_max = limbo_max.load();
    FillLayers(layers, &run);
    tracer.WriteChromeTrace(args.out_dir + "/trace-ingest.json");
  }
  db.reset();
  std::filesystem::remove_all(data_dir);
  return run;
}

}  // namespace perfbench
