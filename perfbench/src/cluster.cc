// Workload `cluster`: three simulated nodes with replication factor 2 (the
// rest of ClusterOptions at its defaults, so no disk). One client rotates
// the coordinator through distributed begin (pendingTxs gather), Append
// (parse, forward to brick owners and replicas) and Commit (one-way finish
// broadcast), with a dashboard refresh at one RO snapshot every other load.
// Each day boundary deletes the oldest day, advances the cluster LSE and
// purges every node.
//
// It is the only workload that exercises src/cluster.

#include <algorithm>

#include "bench.h"
#include "cluster/cluster.h"

namespace perfbench {
namespace {

using cubrick::cluster::Cluster;
using cubrick::cluster::DistTxn;

// Live window: 6 days x 12 batches of 16384 rows = 1.18M rows, 2.4M row
// copies with replication, about 54 MB of columns: inside the 105 MiB L3.
// Batches are 4x the single-node ones so that a few milliseconds of host
// scheduling noise stay small against one load.
constexpr uint64_t kWindow = 6;
constexpr size_t kLoadsPerDay = 12;
constexpr size_t kBatch = 4 * kBatchRows;
constexpr size_t kPoolSize = 16;
constexpr size_t kRefreshEvery = 2;  // loads per refresh
// Script length per --seconds.
constexpr double kLoadsPerSecond = 48;

struct ClusterRun {
  explicit ClusterRun(RunResult* run) : run(*run) {}
  RunResult& run;
  std::unique_ptr<Cluster> cluster;
  uint64_t rw_txns = 0;
  std::vector<double> parse_ms;  // the engine's own parse/flush split
  std::vector<double> flush_ms;

  uint32_t Coordinator(size_t i) const {
    return static_cast<uint32_t>(i % cluster->num_nodes()) + 1;
  }

  /// Distributed begin, Append, Commit.
  bool Load(const std::vector<Record>& rows, uint32_t coord, const Span& root) {
    cubrick::Result<DistTxn> txn = [&] {
      Span span(root, "cluster.begin");
      return cluster->BeginReadWrite(coord);
    }();
    if (!run.Track(txn.status(), "BeginReadWrite")) return false;
    ++rw_txns;
    cubrick::cluster::LoadStats stats;
    {
      Span span(root, "cluster.append");
      if (!run.Track(cluster->Append(&*txn, "sales", rows, {}, &stats),
                     "Append")) {
        return false;
      }
    }
    parse_ms.push_back(stats.parse_us / 1000.0);
    flush_ms.push_back(stats.flush_us / 1000.0);
    Span span(root, "cluster.commit");
    return run.Track(cluster->Commit(&*txn), "Commit");
  }

  /// Distributed delete of one day, then LSE advance and purge.
  bool Retire(uint64_t day, uint32_t coord, const Span& root) {
    cubrick::FilterClause eq;
    eq.dim = kDimDay;
    eq.op = cubrick::FilterClause::Op::kEq;
    eq.values = {day};
    cubrick::Result<DistTxn> txn = [&] {
      Span span(root, "cluster.begin");
      return cluster->BeginReadWrite(coord);
    }();
    if (!run.Track(txn.status(), "BeginReadWrite")) return false;
    ++rw_txns;
    {
      Span span(root, "cluster.delete");
      if (!run.Track(cluster->DeleteWhere(&*txn, "sales", {eq}),
                     "DeleteWhere")) {
        return false;
      }
    }
    {
      Span span(root, "cluster.commit");
      if (!run.Track(cluster->Commit(&*txn), "Commit")) return false;
    }
    Span span(root, "cluster.lse_purge");
    cluster->AdvanceClusterLSE();
    cluster->PurgeAll();
    return true;
  }

  /// Three panels at one RO snapshot on `coord`.
  bool Refresh(const Dashboard& dash, uint32_t coord, const Span& root,
               PanelResults* out) {
    DistTxn ro;
    {
      Span span(root, "aosi.snapshot_begin");
      ro = cluster->BeginReadOnly(coord);
    }
    const std::pair<const char*, const cubrick::Query*> panels[] = {
        {"query.agg", &dash.agg},
        {"query.group", &dash.group},
        {"query.filter", &dash.filter}};
    cubrick::QueryResult* results[] = {&out->agg, &out->group, &out->filter};
    bool ok = true;
    for (size_t i = 0; i < 3 && ok; ++i) {
      Span panel(root, panels[i].first);
      Span span(panel, "cluster.query");
      auto result = cluster->Query(&ro, "sales", *panels[i].second);
      ok = run.Track(result.ok() ? cubrick::Status::OK() : result.status(),
                     "Query");
      if (ok) *results[i] = std::move(result).value();
    }
    Span span(root, "aosi.snapshot_end");
    cluster->EndReadOnly(&ro);
    return ok;
  }
};

}  // namespace

RunResult RunCluster(const Args& args, bool traced) {
  RunResult run;
  const int repeats = traced ? 1 : kSetupRepeats;
  const uint64_t days = std::max<uint64_t>(
      1, static_cast<uint64_t>(args.seconds * kLoadsPerSecond / kLoadsPerDay +
                               0.5));
  DataSet data(args.seed, kPoolSize, kBatch);
  const std::vector<Op> preload =
      PreloadScript(kWindow, kLoadsPerDay, kPoolSize, args.seed);
  const std::vector<Op> script =
      RetentionScript(kWindow, days, kLoadsPerDay, kPoolSize, args.seed);

  cubrick::cluster::ClusterOptions options;
  options.replication_factor = 2;
  ClusterRun c(&run);
  CubeModel model;
  Tracer untraced(false);

  // Set-up: cube creation and preload of the window.
  for (int s = 0; s < repeats && run.ok(); ++s) {
    c.cluster.reset();
    model = CubeModel();
    SetupTimer timer;
    c.cluster = std::make_unique<Cluster>(options);
    run.Track(c.cluster->CreateCube("sales", SalesDimensions(), SalesMetrics()),
              "CreateCube");
    for (size_t i = 0; i < preload.size() && run.ok(); ++i) {
      const Op& op = preload[i];
      if (i % 2 == 0) timer.Read();
      Span root(untraced, 0, "load");
      if (!c.Load(data.Batch(op.batch, op.day), c.Coordinator(i), root)) break;
      model.Load(op.day, data.Summary(op.batch));
    }
    timer.Stop(&run);
  }
  if (!run.ok()) return run;
  c.parse_ms.clear();
  c.flush_ms.clear();
  c.rw_txns = 0;

  Dashboard dash =
      Dashboard::Make(*c.cluster->FindSchema("sales"), data.in_regions());
  Tracer tracer(traced);
  LayerInputs layers;
  layers.before = PhaseCounters::Read();
  int64_t limbo_max = 0;
  size_t loads = 0;
  HostProbe probe;

  for (size_t i = 0; i < script.size() && run.ok(); ++i) {
    const Op& op = script[i];
    const uint32_t coord = c.Coordinator(i);
    if (op.kind == Op::Kind::kRetire) {
      probe.Read();
      const Clock::time_point t0 = Clock::now();
      {
        Span root(tracer, 0, "retire");
        if (!c.Retire(op.day, coord, root)) break;
      }
      run.retires.push_back(EndSample(probe, t0));
      model.DropDay(op.day);
      continue;
    }
    const std::vector<Record>& rows = data.Batch(op.batch, op.day);
    probe.Read();
    const Clock::time_point t0 = Clock::now();
    {
      Span root(tracer, 0, "load");
      if (!c.Load(rows, coord, root)) break;
    }
    run.loads.push_back(EndSample(probe, t0));
    run.rows_loaded += rows.size();
    model.Load(op.day, data.Summary(op.batch));
    if (++loads % kRefreshEvery != 0) continue;

    dash.SetNewestDay(op.day);
    const RefreshCounters r0 = RefreshCounters::Read();
    probe.Read();
    const Clock::time_point r1 = Clock::now();
    PanelResults got;
    {
      Span root(tracer, 0, "refresh");
      if (!c.Refresh(dash, coord, root, &got)) break;
    }
    run.refreshes.push_back(EndSample(probe, r1));
    layers.refresh.AddDelta(RefreshCounters::Read(), r0);
    const std::string diff = model.Check(dash, got);
    if (!diff.empty()) {
      run.Fail("refresh after op " + std::to_string(i) + ": " + diff);
      break;
    }
    if (traced) {
      limbo_max = std::max(limbo_max, EbrLimboBytes());
    }
  }
  if (!run.ok()) return run;
  AdjustToReference(probe, &run.loads);
  AdjustToReference(probe, &run.retires);
  AdjustToReference(probe, &run.refreshes);
  run.refresh_service = run.refreshes;
  run.load_core_speed = run.refresh_core_speed = probe.CoreSpeed();

  // Last quiescent maintenance step, then the memory metrics (row copies on
  // every node, per live logical row).
  c.cluster->AdvanceClusterLSE();
  c.cluster->PurgeAll();
  layers.after = PhaseCounters::Read();
  const uint64_t live = model.total().count;
  const uint64_t copies = c.cluster->TotalRecords();
  if (copies != live * options.replication_factor) {
    run.Fail("after the final purge the cluster holds " +
             std::to_string(copies) + " row copies, want " +
             std::to_string(live * options.replication_factor));
  }
  size_t history = 0;
  size_t bytes = 0;
  for (uint32_t n = 1; n <= c.cluster->num_nodes(); ++n) {
    history += c.cluster->node(n).HistoryMemoryUsage();
    bytes += c.cluster->node(n).DataMemoryUsage();
  }
  run.history_bytes_per_row = static_cast<double>(history) / live;
  run.data_bytes_per_row = static_cast<double>(bytes) / live;

  run.fingerprint = {
      {"ops", static_cast<double>(script.size())},
      {"loads", static_cast<double>(run.loads.size())},
      {"refreshes", static_cast<double>(run.refreshes.size())},
      {"live_rows", static_cast<double>(live)},
      {"live_sum", static_cast<double>(model.total().sum)},
      {"rows_scanned", static_cast<double>(layers.refresh.rows_scanned)},
      {"rpc_msgs",
       static_cast<double>(layers.after.rpc_msgs - layers.before.rpc_msgs)},
      {"history_bytes_per_row", run.history_bytes_per_row},
      {"data_bytes_per_row", run.data_bytes_per_row}};
  if (traced) {
    layers.spans = Summarize(tracer.All());
    layers.loads = run.loads.size();
    layers.rows_loaded = run.rows_loaded;
    layers.refreshes = run.refreshes.size();
    layers.rw_txns = c.rw_txns;
    layers.ebr_limbo_max = limbo_max;
    FillLayers(layers, &run);
    // Cluster::Append parses and forwards inside one call; its own
    // LoadStats split stands in for the ingest.parse/engine.append spans.
    double parse = 0;
    double flush = 0;
    for (double ms : c.parse_ms) parse += ms;
    for (double ms : c.flush_ms) flush += ms;
    const double load_ms = layers.spans.TotalMs("load");
    const double krows = run.rows_loaded / 1000.0;
    run.layer["ingest.parse_ms_per_krow"] = parse / krows;
    run.layer["ingest.parse_share"] = parse / load_ms;
    run.layer["engine.append_ms_per_krow"] = flush / krows;
    run.layer["engine.append_share"] = flush / load_ms;
    run.layer["engine.append_tail_ms"] = TailOf(c.flush_ms).value;
    tracer.WriteChromeTrace(args.out_dir + "/trace-cluster.json");
  }
  return run;
}

}  // namespace perfbench
