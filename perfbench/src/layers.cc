// Per-layer metrics of the traced run: the catalog, the registry counters
// read around refreshes and around the measured script, and the mapping from
// spans and counters to catalog values.

#include <algorithm>

#include "bench.h"

namespace perfbench {

namespace obs = cubrick::obs;

const std::vector<LayerSpec>& LayerCatalog() {
  static const std::vector<LayerSpec> kCatalog = {
      {"ingest.parse_ms_per_krow", "ms/krow"},
      {"ingest.parse_share", "ratio"},
      {"storage.dict_hit_ratio", "ratio"},
      {"engine.append_ms_per_krow", "ms/krow"},
      {"engine.append_share", "ratio"},
      {"engine.append_tail_ms", "ms"},
      {"engine.group_appends_per_load", "count"},
      {"aosi.begin_us", "us"},
      {"aosi.commit_us", "us"},
      {"aosi.snapshot_us", "us"},
      {"aosi.si_over_ru", "ratio"},
      {"aosi.visibility_ms_per_refresh", "ms"},
      {"aosi.vis_cache_hit_ratio", "ratio"},
      {"aosi.purge_pause_p99_us", "us"},
      {"query.agg_ms", "ms"},
      {"query.group_ms", "ms"},
      {"query.filter_ms", "ms"},
      {"query.rows_scanned_per_refresh", "rows"},
      {"query.bricks_pruned_frac", "ratio"},
      {"query.simd_word_frac", "ratio"},
      {"persist.checkpoint_ms", "ms"},
      {"persist.flush_rows_per_s", "rows/s"},
      {"cluster.begin_us", "us"},
      {"cluster.append_ms", "ms"},
      {"cluster.commit_us", "us"},
      {"cluster.query_ms", "ms"},
      {"cluster.lse_purge_ms", "ms"},
      {"cluster.msgs_per_txn", "count"},
      {"common.pool_tasks_per_refresh", "count"},
      {"common.ebr_limbo_bytes_max", "B"},
      // Reconciliation of the traced run: share of each request's time
      // that the spans of its calls into the engine do not cover.
      {"trace.load_unattributed_p50", "ratio"},
      {"trace.load_unattributed_max", "ratio"},
      {"trace.refresh_unattributed_p50", "ratio"},
      {"trace.refresh_unattributed_max", "ratio"},
      // Tracing overhead: traced value over untraced value, per end-to-end
      // metric (1.0 = no difference).
      {"trace.overhead.setup_s", "x"},
      {"trace.overhead.load_rows_per_s", "x"},
      {"trace.overhead.load_p50_ms", "x"},
      {"trace.overhead.load_tail_ms", "x"},
      {"trace.overhead.refresh_per_s", "x"},
      {"trace.overhead.refresh_p50_ms", "x"},
      {"trace.overhead.refresh_tail_ms", "x"},
      {"trace.overhead.history_bytes_per_row", "x"},
      {"trace.overhead.data_bytes_per_row", "x"},
      // Open-loop accounting of the paced reader (untraced run): how late
      // each refresh started against its due time.
      {"bench.gen_late_p50_ms", "ms"},
      {"bench.gen_late_max_ms", "ms"},
      // Sample counts behind the end-to-end tails (untraced run).
      {"bench.load_samples", "count"},
      {"bench.load_tail_pct", "%"},
      {"bench.refresh_samples", "count"},
      {"bench.refresh_tail_pct", "%"},
      // The core-speed adjustment of the untraced run: the loading client's
      // core speed against the reference, and the p50 timings as measured.
      {"bench.core_speed", "x"},
      {"bench.wall_load_p50_ms", "ms"},
      {"bench.wall_refresh_p50_ms", "ms"},
  };
  return kCatalog;
}

namespace {

struct RefreshInstruments {
  obs::Counter* rows_scanned;
  obs::Counter* bricks_scanned;
  obs::Counter* bricks_pruned;
  obs::Counter* words_scanned;
  obs::Counter* simd_words;
  obs::Counter* vis_hits;
  obs::Counter* vis_misses;
  obs::Histogram* visibility_us;
  obs::Counter* pool_tasks;
};

const RefreshInstruments& Refresh() {
  static const RefreshInstruments kIns = [] {
    auto& reg = obs::MetricsRegistry::Global();
    return RefreshInstruments{reg.GetCounter("query.rows_scanned"),
                              reg.GetCounter("query.bricks_scanned"),
                              reg.GetCounter("query.bricks_pruned"),
                              reg.GetCounter("query.kernel_words_scanned"),
                              reg.GetCounter("query.kernel_simd_words"),
                              reg.GetCounter("query.vis_cache_hits"),
                              reg.GetCounter("query.vis_cache_misses"),
                              reg.GetHistogram("query.visibility_us"),
                              reg.GetCounter("pool.tasks_total")};
  }();
  return kIns;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

obs::HistogramSnapshot HistogramDelta(const obs::HistogramSnapshot& after,
                                      const obs::HistogramSnapshot& before) {
  obs::HistogramSnapshot delta;
  for (size_t i = 0; i < delta.buckets.size(); ++i) {
    delta.buckets[i] = after.buckets[i] - before.buckets[i];
    delta.count += delta.buckets[i];
  }
  delta.sum = after.sum - before.sum;
  return delta;
}

}  // namespace

RefreshCounters RefreshCounters::Read() {
  const RefreshInstruments& ins = Refresh();
  RefreshCounters c;
  c.rows_scanned = ins.rows_scanned->Value();
  c.bricks_scanned = ins.bricks_scanned->Value();
  c.bricks_pruned = ins.bricks_pruned->Value();
  c.words_scanned = ins.words_scanned->Value();
  c.simd_words = ins.simd_words->Value();
  c.vis_hits = ins.vis_hits->Value();
  c.vis_misses = ins.vis_misses->Value();
  c.visibility_us = ins.visibility_us->Read().sum;
  c.pool_tasks = ins.pool_tasks->Value();
  return c;
}

void RefreshCounters::AddDelta(const RefreshCounters& after,
                               const RefreshCounters& before) {
  rows_scanned += after.rows_scanned - before.rows_scanned;
  bricks_scanned += after.bricks_scanned - before.bricks_scanned;
  bricks_pruned += after.bricks_pruned - before.bricks_pruned;
  words_scanned += after.words_scanned - before.words_scanned;
  simd_words += after.simd_words - before.simd_words;
  vis_hits += after.vis_hits - before.vis_hits;
  vis_misses += after.vis_misses - before.vis_misses;
  visibility_us += after.visibility_us - before.visibility_us;
  pool_tasks += after.pool_tasks - before.pool_tasks;
}

PhaseCounters PhaseCounters::Read() {
  auto& reg = obs::MetricsRegistry::Global();
  PhaseCounters c;
  c.dict_hits = reg.GetCounter("ingest.dict_snapshot_hits")->Value();
  c.dict_misses = reg.GetCounter("ingest.dict_batch_misses")->Value();
  c.group_appends = reg.GetCounter("ingest.group_appends")->Value();
  c.rows_flushed = reg.GetCounter("persist.rows_flushed")->Value();
  c.flush_us = reg.GetHistogram("persist.flush_us")->Read().sum;
  for (const char* name :
       {"cluster.rpc.append_forwards", "cluster.rpc.begin_broadcasts",
        "cluster.rpc.finish_broadcasts", "cluster.rpc.horizon_registrations",
        "cluster.rpc.redeliveries_applied",
        "cluster.rpc.redeliveries_queued"}) {
    c.rpc_msgs += reg.GetCounter(name)->Value();
  }
  c.purge_pause = reg.GetHistogram("aosi.purge.pause_us")->Read();
  return c;
}

int64_t EbrLimboBytes() {
  static obs::Gauge* const kLimbo =
      obs::MetricsRegistry::Global().GetGauge("ebr.limbo_bytes");
  return kLimbo->Value();
}

void FillLayers(const LayerInputs& in, RunResult* run) {
  const SpanSummary& s = in.spans;
  auto& out = run->layer;
  auto p50 = [&](const char* name) { return Median(s.Durations(name)); };
  const double krows = static_cast<double>(in.rows_loaded) / 1000.0;

  // Single-node loads carry ingest.parse/engine.append spans; cluster loads
  // carry cluster.* spans and report the engine's own parse/flush split.
  const double load_ms = s.TotalMs("load");
  const double parse_ms = s.TotalMs("ingest.parse");
  const double append_ms = s.TotalMs("engine.append");
  out["ingest.parse_ms_per_krow"] = Ratio(parse_ms, krows);
  out["ingest.parse_share"] = Ratio(parse_ms, load_ms);
  out["engine.append_ms_per_krow"] = Ratio(append_ms, krows);
  out["engine.append_share"] = Ratio(append_ms, load_ms);
  out["engine.append_tail_ms"] = TailOf(s.Durations("engine.append")).value;

  const PhaseCounters& a = in.after;
  const PhaseCounters& b = in.before;
  out["storage.dict_hit_ratio"] =
      Ratio(static_cast<double>(a.dict_hits - b.dict_hits),
            static_cast<double>(a.dict_hits - b.dict_hits + a.dict_misses -
                                b.dict_misses));
  out["engine.group_appends_per_load"] =
      Ratio(static_cast<double>(a.group_appends - b.group_appends),
            static_cast<double>(in.loads));

  out["aosi.begin_us"] = p50("aosi.begin") * 1000.0;
  out["aosi.commit_us"] = p50("aosi.commit") * 1000.0;
  out["aosi.snapshot_us"] =
      (p50("aosi.snapshot_begin") + p50("aosi.snapshot_end")) * 1000.0;
  out["aosi.si_over_ru"] = Ratio(p50("query.group"), p50("query.group_ru"));

  const RefreshCounters& r = in.refresh;
  const double refreshes = static_cast<double>(in.refreshes);
  out["aosi.visibility_ms_per_refresh"] =
      Ratio(static_cast<double>(r.visibility_us) / 1000.0, refreshes);
  out["aosi.vis_cache_hit_ratio"] =
      Ratio(static_cast<double>(r.vis_hits),
            static_cast<double>(r.vis_hits + r.vis_misses));
  out["aosi.purge_pause_p99_us"] = static_cast<double>(
      HistogramDelta(a.purge_pause, b.purge_pause).Percentile(99));

  out["query.agg_ms"] = p50("query.agg");
  out["query.group_ms"] = p50("query.group");
  out["query.filter_ms"] = p50("query.filter");
  out["query.rows_scanned_per_refresh"] =
      Ratio(static_cast<double>(r.rows_scanned), refreshes);
  out["query.bricks_pruned_frac"] =
      Ratio(static_cast<double>(r.bricks_pruned),
            static_cast<double>(r.bricks_pruned + r.bricks_scanned));
  out["query.simd_word_frac"] = Ratio(static_cast<double>(r.simd_words),
                                      static_cast<double>(r.words_scanned));

  out["persist.checkpoint_ms"] = p50("persist.checkpoint");
  out["persist.flush_rows_per_s"] =
      Ratio(static_cast<double>(a.rows_flushed - b.rows_flushed),
            static_cast<double>(a.flush_us - b.flush_us) / 1e6);

  out["cluster.begin_us"] = p50("cluster.begin") * 1000.0;
  out["cluster.append_ms"] = p50("cluster.append");
  out["cluster.commit_us"] = p50("cluster.commit") * 1000.0;
  out["cluster.query_ms"] = p50("cluster.query");
  out["cluster.lse_purge_ms"] = p50("cluster.lse_purge");
  out["cluster.msgs_per_txn"] =
      Ratio(static_cast<double>(a.rpc_msgs - b.rpc_msgs),
            static_cast<double>(in.rw_txns));

  out["common.pool_tasks_per_refresh"] =
      Ratio(static_cast<double>(r.pool_tasks), refreshes);
  out["common.ebr_limbo_bytes_max"] = static_cast<double>(in.ebr_limbo_max);

  auto share = [&](const char* root, bool max) {
    const auto it = s.unattributed_share.find(root);
    if (it == s.unattributed_share.end() || it->second.empty()) return 0.0;
    return max ? *std::max_element(it->second.begin(), it->second.end())
               : Median(it->second);
  };
  out["trace.load_unattributed_p50"] = share("load", false);
  out["trace.load_unattributed_max"] = share("load", true);
  out["trace.refresh_unattributed_p50"] = share("refresh", false);
  out["trace.refresh_unattributed_max"] = share("refresh", true);
}

}  // namespace perfbench
