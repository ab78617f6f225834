// Shared pieces of the end-to-end benchmark: command line, bench-side trace
// spans, sample statistics, registry deltas, the generated data set, and the
// reference model every answer is checked against.
//
// The benchmark drives the engine only through its public calls (Database,
// cluster::Cluster, ParseRecords, Table::Append, TxnManager and the obs
// registry). Spans are recorded here, around those calls, never inside the
// engine.

#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cubrick/database.h"
#include "ingest/parser.h"
#include "obs/metrics.h"
#include "query/query.h"

namespace perfbench {

using cubrick::Record;
using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 15;
  bool trace = false;
  /// Directory for the data dir, the trace file and other run output.
  std::string out_dir = ".";
};

// --- Trace spans -----------------------------------------------------------

struct SpanRecord {
  const char* name = nullptr;
  Clock::time_point start;
  Clock::time_point end;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 for a request's root span
  uint64_t request = 0;  // shared by every span of one request
  uint32_t thread = 0;
};

/// In-memory span store. Each client thread owns one slot, so recording
/// takes no lock; spans are merged and written once, after the run.
class Tracer {
 public:
  static constexpr uint32_t kMaxThreads = 2;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  uint64_t NextId(uint32_t thread) {
    return (uint64_t{thread} << 48) | ++next_id_[thread];
  }
  void Add(const SpanRecord& span) { spans_[span.thread].push_back(span); }
  /// Every span of every thread, ordered by start time.
  std::vector<SpanRecord> All() const;
  /// Chrome trace-event JSON (load it in chrome://tracing or Perfetto).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  std::array<uint64_t, kMaxThreads> next_id_{};
  std::array<std::vector<SpanRecord>, kMaxThreads> spans_;
};

/// RAII span around one call into a module. A no-op when tracing is off.
class Span {
 public:
  /// A request's root span; its id is the request id.
  Span(Tracer& tracer, uint32_t thread, const char* name);
  /// A child span of the same request.
  Span(const Span& parent, const char* name);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void End();

 private:
  Tracer& tracer_;
  SpanRecord record_;
  bool open_;
};

/// Per-name durations plus, per root-span name, the share of each root's
/// time that its direct children do not cover.
struct SpanSummary {
  std::map<std::string, std::vector<double>> durations_ms;
  std::map<std::string, std::vector<double>> unattributed_share;

  double TotalMs(const std::string& name) const;
  const std::vector<double>& Durations(const std::string& name) const;
};
SpanSummary Summarize(const std::vector<SpanRecord>& spans);

// --- Core-speed adjustment -------------------------------------------------

/// Wall time of one run of a fixed probe kernel on the calling thread, in
/// microseconds: throughput-bound integer work over a 4 KB table.
///
/// On a shared host the speed of a core moves by up to 1.5x, for moments or
/// for minutes, as other tenants load the machine, and the engine's own code
/// slows in step with this probe. The bench reads the probe right before and
/// right after every measured operation, on the thread that runs it, and
/// reports each timing at a fixed reference core speed.
double ProbeUs();

/// The probe's time on an unloaded core of the reference box (4-core Xeon
/// VM). A timing is reported as its wall time times kReferenceProbeUs over
/// the probe time around it.
constexpr double kReferenceProbeUs = 40.0;

/// Harmonic mean: the probe time that matches a core's mean speed over
/// the readings (speed is the inverse of a reading).
double HarmonicMean(const std::vector<double>& values);

/// Probe readings of one client thread, in the order taken.
class HostProbe {
 public:
  /// Takes a reading and returns its index.
  size_t Read() {
    readings_.push_back(ProbeUs());
    return readings_.size() - 1;
  }
  /// The probe time around reading `i`: the harmonic mean of the readings
  /// within kWindow of it, that is, of about two operations on each side
  /// besides the one that reading `i` ends.
  double LocalUs(size_t i) const;
  /// Reference core speed over this thread's mean speed: 1 on an unloaded
  /// core of the reference box, below 1 on a slower or loaded one.
  double CoreSpeed() const {
    return kReferenceProbeUs / HarmonicMean(readings_);
  }

 private:
  static constexpr size_t kWindow = 5;
  std::vector<double> readings_;
};

/// One measured operation.
struct Sample {
  double wall_ms = 0;
  /// Index of the probe reading its thread took right after it.
  size_t reading = 0;
  /// The wall time at the reference core speed, set by AdjustToReference.
  double ms = 0;
};

/// Ends an operation started at `t0` on this thread: its wall time, then
/// the probe reading right after it. (The caller read the probe right
/// before `t0`.)
inline Sample EndSample(HostProbe& probe, Clock::time_point t0) {
  Sample s;
  s.wall_ms = MsBetween(t0, Clock::now());
  s.reading = probe.Read();
  return s;
}

/// Sets each sample's `ms` from the probe readings of the thread that ran
/// it.
void AdjustToReference(const HostProbe& probe, std::vector<Sample>* samples);

// --- Sample statistics -----------------------------------------------------

double Median(std::vector<double> values);

/// The highest percentile that still has `kTailBeyond` samples above it:
/// with n samples it is the (n - kTailBeyond)-th smallest value.
struct Tail {
  static constexpr size_t kTailBeyond = 10;
  double value = 0;
  double percentile = 0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> values);

// --- Data set --------------------------------------------------------------

/// The "sales" cube every workload uses. One day is one partition (day
/// range 1), so retention deletes whole bricks; regions are a string
/// dimension; products are the 128-value group-by dimension.
constexpr size_t kBatchRows = 4096;
constexpr uint64_t kDayCardinality = 4096;
constexpr size_t kRegions = 64;
constexpr size_t kProducts = 128;
constexpr size_t kDimDay = 0;
constexpr size_t kDimRegion = 1;
constexpr size_t kDimProduct = 2;
constexpr size_t kInRegions = 6;  // size of the filter panel's IN list

std::vector<cubrick::DimensionDef> SalesDimensions();
std::vector<cubrick::MetricDef> SalesMetrics();

/// COUNT and exact integer SUM(revenue) and SUM(units) of a set of rows.
struct Agg {
  uint64_t count = 0;
  int64_t sum = 0;
  int64_t units = 0;
  void Add(const Agg& o) {
    count += o.count;
    sum += o.sum;
    units += o.units;
  }
  void Sub(const Agg& o) {
    count -= o.count;
    sum -= o.sum;
    units -= o.units;
  }
  bool operator==(const Agg& o) const {
    return count == o.count && sum == o.sum && units == o.units;
  }
};

struct BatchSummary {
  Agg total;
  Agg in_set;  // rows whose region is in the filter panel's IN list
  std::array<Agg, kProducts> by_product{};
};

/// A seed-determined pool of distinct batches. Workloads replay the pool
/// cyclically and stamp each use with its day, so generation costs nothing
/// inside the measured phase and the live data never repeats a row set
/// within a day.
class DataSet {
 public:
  DataSet(uint64_t seed, size_t pool_size, size_t batch_rows = kBatchRows);

  size_t pool_size() const { return batches_.size(); }
  /// Batch `i` with every row's day set to `day`. Rewrites the pool entry
  /// in place, so only one thread may call it.
  const std::vector<Record>& Batch(size_t i, uint64_t day);
  const BatchSummary& Summary(size_t i) const { return summaries_[i]; }
  const std::vector<std::string>& in_regions() const { return in_regions_; }

 private:
  std::vector<std::vector<Record>> batches_;
  std::vector<BatchSummary> summaries_;
  std::vector<std::string> in_regions_;
};

// --- Dashboard and reference model -----------------------------------------

/// The three panels of one dashboard refresh, each SUM(revenue), SUM(units)
/// and COUNT. `agg` covers the whole cube, so it streams both metric
/// columns; `group` and `filter` cover the most recent days, up to the
/// newest day being loaded.
struct Dashboard {
  static constexpr uint64_t kGroupDays = 2;
  static constexpr uint64_t kFilterDays = 3;

  cubrick::Query agg;     // ungrouped
  cubrick::Query group;   // by product (128 groups), recent days
  cubrick::Query filter;  // region IN (...) and recent days, by day
  uint64_t newest_day = 0;

  /// Builds the panels; the IN list is translated through the cube's
  /// region dictionary, so call it after the first load.
  static Dashboard Make(const cubrick::CubeSchema& schema,
                        const std::vector<std::string>& in_regions);
  void SetNewestDay(uint64_t day);
  uint64_t group_first_day() const;
};

struct PanelResults {
  cubrick::QueryResult agg;
  cubrick::QueryResult group;
  cubrick::QueryResult filter;
};

/// Exact committed contents of the cube, maintained beside the engine.
class CubeModel {
 public:
  void Load(uint64_t day, const BatchSummary& batch);
  void DropDay(uint64_t day);

  const Agg& total() const { return total_; }
  /// Rows of the days in [lo, hi].
  Agg DaysTotal(uint64_t lo, uint64_t hi) const;

  /// COUNT and SUM of an ungrouped result (the agg panel).
  static Agg AggOf(const cubrick::QueryResult& result);
  /// Checks all three panels of one refresh against this state. Returns
  /// an empty string on a match, else what differs.
  std::string Check(const Dashboard& dash, const PanelResults& got) const;

 private:
  struct Day {
    Agg total;
    Agg in_set;
    std::array<Agg, kProducts> by_product{};
  };
  std::map<uint64_t, Day> days_;
  Agg total_;
};

// --- Op script -------------------------------------------------------------

/// One step of a retention script: load a pool batch into a day, or retire
/// the oldest day (delete it, then run the workload's maintenance step).
struct Op {
  enum class Kind { kLoad, kRetire } kind = Kind::kLoad;
  uint64_t day = 0;
  size_t batch = 0;
};

/// Loads of days [0, days) with `loads_per_day` batches each.
std::vector<Op> PreloadScript(uint64_t days, size_t loads_per_day,
                              size_t pool_size, uint64_t seed);
/// The measured script after a `window`-day preload: `days` more days,
/// each retiring day (d - window) before loading day d.
std::vector<Op> RetentionScript(uint64_t window, uint64_t days,
                                size_t loads_per_day, size_t pool_size,
                                uint64_t seed);

// --- Results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one execution of a workload's script produced. End-to-end numbers
/// are filled in every run; `layer` only when the run was traced.
struct RunResult {
  /// Set-up times at the reference core speed (see SetupTimer), and as
  /// measured.
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  /// Loads, begin to commit (on scan, the time in the load's own calls).
  std::vector<Sample> loads;
  uint64_t rows_loaded = 0;
  /// Retention steps: the delete of the oldest day plus the workload's
  /// maintenance (ingest, cluster). With the loads they make up the loading
  /// phase of load_rows_per_s.
  std::vector<Sample> retires;
  /// Refresh latency; on ingest from the refresh's due time.
  std::vector<Sample> refreshes;
  /// Refresh service time, from its start (not its due time) to its end:
  /// the denominator of refresh_per_s.
  std::vector<Sample> refresh_service;
  /// HostProbe::CoreSpeed of the loading and the refreshing client.
  double load_core_speed = 0;
  double refresh_core_speed = 0;
  std::vector<double> late_ms;  // open-loop generator lateness
  double history_bytes_per_row = 0;
  double data_bytes_per_row = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;  // first wrong answer or failed call

  /// Exact-repeat quantities for the determinism self-test.
  std::map<std::string, double> fingerprint;
  /// Per-layer metrics by catalog name (LayerCatalog); absent = 0, the
  /// workload does not exercise that layer.
  std::map<std::string, double> layer;

  bool ok() const { return error.empty() && failed == 0; }
  void Fail(const std::string& what) {
    if (error.empty()) error = what;
  }
  /// Counts one engine call; records the first non-OK status.
  bool Track(const cubrick::Status& status, const char* what);
};

/// Times one set-up. Its probe time is the harmonic mean of eight readings
/// right before it, eight right after it, and those taken during it.
class SetupTimer {
 public:
  SetupTimer();
  /// A probe reading during the set-up; its own time is not counted.
  void Read();
  /// Stops the clock and appends the set-up's time to run->setup_s (at the
  /// reference core speed) and run->setup_wall_s (as measured).
  void Stop(RunResult* run);

 private:
  std::vector<double> readings_;
  double probing_ms_ = 0;
  Clock::time_point start_;
};

/// The end-to-end metrics; timings at the reference core speed.
std::vector<Metric> EndToEnd(const RunResult& run);
/// Sample times at the reference core speed, and as measured.
std::vector<double> AdjustedMs(const std::vector<Sample>& samples);
std::vector<double> WallMs(const std::vector<Sample>& samples);

// --- Per-layer metrics -----------------------------------------------------

struct LayerSpec {
  const char* name;
  const char* unit;
};
/// Every per-layer metric the traced run reports, in print order.
const std::vector<LayerSpec>& LayerCatalog();

/// Registry counters read around each dashboard refresh, so the query.*
/// and pool numbers are per refresh even when other clients run.
struct RefreshCounters {
  uint64_t rows_scanned = 0;
  uint64_t bricks_scanned = 0;
  uint64_t bricks_pruned = 0;
  uint64_t words_scanned = 0;
  uint64_t simd_words = 0;
  uint64_t vis_hits = 0;
  uint64_t vis_misses = 0;
  uint64_t visibility_us = 0;
  uint64_t pool_tasks = 0;

  static RefreshCounters Read();
  void AddDelta(const RefreshCounters& after, const RefreshCounters& before);
};

/// Registry counters read once before and once after the measured script.
struct PhaseCounters {
  uint64_t dict_hits = 0;
  uint64_t dict_misses = 0;
  uint64_t group_appends = 0;
  uint64_t rows_flushed = 0;
  uint64_t flush_us = 0;
  uint64_t rpc_msgs = 0;
  cubrick::obs::HistogramSnapshot purge_pause;

  static PhaseCounters Read();
};

/// Spans and counters of one traced run, turned into catalog metrics.
struct LayerInputs {
  SpanSummary spans;
  RefreshCounters refresh;  // summed over refreshes
  PhaseCounters before;
  PhaseCounters after;
  uint64_t loads = 0;
  uint64_t rows_loaded = 0;
  uint64_t refreshes = 0;
  uint64_t rw_txns = 0;
  int64_t ebr_limbo_max = 0;
};
void FillLayers(const LayerInputs& in, RunResult* run);

/// Current value of the `ebr.limbo_bytes` gauge.
int64_t EbrLimboBytes();

// --- Single-node calls ----------------------------------------------------

/// Begin, ParseRecords and Table::Append of one single-node load, each in
/// its own span under `parent`. The caller commits: at once, or later for
/// the scan workload's pending transactions. Parses with the database's
/// `ingest_parallelism`, as Database::LoadIn does.
cubrick::Status BeginAndAppend(cubrick::Database& db,
                               const cubrick::DatabaseOptions& options,
                               const std::vector<Record>& rows,
                               const Span& parent, cubrick::aosi::Txn* txn);

/// Set-up loads: each op of `ops` in its own committed transaction,
/// untraced, mirrored into `model`, with a probe reading every 16 loads.
/// Stops at the first failure, which `run` records.
void SingleNodePreload(cubrick::Database& db,
                       const cubrick::DatabaseOptions& options, DataSet& data,
                       const std::vector<Op>& ops, CubeModel* model,
                       SetupTimer* timer, RunResult* run);

/// One dashboard refresh at a single RO snapshot: BeginReadOnly, the three
/// panels through QueryIn, EndReadOnly, each in its own span under `parent`.
cubrick::Status SingleNodeRefresh(cubrick::Database& db, const Dashboard& dash,
                                  const Span& parent, PanelResults* out);

RunResult RunIngest(const Args& args, bool traced);
RunResult RunScan(const Args& args, bool traced);
RunResult RunCluster(const Args& args, bool traced);

/// Number of times set-up is repeated in an untraced run (median reported).
/// The first set-up of a process also pays for the allocator's first page
/// faults, so the median needs a few more.
constexpr int kSetupRepeats = 5;

}  // namespace perfbench
