#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "common/random.h"

namespace perfbench {

using cubrick::AggSpec;
using cubrick::FilterClause;
using cubrick::QueryResult;

// --- Trace spans -----------------------------------------------------------

Span::Span(Tracer& tracer, uint32_t thread, const char* name)
    : tracer_(tracer), open_(tracer.enabled()) {
  if (!open_) return;
  record_.name = name;
  record_.thread = thread;
  record_.id = tracer.NextId(thread);
  record_.request = record_.id;
  record_.start = Clock::now();
}

Span::Span(const Span& parent, const char* name)
    : tracer_(parent.tracer_), open_(parent.tracer_.enabled()) {
  if (!open_) return;
  record_.name = name;
  record_.thread = parent.record_.thread;
  record_.id = tracer_.NextId(record_.thread);
  record_.parent = parent.record_.id;
  record_.request = parent.record_.request;
  record_.start = Clock::now();
}

void Span::End() {
  if (!open_) return;
  open_ = false;
  record_.end = Clock::now();
  tracer_.Add(record_);
}

std::vector<SpanRecord> Tracer::All() const {
  std::vector<SpanRecord> all;
  for (const auto& per_thread : spans_) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start < b.start;
            });
  return all;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<SpanRecord> all = All();
  const Clock::time_point origin =
      all.empty() ? Clock::time_point() : all.front().start;
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}",
                 i == 0 ? "" : ",", s.name, s.thread,
                 MsBetween(origin, s.start) * 1000.0,
                 MsBetween(s.start, s.end) * 1000.0,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

SpanSummary Summarize(const std::vector<SpanRecord>& spans) {
  SpanSummary summary;
  std::unordered_map<uint64_t, double> child_ms;
  for (const SpanRecord& s : spans) {
    const double ms = MsBetween(s.start, s.end);
    summary.durations_ms[s.name].push_back(ms);
    if (s.parent != 0) child_ms[s.parent] += ms;
  }
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) continue;
    const double ms = MsBetween(s.start, s.end);
    const auto it = child_ms.find(s.id);
    if (it == child_ms.end() || ms <= 0) continue;
    summary.unattributed_share[s.name].push_back(
        std::max(0.0, 1.0 - it->second / ms));
  }
  return summary;
}

double SpanSummary::TotalMs(const std::string& name) const {
  double total = 0;
  for (double ms : Durations(name)) total += ms;
  return total;
}

const std::vector<double>& SpanSummary::Durations(
    const std::string& name) const {
  static const std::vector<double> kNone;
  const auto it = durations_ms.find(name);
  return it == durations_ms.end() ? kNone : it->second;
}

// --- Core-speed adjustment -------------------------------------------------

double ProbeUs() {
  // A 4 KB table stays in L1, so a reading does not depend on what the
  // engine left in the caches. Each client thread has its own.
  thread_local std::vector<uint64_t> table(uint64_t{1} << 9);
  thread_local uint64_t a = 1, b = 2, c = 3, d = 4;
  const Clock::time_point start = Clock::now();
  for (uint64_t i = 0; i < 16384; ++i) {
    a = a * 0x9e3779b97f4a7c15ULL + i;
    b ^= b << 7;
    b ^= b >> 9;
    c += a ^ (b >> 3);
    d ^= c * 31;
    table[a >> 55] += b;
    table[c >> 55] ^= d;
  }
  const Clock::time_point end = Clock::now();
  table[0] += a ^ b ^ c ^ d;  // keeps the chains live
  return std::chrono::duration<double, std::micro>(end - start).count();
}

double HarmonicMean(const std::vector<double>& values) {
  double inverse = 0;
  for (double v : values) inverse += 1.0 / v;
  return values.empty() ? 0 : values.size() / inverse;
}

double HostProbe::LocalUs(size_t i) const {
  const size_t lo = i >= kWindow ? i - kWindow : 0;
  const size_t hi = std::min(readings_.size(), i + kWindow);
  return HarmonicMean(std::vector<double>(readings_.begin() + lo,
                                          readings_.begin() + hi));
}

void AdjustToReference(const HostProbe& probe, std::vector<Sample>* samples) {
  for (Sample& s : *samples) {
    s.ms = s.wall_ms * kReferenceProbeUs / probe.LocalUs(s.reading);
  }
}

namespace {
constexpr int kSetupReadings = 8;
}  // namespace

SetupTimer::SetupTimer() {
  for (int i = 0; i < kSetupReadings; ++i) readings_.push_back(ProbeUs());
  start_ = Clock::now();
}

void SetupTimer::Read() {
  const Clock::time_point start = Clock::now();
  readings_.push_back(ProbeUs());
  probing_ms_ += MsBetween(start, Clock::now());
}

void SetupTimer::Stop(RunResult* run) {
  const double wall_s =
      (MsBetween(start_, Clock::now()) - probing_ms_) / 1000.0;
  for (int i = 0; i < kSetupReadings; ++i) readings_.push_back(ProbeUs());
  run->setup_wall_s.push_back(wall_s);
  run->setup_s.push_back(wall_s * kReferenceProbeUs /
                         HarmonicMean(readings_));
}

// --- Sample statistics -----------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.size() <= Tail::kTailBeyond) return tail;
  std::sort(values.begin(), values.end());
  const size_t rank = values.size() - Tail::kTailBeyond;  // 1-based
  tail.value = values[rank - 1];
  tail.percentile = 100.0 * static_cast<double>(rank) /
                    static_cast<double>(values.size());
  return tail;
}

// --- Data set --------------------------------------------------------------

std::vector<cubrick::DimensionDef> SalesDimensions() {
  return {{"day", kDayCardinality, 1, false},
          {"region", kRegions, 8, true},
          {"product", kProducts, 32, false}};
}

std::vector<cubrick::MetricDef> SalesMetrics() {
  return {{"revenue", cubrick::DataType::kInt64},
          {"units", cubrick::DataType::kInt64}};
}

namespace {

std::string RegionName(size_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "region-%02zu", i);
  return buf;
}

}  // namespace

DataSet::DataSet(uint64_t seed, size_t pool_size, size_t batch_rows) {
  cubrick::Random rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  // The IN list: kInRegions distinct regions drawn by the seed.
  std::vector<bool> in(kRegions, false);
  while (in_regions_.size() < kInRegions) {
    const size_t r = rng.Uniform(kRegions);
    if (in[r]) continue;
    in[r] = true;
    in_regions_.push_back(RegionName(r));
  }
  std::vector<std::string> names;
  for (size_t r = 0; r < kRegions; ++r) names.push_back(RegionName(r));

  batches_.resize(pool_size);
  summaries_.resize(pool_size);
  for (size_t b = 0; b < pool_size; ++b) {
    std::vector<Record>& rows = batches_[b];
    BatchSummary& s = summaries_[b];
    rows.reserve(batch_rows);
    for (size_t i = 0; i < batch_rows; ++i) {
      const size_t region = rng.Uniform(kRegions);
      const size_t product = rng.Uniform(kProducts);
      const int64_t revenue = 1 + static_cast<int64_t>(rng.Uniform(10000));
      const int64_t units = 1 + static_cast<int64_t>(rng.Uniform(100));
      rows.push_back({int64_t{0}, names[region],
                      static_cast<int64_t>(product), revenue, units});
      const Agg row{1, revenue, units};
      s.total.Add(row);
      s.by_product[product].Add(row);
      if (in[region]) s.in_set.Add(row);
    }
  }
}

const std::vector<Record>& DataSet::Batch(size_t i, uint64_t day) {
  std::vector<Record>& rows = batches_[i];
  const cubrick::Value stamp(static_cast<int64_t>(day));
  for (Record& r : rows) r.values[kDimDay] = stamp;
  return rows;
}

// --- Dashboard and model ---------------------------------------------------

namespace {

cubrick::FilterClause DayRange() {
  FilterClause range;
  range.dim = kDimDay;
  range.op = FilterClause::Op::kRange;
  return range;
}

/// First day of the `days`-day range ending at `newest`.
uint64_t RangeStart(uint64_t newest, uint64_t days) {
  return newest + 1 >= days ? newest + 1 - days : 0;
}

}  // namespace

Dashboard Dashboard::Make(const cubrick::CubeSchema& schema,
                          const std::vector<std::string>& in_regions) {
  const std::vector<AggSpec> aggs = {{AggSpec::Fn::kSum, 0},
                                     {AggSpec::Fn::kCount, 0},
                                     {AggSpec::Fn::kSum, 1}};
  Dashboard d;
  d.agg.aggs = aggs;
  d.group.aggs = aggs;
  d.group.group_by = {kDimProduct};
  d.group.filters = {DayRange()};
  d.filter.aggs = aggs;
  d.filter.group_by = {kDimDay};
  FilterClause in;
  in.dim = kDimRegion;
  in.op = FilterClause::Op::kIn;
  for (const std::string& region : in_regions) {
    auto id = schema.dictionary(kDimRegion)->Encode(region);
    if (id.ok()) in.values.push_back(*id);
  }
  d.filter.filters = {in, DayRange()};
  return d;
}

void Dashboard::SetNewestDay(uint64_t day) {
  newest_day = day;
  group.filters[0].range_lo = RangeStart(day, kGroupDays);
  group.filters[0].range_hi = day;
  filter.filters[1].range_lo = RangeStart(day, kFilterDays);
  filter.filters[1].range_hi = day;
}

uint64_t Dashboard::group_first_day() const {
  return RangeStart(newest_day, kGroupDays);
}

Agg CubeModel::DaysTotal(uint64_t lo, uint64_t hi) const {
  Agg total;
  for (auto it = days_.lower_bound(lo); it != days_.end() && it->first <= hi;
       ++it) {
    total.Add(it->second.total);
  }
  return total;
}

void CubeModel::Load(uint64_t day, const BatchSummary& batch) {
  Day& d = days_[day];
  d.total.Add(batch.total);
  d.in_set.Add(batch.in_set);
  total_.Add(batch.total);
  for (size_t p = 0; p < kProducts; ++p) {
    d.by_product[p].Add(batch.by_product[p]);
  }
}

void CubeModel::DropDay(uint64_t day) {
  const auto it = days_.find(day);
  if (it == days_.end()) return;
  total_.Sub(it->second.total);
  days_.erase(it);
}

namespace {

Agg GroupAgg(const std::vector<cubrick::AggState>& states) {
  return {states[1].count, static_cast<int64_t>(states[0].sum),
          static_cast<int64_t>(states[2].sum)};
}

std::string Describe(const char* what, const Agg& want, const Agg& got) {
  char buf[224];
  std::snprintf(buf, sizeof(buf), "%s: want count=%llu sum=%lld units=%lld, "
                "got count=%llu sum=%lld units=%lld", what,
                static_cast<unsigned long long>(want.count),
                static_cast<long long>(want.sum),
                static_cast<long long>(want.units),
                static_cast<unsigned long long>(got.count),
                static_cast<long long>(got.sum),
                static_cast<long long>(got.units));
  return buf;
}

}  // namespace

Agg CubeModel::AggOf(const QueryResult& result) {
  if (result.empty()) return {};
  return GroupAgg(result.groups().begin()->second);
}

std::string CubeModel::Check(const Dashboard& dash,
                             const PanelResults& got) const {
  const Agg agg = AggOf(got.agg);
  if (!(agg == total_)) return Describe("agg panel", total_, agg);

  // Group panel: every product group of the recent days, exactly.
  std::array<Agg, kProducts> by_product{};
  for (auto it = days_.lower_bound(dash.group_first_day());
       it != days_.end() && it->first <= dash.newest_day; ++it) {
    for (size_t p = 0; p < kProducts; ++p) {
      by_product[p].Add(it->second.by_product[p]);
    }
  }
  size_t want_groups = 0;
  for (const Agg& a : by_product) want_groups += a.count > 0 ? 1 : 0;
  if (got.group.num_groups() != want_groups) {
    return "group panel: want " + std::to_string(want_groups) +
           " groups, got " + std::to_string(got.group.num_groups());
  }
  Agg group_total;
  for (const auto& [key, states] : got.group.groups()) {
    if (key.size() != 1 || key[0] >= kProducts) return "group panel: bad key";
    const Agg g = GroupAgg(states);
    if (!(g == by_product[key[0]])) {
      return Describe("group panel product", by_product[key[0]], g);
    }
    group_total.Add(g);
  }
  if (group_total.count > agg.count) {
    return Describe("group panel exceeds agg panel", agg, group_total);
  }

  // Filter panel: per-day rows of the IN-listed regions, recent days.
  size_t want_days = 0;
  for (auto it = days_.lower_bound(RangeStart(dash.newest_day,
                                              Dashboard::kFilterDays));
       it != days_.end() && it->first <= dash.newest_day; ++it) {
    if (it->second.in_set.count == 0) continue;
    ++want_days;
    const auto found = got.filter.groups().find({it->first});
    const Agg g = found == got.filter.groups().end() ? Agg{}
                                                     : GroupAgg(found->second);
    if (!(g == it->second.in_set)) {
      return Describe("filter panel day", it->second.in_set, g);
    }
  }
  if (got.filter.num_groups() != want_days) {
    return "filter panel: want " + std::to_string(want_days) +
           " day groups, got " + std::to_string(got.filter.num_groups());
  }
  return "";
}

// --- Op scripts ------------------------------------------------------------

std::vector<Op> PreloadScript(uint64_t days, size_t loads_per_day,
                              size_t pool_size, uint64_t seed) {
  cubrick::Random rng(seed ^ 0x51ed270b27a4f3c1ULL);
  std::vector<Op> ops;
  for (uint64_t d = 0; d < days; ++d) {
    for (size_t l = 0; l < loads_per_day; ++l) {
      ops.push_back({Op::Kind::kLoad, d, rng.Uniform(pool_size)});
    }
  }
  return ops;
}

std::vector<Op> RetentionScript(uint64_t window, uint64_t days,
                                size_t loads_per_day, size_t pool_size,
                                uint64_t seed) {
  cubrick::Random rng(seed ^ 0x2545f4914f6cdd1dULL);
  std::vector<Op> ops;
  for (uint64_t d = window; d < window + days; ++d) {
    ops.push_back({Op::Kind::kRetire, d - window, 0});
    for (size_t l = 0; l < loads_per_day; ++l) {
      ops.push_back({Op::Kind::kLoad, d, rng.Uniform(pool_size)});
    }
  }
  return ops;
}

// --- Results ---------------------------------------------------------------

bool RunResult::Track(const cubrick::Status& status, const char* what) {
  ++attempted;
  if (status.ok()) return true;
  ++failed;
  Fail(std::string(what) + ": " + status.ToString());
  return false;
}

std::vector<double> AdjustedMs(const std::vector<Sample>& samples) {
  std::vector<double> ms;
  for (const Sample& s : samples) ms.push_back(s.ms);
  return ms;
}

std::vector<double> WallMs(const std::vector<Sample>& samples) {
  std::vector<double> ms;
  for (const Sample& s : samples) ms.push_back(s.wall_ms);
  return ms;
}

std::vector<Metric> EndToEnd(const RunResult& run) {
  const std::vector<double> loads = AdjustedMs(run.loads);
  const std::vector<double> refreshes = AdjustedMs(run.refreshes);
  double load_phase_ms = 0;
  for (const Sample& s : run.loads) load_phase_ms += s.ms;
  for (const Sample& s : run.retires) load_phase_ms += s.ms;
  double service_ms = 0;
  for (const Sample& s : run.refresh_service) service_ms += s.ms;
  return {
      {"setup_s", Median(run.setup_s), "s"},
      {"load_rows_per_s",
       load_phase_ms > 0 ? run.rows_loaded / load_phase_ms * 1000.0 : 0,
       "rows/s"},
      {"load_p50_ms", Median(loads), "ms"},
      {"load_tail_ms", TailOf(loads).value, "ms"},
      {"refresh_per_s",
       service_ms > 0 ? run.refresh_service.size() / service_ms * 1000.0 : 0,
       "1/s"},
      {"refresh_p50_ms", Median(refreshes), "ms"},
      {"refresh_tail_ms", TailOf(refreshes).value, "ms"},
      {"history_bytes_per_row", run.history_bytes_per_row, "B/row"},
      {"data_bytes_per_row", run.data_bytes_per_row, "B/row"},
  };
}

}  // namespace perfbench
