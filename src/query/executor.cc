#include "query/executor.h"

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "aosi/checker_hook.h"
#include "aosi/vis_cache.h"
#include "aosi/visibility.h"
#include "common/ebr.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace cubrick {

namespace {

/// Per-brick scan instrumentation (docs/OBSERVABILITY.md, "query.*").
/// Resolved once; everything recorded at brick granularity so the row loop
/// itself stays untouched.
struct ScanInstruments {
  obs::Counter* bricks_scanned;
  obs::Counter* bricks_pruned;
  obs::Counter* rows_considered;
  obs::Counter* rows_scanned;
  obs::Histogram* bitmap_density_permille;
  obs::Histogram* visibility_us;
  obs::Histogram* filter_us;
  obs::Histogram* agg_us;
  obs::Histogram* worker_scan_us;
  obs::Histogram* parallel_merge_us;
  obs::Counter* vis_cache_hits;
  obs::Counter* vis_cache_misses;
  obs::Counter* vis_cache_evictions;
  obs::Counter* kernel_words_scanned;
  obs::Counter* kernel_words_skipped;
  obs::Counter* kernel_words_dense;
  obs::Histogram* kernel_dense_words_permille;
  obs::Counter* kernel_simd_words;
  obs::Counter* kernel_simd_fallback;
};

const ScanInstruments& Instruments() {
  static const ScanInstruments m = [] {
    auto& reg = obs::MetricsRegistry::Global();
    return ScanInstruments{
        reg.GetCounter("query.bricks_scanned"),
        reg.GetCounter("query.bricks_pruned"),
        reg.GetCounter("query.rows_considered"),
        reg.GetCounter("query.rows_scanned"),
        reg.GetHistogram("query.bitmap_density_permille"),
        reg.GetHistogram("query.visibility_us"),
        reg.GetHistogram("query.filter_us"),
        reg.GetHistogram("query.agg_us"),
        reg.GetHistogram("query.worker_scan_us"),
        reg.GetHistogram("query.parallel_merge_us"),
        reg.GetCounter("query.vis_cache_hits"),
        reg.GetCounter("query.vis_cache_misses"),
        reg.GetCounter("query.vis_cache_evictions"),
        reg.GetCounter("query.kernel_words_scanned"),
        reg.GetCounter("query.kernel_words_skipped"),
        reg.GetCounter("query.kernel_words_dense"),
        reg.GetHistogram("query.kernel_dense_words_permille"),
        reg.GetCounter("query.kernel_simd_words"),
        reg.GetCounter("query.kernel_simd_fallback"),
    };
  }();
  return m;
}

/// All 64 bits set — the "dense word" sentinel of the scan kernels. The
/// ragged last word of a bitmap never equals this (trailing bits are kept
/// zero), so dense fast paths never read past num_records.
constexpr uint64_t kDenseWord = ~0ULL;

/// Dense words per fold_int_run call: the ungrouped fold's word_sums
/// buffer. Longer dense runs fold in consecutive calls.
constexpr size_t kRunWords = 64;

/// One aggregate's metric read path, resolved once per brick. Both fold
/// passes branch on is_count/is_double once per word (or dense run), never
/// once per row. Int columns are read at their stored width through the
/// view: the ungrouped fold runs dense runs through fold_int_run and
/// gathers sparse words into an int64 buffer; the grouped fold widen-loads
/// each word's values straight into doubles.
struct MetricAccessor {
  bool is_count = false;
  bool is_double = false;
  IntColumnView ints;
  const double* doubles = nullptr;
};

std::vector<MetricAccessor> ResolveAccessors(const Brick& brick,
                                             const Query& query) {
  std::vector<MetricAccessor> accessors;
  accessors.reserve(query.aggs.size());
  for (const auto& agg : query.aggs) {
    MetricAccessor acc;
    if (agg.fn == AggSpec::Fn::kCount) {
      acc.is_count = true;
    } else {
      const MetricColumn& col = brick.metric(agg.metric);
      acc.is_double = col.type() == DataType::kDouble;
      acc.ints = col.ints();
      acc.doubles = col.doubles().data();
    }
    accessors.push_back(acc);
  }
  return accessors;
}

/// [lo, hi] coordinate interval dimension `dim` spans inside `brick`.
void BrickDimBounds(const Brick& brick, size_t dim, uint64_t* lo,
                    uint64_t* hi) {
  const auto& def = brick.schema().dimensions()[dim];
  const uint64_t range_idx = brick.schema().RangeIndexOf(brick.bid(), dim);
  *lo = range_idx * def.range_size;
  const uint64_t end = *lo + def.range_size - 1;
  const uint64_t max_coord = def.cardinality - 1;
  *hi = end < max_coord ? end : max_coord;
}

/// The grouped fold's per-brick slot table: one slot per distinct tuple of
/// the group-by dimensions' in-brick offsets (what BessColumn stores,
/// coord - BrickDimBounds lo), each slot holding one AggState per agg.
///
/// Slots live densely in first-seen order; an open-addressed index of
/// power-of-two capacity maps a tuple's packed key to its slot. The packed
/// key reads the tuple mixed-radix over the dimensions' in-brick spans. It
/// identifies the tuple unless the spans' product overflows 64 bits; then
/// it wraps into a mere hash and slots also compare the whole tuple. When
/// the product is small next to the rows to fold, the index covers it and
/// probes by identity, so no two tuples ever collide; otherwise it hashes
/// the packed key (Fibonacci) and doubles at half load. Memory is therefore
/// O(min(span product, visible rows)) whatever the dimensions' widths.
class GroupSlotTable {
 public:
  /// Rows per call of FindSlots: one bitmap word.
  static constexpr size_t kMaxRows = 64;

  /// `spans[g]` is group dimension g's in-brick span; `max_rows` bounds the
  /// number of rows (hence distinct tuples) the brick will fold.
  GroupSlotTable(const std::vector<uint64_t>& spans, size_t num_aggs,
                 uint64_t max_rows)
      : num_dims_(spans.size()), num_aggs_(num_aggs), strides_(num_dims_) {
    uint64_t product = 1;
    bool overflow = false;
    for (size_t g = 0; g < num_dims_; ++g) {
      strides_[g] = product;
      overflow |= __builtin_mul_overflow(product, spans[g], &product);
    }
    exact_ = !overflow;
    direct_ = exact_ && product <= std::max<uint64_t>(kMinHashedCapacity,
                                                      2 * max_rows);
    size_t capacity = direct_ ? 1 : kMinHashedCapacity;
    while (direct_ && capacity < product) capacity *= 2;
    Rebuild(capacity);
  }

  /// Writes the slots of `n` <= kMaxRows rows to `slot_of`, claiming a slot
  /// with fresh AggStates on a tuple's first row. `offsets[g * kMaxRows +
  /// i]` is group dimension g's offset for row i.
  void FindSlots(const uint64_t* offsets, size_t n, uint32_t* slot_of) {
    Reserve(n);
    uint64_t packed[kMaxRows] = {};
    for (size_t g = 0; g < num_dims_; ++g) {
      for (size_t i = 0; i < n; ++i) {
        packed[i] += offsets[g * kMaxRows + i] * strides_[g];
      }
    }
    for (size_t i = 0; i < n; ++i) slot_of[i] = Find(packed[i], offsets + i);
  }

  size_t num_slots() const { return num_slots_; }
  const uint64_t* key(uint32_t slot) const {
    return keys_.data() + size_t{slot} * num_dims_;
  }
  /// Slot `slot`'s states, one per agg. Valid until the next FindSlots.
  AggState* states(uint32_t slot) {
    return states_.data() + size_t{slot} * num_aggs_;
  }

 private:
  /// Smallest hashed index: one word's rows fit at half load.
  static constexpr uint64_t kMinHashedCapacity = 2 * kMaxRows;
  static constexpr uint64_t kFibonacci = 0x9E3779B97F4A7C15ULL;

  /// Makes room for `rows` more tuples before a word's lookups, so the index
  /// never grows halfway through a word. A no-op on an identity index,
  /// which already has a position for every possible tuple.
  void Reserve(size_t rows) {
    if (direct_ || 2 * (num_slots_ + rows) <= index_.size()) return;
    size_t capacity = index_.size();
    while (2 * (num_slots_ + rows) > capacity) capacity *= 2;
    Rebuild(capacity);
  }

  /// `row_offsets[g * kMaxRows]` is the row's offset in group dimension g.
  uint32_t Find(uint64_t packed, const uint64_t* row_offsets) {
    for (size_t pos = Position(packed);; pos = (pos + 1) & mask_) {
      const uint32_t entry = index_[pos];
      if (entry == 0) return Claim(pos, packed, row_offsets);
      const uint32_t slot = entry - 1;
      if (packed_[slot] == packed &&
          (exact_ || SameTuple(key(slot), row_offsets))) {
        return slot;
      }
    }
  }

  bool SameTuple(const uint64_t* key, const uint64_t* row_offsets) const {
    for (size_t g = 0; g < num_dims_; ++g) {
      if (key[g] != row_offsets[g * kMaxRows]) return false;
    }
    return true;
  }

  /// Identity index: mult 1, shift 0 (packed < capacity). Hashed index:
  /// the top log2(capacity) bits of packed * 2^64/phi.
  size_t Position(uint64_t packed) const {
    return static_cast<size_t>((packed * mult_) >> shift_);
  }

  uint32_t Claim(size_t pos, uint64_t packed, const uint64_t* row_offsets) {
    CUBRICK_CHECK(num_slots_ < UINT32_MAX);
    const auto slot = static_cast<uint32_t>(num_slots_++);
    index_[pos] = slot + 1;
    packed_.push_back(packed);
    for (size_t g = 0; g < num_dims_; ++g) {
      keys_.push_back(row_offsets[g * kMaxRows]);
    }
    states_.resize(states_.size() + num_aggs_);
    return slot;
  }

  void Rebuild(size_t capacity) {
    index_.assign(capacity, 0);
    mask_ = capacity - 1;
    mult_ = direct_ ? 1 : kFibonacci;
    shift_ = direct_ ? 0
                     : 64 - static_cast<unsigned>(__builtin_ctzll(capacity));
    for (uint32_t slot = 0; slot < num_slots_; ++slot) {
      size_t pos = Position(packed_[slot]);
      while (index_[pos] != 0) pos = (pos + 1) & mask_;
      index_[pos] = slot + 1;
    }
  }

  size_t num_dims_;
  size_t num_aggs_;
  /// Mixed-radix place values of the group dimensions (wrapping).
  std::vector<uint64_t> strides_;
  /// The packed key identifies the tuple (the spans' product fits).
  bool exact_ = false;
  bool direct_ = false;
  uint64_t mult_ = 1;
  unsigned shift_ = 0;
  size_t mask_ = 0;
  size_t num_slots_ = 0;
  /// `capacity` entries: 0 = empty, else slot + 1.
  std::vector<uint32_t> index_;
  /// Per slot: its packed key, its tuple (num_dims offsets) and its states
  /// (num_aggs), slot-major.
  std::vector<uint64_t> packed_;
  std::vector<uint64_t> keys_;
  std::vector<AggState> states_;
};

}  // namespace

bool BrickIntersectsFilters(const Brick& brick, const Query& query) {
  for (const auto& filter : query.filters) {
    uint64_t lo = 0, hi = 0;
    BrickDimBounds(brick, filter.dim, &lo, &hi);
    if (!filter.Intersects(lo, hi)) return false;
  }
  return true;
}

bool BrickCoveredByFilters(const Brick& brick, const Query& query) {
  for (const auto& filter : query.filters) {
    uint64_t lo = 0, hi = 0;
    BrickDimBounds(brick, filter.dim, &lo, &hi);
    if (!filter.Covers(lo, hi)) return false;
  }
  return true;
}

void ScanPlanStats::PublishTo(obs::MetricsRegistry& reg) const {
  // EXPLAIN is interactive, not a hot path; no instrument caching.
  reg.GetCounter("query.explain.bricks_total")->Add(bricks_total);
  reg.GetCounter("query.explain.bricks_pruned")->Add(bricks_pruned);
  reg.GetCounter("query.explain.bricks_scanned")->Add(bricks_scanned);
  reg.GetCounter("query.explain.filters_skipped_covered")
      ->Add(filters_skipped_covered);
  reg.GetCounter("query.explain.rows_considered")->Add(rows_considered);
}

void ExplainBrick(const Brick& brick, const Query& query,
                  ScanPlanStats* stats) {
  ++stats->bricks_total;
  if (brick.num_records() == 0 || !BrickIntersectsFilters(brick, query)) {
    ++stats->bricks_pruned;
    return;
  }
  ++stats->bricks_scanned;
  stats->rows_considered += brick.num_records();
  for (const auto& filter : query.filters) {
    uint64_t lo = 0, hi = 0;
    BrickDimBounds(brick, filter.dim, &lo, &hi);
    if (filter.Covers(lo, hi)) {
      ++stats->filters_skipped_covered;
    }
  }
}

VisibilityRef VisibilityForScan(const Brick& brick,
                                const aosi::Snapshot& snapshot, ScanMode mode,
                                bool use_cache) {
  // Defensive pin: scan entry points hold their own Guard, but helpers and
  // tests call this directly; nesting is a thread-local counter bump.
  const ebr::Guard guard;
  const bool ru = mode == ScanMode::kReadUncommitted;
  if (!use_cache) {
    return VisibilityRef(
        ru ? aosi::BuildReadUncommittedBitmap(brick.history())
           : aosi::BuildVisibilityBitmap(brick.history(), snapshot));
  }
  const ScanInstruments& ins = Instruments();
  aosi::VisibilityCache& cache = brick.vis_cache();
  const aosi::VisKey key =
      aosi::VisibilityCache::MakeKey(brick.history(), snapshot, ru);
  if (const Bitmap* hit = cache.Lookup(key)) {
    ins.vis_cache_hits->Add();
    return VisibilityRef(hit);
  }
  ins.vis_cache_misses->Add();
  Bitmap built = ru ? aosi::BuildReadUncommittedBitmap(brick.history())
                    : aosi::BuildVisibilityBitmap(brick.history(), snapshot);
  const auto outcome = cache.Publish(key, &built);
  if (outcome.evicted) ins.vis_cache_evictions->Add();
  return VisibilityRef(outcome.published);
}

void ScanBrick(const Brick& brick, const aosi::Snapshot& snapshot,
               ScanMode mode, const Query& query, QueryResult* result,
               bool use_cache) {
  // Reclamation pin for the whole brick scan: the visibility bitmap served
  // from the cache — and any history Rep a concurrent compaction displaces —
  // stays readable until this guard dies.
  const ebr::Guard guard;
  const ScanInstruments& ins = Instruments();
  if (brick.num_records() == 0 || !BrickIntersectsFilters(brick, query)) {
    ins.bricks_pruned->Add();
    return;
  }
  ins.bricks_scanned->Add();
  ins.rows_considered->Add(brick.num_records());

  // Concurrency-control pass: one bitmap per brick, memoized in the
  // brick's VisibilityCache when enabled.
  obs::ObsSpan cc_span("query.visibility", ins.visibility_us);
  VisibilityRef visible = VisibilityForScan(brick, snapshot, mode, use_cache);
  cc_span.Finish();
  const Bitmap* mask = &visible.bitmap();

  // Online-checker observation point (docs/CHECKING.md): report what this
  // SI scan's visibility mask admitted per epoch run, BEFORE the filter
  // pass narrows it and before the None() fast path skips empty bricks.
  // Cost when no hook is installed: one relaxed load.
  if (mode == ScanMode::kSnapshotIsolation) {
    if (aosi::CheckerHook* hook = aosi::GetCheckerHook();
        hook != nullptr && hook->ShouldSample(snapshot.epoch)) {
      // Bounded on purpose: the checker keeps at most kMaxObservedRuns
      // runs per sample, so decoding and popcounting a long history past
      // that bound would make sampled scans O(history) instead of O(1).
      bool truncated = false;
      const auto decoded =
          brick.history().DecodePrefix(aosi::kMaxObservedRuns, &truncated);
      std::vector<aosi::ObservedRun> observed;
      observed.reserve(decoded.size());
      for (const auto& run : decoded) {
        aosi::ObservedRun o;
        o.epoch = run.epoch;
        o.begin = run.begin;
        o.end = run.end;
        o.is_delete = run.is_delete;
        o.visible_rows =
            run.is_delete ? 0 : mask->CountSetInRange(run.begin, run.end);
        observed.push_back(o);
      }
      aosi::ScanObservation obs;
      obs.snapshot_epoch = snapshot.epoch;
      obs.deps = &snapshot.deps;
      obs.bid = brick.bid();
      obs.history_version = brick.history().version();
      obs.runs = observed.data();
      obs.num_runs = observed.size();
      obs.runs_truncated = truncated;
      obs.visible_total = mask->CountSet();
      hook->OnScanObservation(obs);
    }
  }
  if (mask->None()) return;

  // Filter pass: clear bits that fail a dimension predicate. Filters whose
  // clause already covers the brick's whole range are skipped (common with
  // range predicates aligned to granular partitioning). The pass is
  // copy-on-write: the visibility bitmap may be shared cache state, so the
  // first filter needing row work takes a private copy; fully-covered
  // queries never copy at all. Word-wise kernel: zero words are skipped,
  // dense words bulk-decode 64 coordinates and run the backend's
  // compare-to-bitmask kernel (common/simd.h), sparse words enumerate set
  // bits with ctz (integer-exact, so no cross-backend concern).
  obs::ObsSpan filter_span("query.filter", ins.filter_us);
  const simd::Kernels& kern = simd::ActiveKernels();
  const bool simd_active = kern.backend != simd::Backend::kScalar;
  uint64_t words_simd = 0;
  uint64_t words_fallback = 0;
  Bitmap filtered;
  for (const auto& filter : query.filters) {
    uint64_t lo = 0, hi = 0;
    BrickDimBounds(brick, filter.dim, &lo, &hi);
    if (filter.Covers(lo, hi)) continue;
    if (mask != &filtered) {
      filtered = *mask;
      mask = &filtered;
    }
    const size_t num_words = filtered.num_words();
    uint64_t coords[64];
    for (size_t w = 0; w < num_words; ++w) {
      const uint64_t word = filtered.Word(w);
      if (word == 0) continue;
      const size_t base = w * 64;
      uint64_t out = word;
      if (word == kDenseWord) {
        // Dense words never overlap the ragged tail (SetWord masks trailing
        // bits), so decoding 64 consecutive rows is always in bounds.
        brick.DecodeDimCoords(base, 64, filter.dim, coords);
        switch (filter.op) {
          case FilterClause::Op::kEq:
            out = kern.filter_eq(coords, filter.values[0]);
            break;
          case FilterClause::Op::kRange:
            out = kern.filter_range(coords, filter.range_lo, filter.range_hi);
            break;
          case FilterClause::Op::kIn:
            out = kern.filter_in(coords, filter.values.data(),
                                 filter.values.size());
            break;
        }
        ++(simd_active ? words_simd : words_fallback);
      } else {
        uint64_t bits = word;
        while (bits != 0) {
          const size_t b = static_cast<size_t>(__builtin_ctzll(bits));
          bits &= bits - 1;
          if (!filter.Matches(brick.DimCoord(base + b, filter.dim))) {
            out &= ~(1ULL << b);
          }
        }
        ++words_fallback;
      }
      if (out != word) filtered.SetWord(w, out);
    }
  }
  filter_span.Finish();

  // Aggregation pass, word-wise over the final mask. Ungrouped folds run
  // through the typed SIMD kernels: the is_count/is_double dispatch happens
  // once per word or dense run (not once per row). A maximal run of dense
  // words folds an int column at its stored width through fold_int_run
  // (per-word sums, one min/max reduce per run) and a double column word by
  // word through fold_double; sparse words ctz-compress the visible rows'
  // values into a gather buffer (pure data movement, identical on every
  // backend) and fold that. The fold order is the pinned contract in
  // common/simd.h, so result bits are identical whichever backend runs —
  // proved by tests/simd_kernel_test.cc.
  obs::ObsSpan agg_span("query.aggregate", ins.agg_us);
  const std::vector<MetricAccessor> accessors = ResolveAccessors(brick, query);
  const size_t num_words = mask->num_words();
  uint64_t rows_aggregated = 0;
  uint64_t words_skipped = 0;
  uint64_t words_dense = 0;
  if (query.group_by.empty()) {
    // Ungrouped fast path: fold the whole brick into local states (no map
    // walk anywhere in the loop), merge once at the end.
    bool need_values = false;
    for (const auto& acc : accessors) {
      if (!acc.is_count) need_values = true;
    }
    std::vector<AggState> locals(query.aggs.size());
    size_t rows[64];
    int64_t ibuf[64];
    double dbuf[64];
    uint64_t word_sums[kRunWords];
    // Folds one word's (or dense run's) int sums, in word order: each exact
    // wrapping word sum converts to double exactly once.
    const auto fold_int_sums = [](AggState& st, const uint64_t* sums,
                                  size_t num_sums, uint64_t num_rows,
                                  int64_t mn, int64_t mx) {
      for (size_t i = 0; i < num_sums; ++i) {
        st.sum += static_cast<double>(static_cast<int64_t>(sums[i]));
      }
      st.count += num_rows;
      const double mnd = static_cast<double>(mn);
      const double mxd = static_cast<double>(mx);
      if (mnd < st.min) st.min = mnd;
      if (mxd > st.max) st.max = mxd;
    };
    const auto fold_double_word = [&kern](AggState& st, const double* v,
                                          uint64_t n) {
      double s, mn, mx;
      kern.fold_double(v, n, &s, &mn, &mx);
      st.sum += s;
      st.count += n;
      if (mn < st.min) st.min = mn;
      if (mx > st.max) st.max = mx;
    };
    for (size_t w = 0; w < num_words;) {
      const uint64_t word = mask->Word(w);
      if (word == 0) {
        ++words_skipped;
        ++w;
        continue;
      }
      const size_t base = w * 64;
      if (word == kDenseWord) {
        // A run of up to kRunWords dense words.
        size_t end = w + 1;
        while (end < num_words && end - w < kRunWords &&
               mask->Word(end) == kDenseWord) {
          ++end;
        }
        const size_t k = end - w;
        const uint64_t run_rows = 64 * k;
        rows_aggregated += run_rows;
        words_dense += k;
        for (size_t a = 0; a < accessors.size(); ++a) {
          const MetricAccessor& acc = accessors[a];
          AggState& st = locals[a];
          if (acc.is_count) {
            // COUNT needs no row values; the sum stays an exact integer.
            st.AccumulateRepeated(1.0, run_rows);
          } else if (acc.is_double) {
            for (size_t i = 0; i < k; ++i) {
              fold_double_word(st, acc.doubles + base + 64 * i, 64);
            }
          } else {
            int64_t mn, mx;
            kern.fold_int_run(acc.ints.At(base), acc.ints.width, k, word_sums,
                              &mn, &mx);
            fold_int_sums(st, word_sums, k, run_rows, mn, mx);
          }
        }
        if (need_values) (simd_active ? words_simd : words_fallback) += k;
        w = end;
        continue;
      }
      const auto word_rows =
          static_cast<uint64_t>(__builtin_popcountll(word));
      rows_aggregated += word_rows;
      size_t num_rows = 0;
      if (need_values) {
        // Compress the visible row indexes once; every accessor gathers
        // from the same list.
        uint64_t bits = word;
        while (bits != 0) {
          const size_t b = static_cast<size_t>(__builtin_ctzll(bits));
          bits &= bits - 1;
          rows[num_rows++] = base + b;
        }
      }
      for (size_t a = 0; a < accessors.size(); ++a) {
        const MetricAccessor& acc = accessors[a];
        AggState& st = locals[a];
        if (acc.is_count) {
          // COUNT needs no row values: one popcount per word.
          st.AccumulateRepeated(1.0, word_rows);
        } else if (acc.is_double) {
          for (size_t i = 0; i < num_rows; ++i) dbuf[i] = acc.doubles[rows[i]];
          fold_double_word(st, dbuf, word_rows);
        } else {
          acc.ints.Gather(rows, num_rows, ibuf);
          uint64_t s;
          int64_t mn, mx;
          kern.fold_int64(ibuf, word_rows, &s, &mn, &mx);
          fold_int_sums(st, &s, 1, word_rows, mn, mx);
        }
      }
      if (need_values) ++(simd_active ? words_simd : words_fallback);
      ++w;
    }
    if (rows_aggregated > 0) {
      result->MergeGroup(QueryResult::GroupKey(), locals.data());
    }
  } else {
    // Grouped path: fold each row into its slot of a per-brick GroupSlotTable
    // keyed by the group dimensions' in-brick offsets, then merge each used
    // slot into `result` once. Per word, the slots are found first (dense
    // words bulk-decode 64 offsets per group dimension; sparse words
    // ctz-enumerate their rows), then each aggregate folds the word's rows
    // into their slots in row order, with the is_count/is_double dispatch
    // once per word. Every slot starts from a fresh AggState, so the result
    // equals a per-row fold into an empty group (the pinned row order). The
    // fold is scalar, so every word here counts as kernel_simd_fallback.
    const size_t num_dims = query.group_by.size();
    const size_t num_aggs = accessors.size();
    std::vector<uint64_t> lo(num_dims);
    std::vector<uint64_t> spans(num_dims);
    for (size_t g = 0; g < num_dims; ++g) {
      uint64_t hi = 0;
      BrickDimBounds(brick, query.group_by[g], &lo[g], &hi);
      spans[g] = hi - lo[g] + 1;
    }
    GroupSlotTable table(spans, num_aggs, mask->CountSet());
    const BessColumn& bess = brick.bess();
    std::vector<uint64_t> offsets(num_dims * 64);
    uint32_t slot_of[64];
    size_t rows[64];
    double vals[64];
    for (size_t w = 0; w < num_words; ++w) {
      const uint64_t word = mask->Word(w);
      if (word == 0) {
        ++words_skipped;
        continue;
      }
      ++words_fallback;
      const size_t base = w * 64;
      const bool dense = word == kDenseWord;
      size_t n = 0;
      if (dense) {
        ++words_dense;
        n = 64;
        for (size_t g = 0; g < num_dims; ++g) {
          bess.DecodeDim(base, 64, query.group_by[g], &offsets[g * 64]);
        }
      } else {
        uint64_t bits = word;
        while (bits != 0) {
          const size_t b = static_cast<size_t>(__builtin_ctzll(bits));
          bits &= bits - 1;
          rows[n++] = base + b;
        }
        for (size_t g = 0; g < num_dims; ++g) {
          for (size_t i = 0; i < n; ++i) {
            offsets[g * 64 + i] = bess.Get(rows[i], query.group_by[g]);
          }
        }
      }
      rows_aggregated += n;
      table.FindSlots(offsets.data(), n, slot_of);
      for (size_t a = 0; a < num_aggs; ++a) {
        const MetricAccessor& acc = accessors[a];
        const double* v = vals;
        if (acc.is_count) {
          std::fill(vals, vals + n, 1.0);
        } else if (acc.is_double && dense) {
          v = acc.doubles + base;
        } else if (acc.is_double) {
          for (size_t i = 0; i < n; ++i) vals[i] = acc.doubles[rows[i]];
        } else {
          // Widen-load at the stored width: one width dispatch per word.
          acc.ints.Visit([&](const auto* iv) {
            if (dense) {
              for (size_t i = 0; i < 64; ++i) {
                vals[i] = static_cast<double>(iv[base + i]);
              }
            } else {
              for (size_t i = 0; i < n; ++i) {
                vals[i] = static_cast<double>(iv[rows[i]]);
              }
            }
          });
        }
        // Runs of rows sharing a slot fold in a register copy of its state;
        // the adds are the same, in the same order, as folding in place.
        for (size_t i = 0; i < n;) {
          const uint32_t slot = slot_of[i];
          AggState& dst = table.states(slot)[a];
          AggState st = dst;
          do {
            st.Accumulate(v[i++]);
          } while (i < n && slot_of[i] == slot);
          dst = st;
        }
      }
    }
    QueryResult::GroupKey key(num_dims);
    for (uint32_t slot = 0; slot < table.num_slots(); ++slot) {
      for (size_t g = 0; g < num_dims; ++g) key[g] = lo[g] + table.key(slot)[g];
      result->MergeGroup(key, table.states(slot));
    }
  }
  agg_span.Finish();
  ins.kernel_words_scanned->Add(num_words);
  ins.kernel_words_skipped->Add(words_skipped);
  ins.kernel_words_dense->Add(words_dense);
  ins.kernel_simd_words->Add(words_simd);
  ins.kernel_simd_fallback->Add(words_fallback);
  if (num_words > 0) {
    ins.kernel_dense_words_permille->Record(words_dense * 1000 / num_words);
  }
  ins.rows_scanned->Add(rows_aggregated);
  // Post-CC+filter visibility density of this brick, in rows per thousand:
  // how much of the brick the snapshot (and filters) let through. A
  // histogram (not a gauge): concurrent morsel workers each record their
  // own brick, and the distribution is what the density is for.
  ins.bitmap_density_permille->Record(rows_aggregated * 1000 /
                                      brick.num_records());
}

std::vector<const Brick*> PlanMorsels(
    const std::vector<const Brick*>& candidates, const Query& query) {
  const ScanInstruments& ins = Instruments();
  std::vector<const Brick*> morsels;
  morsels.reserve(candidates.size());
  for (const Brick* brick : candidates) {
    if (brick->num_records() == 0 || !BrickIntersectsFilters(*brick, query)) {
      // Same prune accounting as the serial ScanBrick fast path; pruned
      // bricks never become tasks, so the pool only sees real work.
      ins.bricks_pruned->Add();
      continue;
    }
    morsels.push_back(brick);
  }
  return morsels;
}

std::vector<QueryResult> ScanMorsels(const std::vector<const Brick*>& morsels,
                                     const aosi::Snapshot& snapshot,
                                     ScanMode mode, const Query& query,
                                     ThreadPool* pool, size_t parallelism,
                                     bool use_cache) {
  const ScanInstruments& ins = Instruments();
  // One slot per morsel: which worker scans a brick never shows in the
  // result, because MergePartials folds the slots in morsel order.
  std::vector<QueryResult> partials(morsels.size(),
                                    QueryResult(query.aggs.size()));
  const size_t workers = std::min(std::max<size_t>(parallelism, 1),
                                  std::max<size_t>(morsels.size(), 1));
  if (workers == 1 || pool == nullptr) {
    for (size_t i = 0; i < morsels.size(); ++i) {
      ScanBrick(*morsels[i], snapshot, mode, query, &partials[i], use_cache);
    }
    return partials;
  }

  std::atomic<size_t> next{0};
  auto scan_worker = [&] {
    obs::ObsSpan span("query.worker_scan", ins.worker_scan_us);
    while (true) {
      // The brick data itself was published to the pool threads by the
      // task-handoff mutexes in ThreadPool::Submit/PopTask, and the slots
      // back to the caller by TaskGroup::Wait.
      // relaxed: the ticket only partitions disjoint morsels; no data rides on it
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= morsels.size()) break;
      ScanBrick(*morsels[i], snapshot, mode, query, &partials[i], use_cache);
    }
  };

  TaskGroup group(pool);
  for (size_t w = 1; w < workers; ++w) {
    group.Run(scan_worker);
  }
  scan_worker();  // the calling thread is always a worker
  group.Wait();
  return partials;
}

QueryResult MergePartials(std::vector<QueryResult> partials,
                          size_t num_aggs) {
  const ScanInstruments& ins = Instruments();
  obs::ObsSpan span("query.parallel_merge", ins.parallel_merge_us);
  QueryResult result(num_aggs);
  for (const QueryResult& partial : partials) {
    result.Merge(partial);
  }
  return result;
}

}  // namespace cubrick
