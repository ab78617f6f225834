// Differential test of the grouped scan kernel (ScanBrick's per-brick slot
// table). The reference is an independent row-at-a-time fold: for every
// brick, walk the visibility bitmap row by row, apply the filters through
// Brick::DimCoord and fold each row into a fresh per-brick QueryResult with
// QueryResult::Accumulate, then merge the bricks in scan order and the
// shards in shard order. Table::Scan must match it bit for bit: every
// group, and every aggregate's sum, count, min and max.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "aosi/visibility.h"
#include "engine/table.h"
#include "ingest/parser.h"

namespace cubrick {
namespace {

// Dimensions: a and b are small mixed-radix spans (b's second range is
// clamped to 4 by its cardinality), c spans 2^20 per brick, d has zero
// width (range_size 1).
constexpr size_t kDimA = 0;
constexpr size_t kDimB = 1;
constexpr size_t kDimC = 2;
constexpr size_t kDimD = 3;
constexpr uint64_t kWideRange = uint64_t{1} << 20;

std::shared_ptr<CubeSchema> MakeSchema() {
  return CubeSchema::Make("grid",
                          {{"a", 64, 32, false},
                           {"b", 12, 8, false},
                           {"c", 2 * kWideRange, kWideRange, false},
                           {"d", 2, 1, false}},
                          {{"n", DataType::kInt64}, {"x", DataType::kDouble}})
      .value();
}

/// Rows with d == 0 draw c from a handful of values spread over both wide
/// ranges; rows with d == 1 draw it uniformly, so their bricks hold
/// hundreds of distinct wide coordinates.
std::vector<Record> RandomRecords(std::mt19937_64& rng, size_t count) {
  static constexpr uint64_t kFewC[] = {0,           77,
                                       kWideRange / 2, kWideRange - 1,
                                       kWideRange + 5, 2 * kWideRange - 1};
  static constexpr double kSpread[] = {1e16, -1e16, 1.0, -0.0, 0.1, 3.5};
  std::vector<Record> records;
  records.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const auto d = static_cast<int64_t>(rng() % 2);
    const auto c = static_cast<int64_t>(
        d == 0 ? kFewC[rng() % std::size(kFewC)] : rng() % (2 * kWideRange));
    int64_t n = static_cast<int64_t>(rng() % 2001) - 1000;
    if (rng() % 16 == 0) n *= int64_t{1} << 30;
    double x = kSpread[rng() % std::size(kSpread)];
    if (rng() % 4 == 0) x = 1.0 / static_cast<double>(1 + rng() % 97);
    records.push_back({static_cast<int64_t>(rng() % 64),
                       static_cast<int64_t>(rng() % 12), c, d, n, x});
  }
  return records;
}

/// Every aggregate function over both metrics.
std::vector<AggSpec> AllAggs() {
  std::vector<AggSpec> aggs = {{AggSpec::Fn::kCount, 0}};
  for (size_t m : {0, 1}) {
    for (auto fn : {AggSpec::Fn::kSum, AggSpec::Fn::kMin, AggSpec::Fn::kMax,
                    AggSpec::Fn::kAvg}) {
      aggs.push_back({fn, m});
    }
  }
  return aggs;
}

/// The reference fold described at the top of this file.
QueryResult ReferenceScan(Table& table, const aosi::Snapshot& snapshot,
                          ScanMode mode, const Query& query) {
  const size_t num_aggs = query.aggs.size();
  std::vector<QueryResult> shards(table.num_shards(), QueryResult(num_aggs));
  table.VisitBricks([&](const Brick& brick) {
    const Bitmap visible =
        mode == ScanMode::kReadUncommitted
            ? aosi::BuildReadUncommittedBitmap(brick.history())
            : aosi::BuildVisibilityBitmap(brick.history(), snapshot);
    QueryResult partial(num_aggs);
    QueryResult::GroupKey key(query.group_by.size());
    for (uint64_t row = 0; row < brick.num_records(); ++row) {
      if (!visible.Get(row)) continue;
      bool match = true;
      for (const FilterClause& f : query.filters) {
        match = match && f.Matches(brick.DimCoord(row, f.dim));
      }
      if (!match) continue;
      for (size_t g = 0; g < key.size(); ++g) {
        key[g] = brick.DimCoord(row, query.group_by[g]);
      }
      for (size_t a = 0; a < num_aggs; ++a) {
        const AggSpec& agg = query.aggs[a];
        double value = 1.0;
        if (agg.fn != AggSpec::Fn::kCount) {
          const MetricColumn& col = brick.metric(agg.metric);
          value = col.type() == DataType::kDouble
                      ? col.doubles()[row]
                      : static_cast<double>(col.GetInt64(row));
        }
        partial.Accumulate(key, a, value);
      }
    }
    shards[table.ShardOf(brick.bid())].Merge(partial);
  });
  QueryResult total(num_aggs);
  for (const QueryResult& shard : shards) total.Merge(shard);
  return total;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Reports the first group or aggregate state whose bits differ.
void ExpectBitIdentical(const QueryResult& want, const QueryResult& got) {
  ASSERT_EQ(want.num_groups(), got.num_groups());
  for (const auto& [key, states] : want.groups()) {
    const auto it = got.groups().find(key);
    ASSERT_NE(it, got.groups().end()) << "missing group";
    for (size_t a = 0; a < states.size(); ++a) {
      const AggState& w = states[a];
      const AggState& g = it->second[a];
      EXPECT_TRUE(SameBits(w.sum, g.sum) && w.count == g.count &&
                  SameBits(w.min, g.min) && SameBits(w.max, g.max))
          << "agg " << a << ": sum " << w.sum << " vs " << g.sum << ", count "
          << w.count << " vs " << g.count << ", min " << w.min << " vs "
          << g.min << ", max " << w.max << " vs " << g.max;
    }
  }
}

class GroupedKernelTest : public ::testing::TestWithParam<bool> {
 protected:
  // Thirty small loads: even epochs up to 20 stay pending in the SI
  // snapshot, so visible rows alternate in short runs (sparse words) while
  // the committed stretches give dense words; bricks end in ragged words.
  // Epoch 31 deletes the bricks of d == 1, a >= 32; epoch 32 loads again.
  void SetUp() override {
    schema_ = MakeSchema();
    table_ = std::make_unique<Table>(schema_, 3, /*threaded=*/GetParam());
    std::mt19937_64 rng(20181016);
    for (aosi::Epoch e = 1; e <= 30; ++e) Load(rng, e, 700);
    FilterClause d1{kDimD, FilterClause::Op::kEq, {1}, 0, 0};
    FilterClause high_a{kDimA, FilterClause::Op::kRange, {}, 32, 63};
    ASSERT_TRUE(table_->DeleteWhere(31, {d1, high_a}).ok());
    Load(rng, 32, 700);
  }

  void Load(std::mt19937_64& rng, aosi::Epoch epoch, size_t rows) {
    auto parsed = ParseRecords(*schema_, RandomRecords(rng, rows));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_TRUE(table_->Append(epoch, std::move(parsed->batches)).ok());
  }

  /// Compares Table::Scan with the reference under three reads: SI with
  /// pending transactions and the delete, SI before the delete, and RU.
  void Check(const Query& query) {
    std::vector<aosi::Epoch> pending;
    for (aosi::Epoch e = 2; e <= 20; e += 2) pending.push_back(e);
    const aosi::Snapshot reads[] = {
        {33, aosi::EpochSet(pending)}, {25, aosi::EpochSet()}};
    for (const aosi::Snapshot& snap : reads) {
      SCOPED_TRACE("snapshot epoch " + std::to_string(snap.epoch));
      const QueryResult got =
          table_->Scan(snap, ScanMode::kSnapshotIsolation, query);
      ASSERT_GT(got.num_groups(), 0u);
      ExpectBitIdentical(
          ReferenceScan(*table_, snap, ScanMode::kSnapshotIsolation, query),
          got);
    }
    SCOPED_TRACE("read uncommitted");
    ExpectBitIdentical(
        ReferenceScan(*table_, reads[0], ScanMode::kReadUncommitted, query),
        table_->Scan(reads[0], ScanMode::kReadUncommitted, query));
  }

  static Query Grouped(std::vector<size_t> group_by,
                       std::vector<FilterClause> filters = {}) {
    Query q;
    q.group_by = std::move(group_by);
    q.filters = std::move(filters);
    q.aggs = AllAggs();
    return q;
  }

  std::shared_ptr<CubeSchema> schema_;
  std::unique_ptr<Table> table_;
};

TEST_P(GroupedKernelTest, TwoDimensionsMixedRadix) {
  Check(Grouped({kDimA, kDimB}));
  Check(Grouped({kDimB, kDimA}));
}

TEST_P(GroupedKernelTest, ZeroWidthDimension) {
  Check(Grouped({kDimD}));
  Check(Grouped({kDimB, kDimD, kDimA}));
}

TEST_P(GroupedKernelTest, WideSpanFewDistinctValues) {
  // 2^20 offsets per brick but six distinct values: the slot table must
  // hash instead of covering the span.
  Check(Grouped({kDimC}, {{kDimD, FilterClause::Op::kEq, {0}, 0, 0}}));
  Check(Grouped({kDimC, kDimA}, {{kDimD, FilterClause::Op::kEq, {0}, 0, 0}}));
}

TEST_P(GroupedKernelTest, WideSpanManyDistinctValues) {
  // Hundreds of distinct wide coordinates per brick grow the hashed table
  // past its first capacity.
  Check(Grouped({kDimC}, {{kDimD, FilterClause::Op::kEq, {1}, 0, 0}}));
  Check(Grouped({kDimC}));
}

TEST_P(GroupedKernelTest, GroupDimensionAlsoFiltered) {
  // a in [5, 40] crosses the a-range boundary at 32, so neither brick range
  // is covered and the filter clears rows inside both.
  FilterClause a_range{kDimA, FilterClause::Op::kRange, {}, 5, 40};
  FilterClause b_in{kDimB, FilterClause::Op::kIn, {1, 3, 9}, 0, 0};
  Check(Grouped({kDimA}, {a_range}));
  Check(Grouped({kDimA, kDimB}, {a_range, b_in}));
}

INSTANTIATE_TEST_SUITE_P(Shards, GroupedKernelTest,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "Threaded" : "Inline";
                         });

TEST(GroupedKernelOverflowTest, WrappedPackedKeysStillSeparateGroups) {
  // In-brick spans 2^32 * 2^32 * 2: the product passes 2^64, so the packed
  // key of (p, q, 1) wraps onto that of (p, q, 0) and only the full tuple
  // comparison keeps the two groups apart.
  constexpr uint64_t kHalf = uint64_t{1} << 32;
  auto schema = CubeSchema::Make("wrap",
                                 {{"p", 2 * kHalf, kHalf, false},
                                  {"q", 2 * kHalf, kHalf, false},
                                  {"r", 2, 2, false}},
                                 {{"n", DataType::kInt64},
                                  {"x", DataType::kDouble}})
                    .value();
  static constexpr uint64_t kPs[] = {0, 5, kHalf - 1};
  static constexpr uint64_t kQs[] = {0, 7, kHalf - 3};
  std::mt19937_64 rng(7);
  std::vector<Record> records;
  for (size_t i = 0; i < 3000; ++i) {
    records.push_back({static_cast<int64_t>(kPs[rng() % 3]),
                       static_cast<int64_t>(kQs[rng() % 3]),
                       static_cast<int64_t>(rng() % 2),
                       static_cast<int64_t>(rng() % 1000),
                       i % 3 == 0 ? 1e16 : 1.0 / static_cast<double>(1 + i)});
  }
  auto parsed = ParseRecords(*schema, records);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Table table(schema, 1, /*threaded=*/false);
  ASSERT_TRUE(table.Append(1, std::move(parsed->batches)).ok());

  Query q;
  q.group_by = {0, 1, 2};
  q.aggs = AllAggs();
  const aosi::Snapshot snap{1, aosi::EpochSet()};
  const QueryResult got = table.Scan(snap, ScanMode::kSnapshotIsolation, q);
  EXPECT_EQ(got.num_groups(), 18u);
  ExpectBitIdentical(
      ReferenceScan(table, snap, ScanMode::kSnapshotIsolation, q), got);
}

}  // namespace
}  // namespace cubrick
