// Morsel scan determinism tests: Table::Scan runs every shard's bricks
// through PlanMorsels -> ScanMorsels -> MergePartials at the pool size, and
// its answer must be bit-identical to the same pipeline pinned at any
// worker count. One partial per morsel, folded in morsel order, makes the
// result independent of which worker scanned which brick — even for
// double sums whose value depends on association.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "common/thread_pool.h"
#include "cubrick/database.h"
#include "engine/table.h"
#include "ingest/parser.h"

namespace cubrick {
namespace {

constexpr size_t kWorkerCounts[] = {1, 2, 3, 4, 8};

std::shared_ptr<CubeSchema> MakeSchema() {
  return CubeSchema::Make(
             "events",
             {{"region", 16, 2, false}, {"kind", 4, 1, false}},
             {{"n", DataType::kInt64}})
      .value();
}

PerBrickBatches Batches(const CubeSchema& schema,
                        const std::vector<std::array<int64_t, 3>>& rows) {
  std::vector<Record> records;
  for (const auto& r : rows) {
    records.push_back({r[0], r[1], r[2]});
  }
  auto parsed = ParseRecords(schema, records);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed->batches;
}

aosi::Snapshot Snap(aosi::Epoch e) { return aosi::Snapshot{e, {}}; }

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Bit-for-bit equality: same groups, and every AggState field of every
/// aggregate has the same bit pattern (so -0.0 != 0.0 and NaNs compare).
bool BitIdentical(const QueryResult& a, const QueryResult& b) {
  if (a.num_aggs() != b.num_aggs() || a.num_groups() != b.num_groups()) {
    return false;
  }
  for (const auto& [key, states] : a.groups()) {
    auto it = b.groups().find(key);
    if (it == b.groups().end() || states.size() != it->second.size()) {
      return false;
    }
    for (size_t i = 0; i < states.size(); ++i) {
      const AggState& x = states[i];
      const AggState& y = it->second[i];
      if (!SameBits(x.sum, y.sum) || x.count != y.count ||
          !SameBits(x.min, y.min) || !SameBits(x.max, y.max)) {
        return false;
      }
    }
  }
  return true;
}

/// Table::Scan's composition with the worker count pinned: each shard's
/// bricks (in BrickMap order) through plan -> scan -> merge, the shard
/// results folded in shard order. The table must be quiescent.
QueryResult ScanAtWorkers(Table& table, const aosi::Snapshot& snapshot,
                          ScanMode mode, const Query& query, size_t workers) {
  std::vector<std::vector<const Brick*>> per_shard(table.num_shards());
  table.VisitBricks([&](const Brick& brick) {
    per_shard[table.ShardOf(brick.bid())].push_back(&brick);
  });
  QueryResult result(query.aggs.size());
  for (const auto& bricks : per_shard) {
    result.Merge(MergePartials(
        ScanMorsels(PlanMorsels(bricks, query), snapshot, mode, query,
                    &ThreadPool::Global(), workers),
        query.aggs.size()));
  }
  return result;
}

/// Table::Scan at the pool size must equal the pinned pipeline at every
/// worker count, bit for bit. Returns the Table::Scan result.
QueryResult ExpectSameAtEveryWorkerCount(Table& table,
                                         const aosi::Snapshot& snapshot,
                                         ScanMode mode, const Query& query) {
  const QueryResult scanned = table.Scan(snapshot, mode, query);
  for (size_t workers : kWorkerCounts) {
    EXPECT_TRUE(BitIdentical(
        scanned, ScanAtWorkers(table, snapshot, mode, query, workers)))
        << "diverged at " << workers << " worker(s)";
  }
  return scanned;
}

class ParallelScanTest : public ::testing::TestWithParam<bool> {
 protected:
  bool threaded() const { return GetParam(); }

  /// Many epochs, every brick populated, one visible partition delete —
  /// the richest history the worker-count sweep can disagree on.
  void FillTable(Table& table, const CubeSchema& schema) {
    std::vector<std::array<int64_t, 3>> rows;
    for (int64_t epoch = 1; epoch <= 6; ++epoch) {
      rows.clear();
      for (int64_t r = 0; r < 16; ++r) {
        for (int64_t k = 0; k < 4; ++k) {
          rows.push_back({r, k, epoch * 100 + r * 4 + k});
        }
      }
      ASSERT_TRUE(table.Append(epoch, Batches(schema, rows)).ok());
    }
    // Delete the region range [2,3] at epoch 4 (range size is 2, so the
    // predicate is partition-granular): readers at >= 4 must apply the
    // cleanup identically at every worker count.
    FilterClause del;
    del.dim = 0;
    del.op = FilterClause::Op::kRange;
    del.range_lo = 2;
    del.range_hi = 3;
    ASSERT_TRUE(table.DeleteWhere(4, {del}).ok());
  }
};

INSTANTIATE_TEST_SUITE_P(InlineAndThreaded, ParallelScanTest,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "Threaded" : "Inline";
                         });

TEST_P(ParallelScanTest, UngroupedMatchesSerial) {
  auto schema = MakeSchema();
  Table table(schema, 4, threaded());
  FillTable(table, *schema);
  Query q;
  q.aggs = {{AggSpec::Fn::kSum, 0},
            {AggSpec::Fn::kCount, 0},
            {AggSpec::Fn::kMin, 0},
            {AggSpec::Fn::kMax, 0}};
  for (aosi::Epoch e : {1u, 3u, 4u, 6u}) {
    const QueryResult result = ExpectSameAtEveryWorkerCount(
        table, Snap(e), ScanMode::kSnapshotIsolation, q);
    EXPECT_GT(result.Single(1, AggSpec::Fn::kCount), 0.0);
  }
}

TEST_P(ParallelScanTest, GroupedMatchesSerial) {
  auto schema = MakeSchema();
  Table table(schema, 4, threaded());
  FillTable(table, *schema);
  Query q;
  q.group_by = {0, 1};
  q.aggs = {{AggSpec::Fn::kSum, 0}, {AggSpec::Fn::kCount, 0}};
  const QueryResult result = ExpectSameAtEveryWorkerCount(
      table, Snap(5), ScanMode::kSnapshotIsolation, q);
  EXPECT_GT(result.num_groups(), 1u);
}

TEST_P(ParallelScanTest, GroupedFullyDenseBrickMatchesSerial) {
  // 100% dense bricks: no deletes and each brick's row count is an exact
  // multiple of 64, so every visibility word is ~0ULL and the grouped
  // dense straight-loop (prev-key memoized) handles every row. Every
  // worker count must agree exactly, and the totals are known in closed
  // form.
  auto schema = MakeSchema();
  Table table(schema, 4, threaded());
  // Each brick covers 2 regions x 1 kind; repeating the full 16x4 grid 32
  // times puts exactly 64 rows in every brick.
  std::vector<std::array<int64_t, 3>> rows;
  for (int rep = 0; rep < 32; ++rep) {
    for (int64_t r = 0; r < 16; ++r) {
      for (int64_t k = 0; k < 4; ++k) rows.push_back({r, k, r + k});
    }
  }
  ASSERT_TRUE(table.Append(1, Batches(*schema, rows)).ok());
  Query q;
  q.group_by = {0, 1};
  q.aggs = {{AggSpec::Fn::kSum, 0},
            {AggSpec::Fn::kCount, 0},
            {AggSpec::Fn::kMin, 0},
            {AggSpec::Fn::kMax, 0}};
  const QueryResult result = ExpectSameAtEveryWorkerCount(
      table, Snap(1), ScanMode::kSnapshotIsolation, q);
  ASSERT_EQ(result.num_groups(), 64u);
  for (const auto& [key, states] : result.groups()) {
    (void)key;
    EXPECT_EQ(states[1].count, 32u);  // every (region, kind) seen 32x
    EXPECT_EQ(states[0].sum, states[2].min * 32.0);
    EXPECT_EQ(states[2].min, states[3].max);
  }
}

TEST_P(ParallelScanTest, FilteredMatchesSerial) {
  auto schema = MakeSchema();
  Table table(schema, 4, threaded());
  FillTable(table, *schema);
  Query q;
  FilterClause f;
  f.dim = 0;
  f.op = FilterClause::Op::kRange;
  f.range_lo = 2;
  f.range_hi = 9;
  q.filters = {f};
  q.group_by = {0};
  q.aggs = {{AggSpec::Fn::kSum, 0}, {AggSpec::Fn::kCount, 0}};
  ExpectSameAtEveryWorkerCount(table, Snap(6), ScanMode::kSnapshotIsolation,
                               q);
}

TEST_P(ParallelScanTest, ReadUncommittedMatchesSerial) {
  auto schema = MakeSchema();
  Table table(schema, 4, threaded());
  FillTable(table, *schema);
  Query q;
  q.group_by = {1};
  q.aggs = {{AggSpec::Fn::kSum, 0}, {AggSpec::Fn::kCount, 0}};
  ExpectSameAtEveryWorkerCount(table, Snap(2), ScanMode::kReadUncommitted, q);
}

TEST_P(ParallelScanTest, VisibilityCacheMatchesUncachedAndParallel) {
  // The cached bitmap path and the word-wise kernels must reproduce the
  // uncached result bit-for-bit — cold cache, warm cache, and with the
  // cache shared across morsel workers at every worker count.
  auto schema = MakeSchema();
  Table table(schema, 4, threaded());
  FillTable(table, *schema);
  Query q;
  FilterClause f;
  f.dim = 1;
  f.op = FilterClause::Op::kIn;
  f.values = {0, 2, 3};
  q.filters = {f};
  q.group_by = {0};
  q.aggs = {{AggSpec::Fn::kSum, 0},
            {AggSpec::Fn::kCount, 0},
            {AggSpec::Fn::kMin, 0},
            {AggSpec::Fn::kMax, 0}};
  for (aosi::Epoch e : {1u, 4u, 6u}) {
    const auto uncached = table.Scan(Snap(e), ScanMode::kSnapshotIsolation, q,
                                     nullptr, /*visibility_cache=*/false);
    // Cold pass populates the per-brick caches, warm pass hits them.
    const auto cold = table.Scan(Snap(e), ScanMode::kSnapshotIsolation, q);
    EXPECT_TRUE(BitIdentical(uncached, cold));
    const auto warm = ExpectSameAtEveryWorkerCount(
        table, Snap(e), ScanMode::kSnapshotIsolation, q);
    EXPECT_TRUE(BitIdentical(uncached, warm));
    // A later snapshot clamps to the same horizon and shares the entries.
    const auto clamped =
        table.Scan(Snap(e + 100), ScanMode::kSnapshotIsolation, q);
    if (e == 6u) {
      EXPECT_TRUE(BitIdentical(uncached, clamped));
    }
  }
  // Read-uncommitted caches the all-ones mask under the version tag alone.
  const auto ru_uncached = table.Scan(Snap(2), ScanMode::kReadUncommitted, q,
                                      nullptr, /*visibility_cache=*/false);
  const auto ru_cached = table.Scan(Snap(9), ScanMode::kReadUncommitted, q);
  EXPECT_TRUE(BitIdentical(ru_uncached, ru_cached));
}

TEST_P(ParallelScanTest, EmptyTableAndOverParallelism) {
  auto schema = MakeSchema();
  Table table(schema, 2, threaded());
  Query q;
  q.aggs = {{AggSpec::Fn::kSum, 0}, {AggSpec::Fn::kCount, 0}};
  // No bricks: the fan-out degenerates gracefully to an empty result.
  auto empty = table.Scan(Snap(5), ScanMode::kSnapshotIsolation, q);
  EXPECT_DOUBLE_EQ(empty.Single(1, AggSpec::Fn::kCount), 0.0);
  EXPECT_TRUE(ScanMorsels({}, Snap(5), ScanMode::kSnapshotIsolation, q,
                          &ThreadPool::Global(), 8)
                  .empty());
  // One brick, worker count far above the morsel count.
  ASSERT_TRUE(table.Append(1, Batches(*schema, {{0, 0, 7}})).ok());
  auto one = ScanAtWorkers(table, Snap(1), ScanMode::kSnapshotIsolation, q, 16);
  EXPECT_DOUBLE_EQ(one.Single(0, AggSpec::Fn::kSum), 7.0);
  EXPECT_DOUBLE_EQ(one.Single(1, AggSpec::Fn::kCount), 1.0);
  EXPECT_TRUE(BitIdentical(
      one, table.Scan(Snap(1), ScanMode::kSnapshotIsolation, q)));
}

// Grouped SUM/MIN/MAX over a double metric whose per-group answer depends
// on the order bricks are folded: 1e16, -1e16 and 1.0 land in three
// bricks of one group, so (1e16 + -1e16) + 1.0 = 1 but (1e16 + 1.0) +
// -1e16 = 0; and 0.0 / -0.0 in two bricks of another group make MIN/MAX
// keep whichever zero is folded first. Only a fixed fold order gives one
// answer at every worker count, on inline and threaded shards alike.
TEST(ParallelScanDeterminismTest, GroupedDoubleAggregatesBitIdentical) {
  auto schema = CubeSchema::Make(
                    "events",
                    {{"region", 16, 2, false}, {"kind", 4, 1, false}},
                    {{"x", DataType::kDouble}})
                    .value();
  constexpr double kBig = 1e16;
  std::vector<Record> records;
  // kind 0: the association-sensitive sum, one value per region range.
  records.push_back({int64_t{0}, int64_t{0}, kBig});
  records.push_back({int64_t{4}, int64_t{0}, -kBig});
  records.push_back({int64_t{8}, int64_t{0}, 1.0});
  // kind 1: signed zeros in two bricks.
  records.push_back({int64_t{2}, int64_t{1}, 0.0});
  records.push_back({int64_t{6}, int64_t{1}, -0.0});
  // kinds 2 and 3: many inexact values across every region range, so
  // every brick is a morsel and several of them feed each group.
  for (int64_t r = 0; r < 16; ++r) {
    for (int64_t rep = 0; rep < 5; ++rep) {
      records.push_back({r, int64_t{2}, 0.1 * static_cast<double>(r + rep)});
      records.push_back(
          {r, int64_t{3}, 1.0 / static_cast<double>(3 + r * 7 + rep)});
    }
  }
  auto parsed = ParseRecords(*schema, records);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  Query q;
  q.group_by = {1};
  q.aggs = {{AggSpec::Fn::kSum, 0},
            {AggSpec::Fn::kMin, 0},
            {AggSpec::Fn::kMax, 0}};
  const aosi::Snapshot snap = Snap(1);

  Table inline_table(schema, 4, /*threaded=*/false);
  Table threaded_table(schema, 4, /*threaded=*/true);
  PerBrickBatches copy = parsed->batches;
  ASSERT_TRUE(inline_table.Append(1, std::move(copy)).ok());
  ASSERT_TRUE(threaded_table.Append(1, std::move(parsed->batches)).ok());

  // The building blocks over one morsel list, at every worker count.
  std::vector<const Brick*> bricks;
  inline_table.VisitBricks(
      [&bricks](const Brick& brick) { bricks.push_back(&brick); });
  const auto morsels = PlanMorsels(bricks, q);
  ASSERT_GE(morsels.size(), 8u);
  const auto partials =
      ScanMorsels(morsels, snap, ScanMode::kSnapshotIsolation, q, nullptr, 1);
  const QueryResult reference = MergePartials(partials, q.aggs.size());
  for (size_t workers : kWorkerCounts) {
    for (int round = 0; round < 10; ++round) {
      EXPECT_TRUE(BitIdentical(
          reference,
          MergePartials(ScanMorsels(morsels, snap,
                                    ScanMode::kSnapshotIsolation, q,
                                    &ThreadPool::Global(), workers),
                        q.aggs.size())))
          << workers << " worker(s), round " << round;
    }
  }

  // The data really is association-sensitive: some other fold order of
  // the same partials gives different bits.
  bool order_matters = false;
  for (size_t k = 1; k < partials.size() && !order_matters; ++k) {
    std::vector<QueryResult> rotated = partials;
    std::rotate(rotated.begin(), rotated.begin() + k, rotated.end());
    order_matters =
        !BitIdentical(reference, MergePartials(rotated, q.aggs.size()));
  }
  EXPECT_TRUE(order_matters);

  // Table::Scan on inline and threaded shards: one answer, every time, and
  // the pinned pipeline reproduces it at every worker count.
  const QueryResult scanned =
      inline_table.Scan(snap, ScanMode::kSnapshotIsolation, q);
  for (int round = 0; round < 10; ++round) {
    EXPECT_TRUE(BitIdentical(
        scanned, inline_table.Scan(snap, ScanMode::kSnapshotIsolation, q)));
    EXPECT_TRUE(BitIdentical(
        scanned, threaded_table.Scan(snap, ScanMode::kSnapshotIsolation, q)));
  }
  for (size_t workers : kWorkerCounts) {
    EXPECT_TRUE(BitIdentical(
        scanned, ScanAtWorkers(threaded_table, snap,
                               ScanMode::kSnapshotIsolation, q, workers)))
        << workers << " worker(s)";
  }
}

TEST(ParallelScanDatabaseTest, DatabaseQueryMatchesEveryWorkerCount) {
  // Database::Query fans every scan out over the pool; its answer must be
  // the table's pipeline answer at any pinned worker count.
  Database db;
  ASSERT_TRUE(db.CreateCube("events",
                            {{"region", 16, 2, false}, {"kind", 4, 1, false}},
                            {{"n", DataType::kInt64}})
                  .ok());
  std::vector<Record> rows;
  for (int64_t r = 0; r < 16; ++r) {
    for (int64_t k = 0; k < 4; ++k) rows.push_back({r, k, r * 10 + k});
  }
  ASSERT_TRUE(db.Load("events", rows).ok());
  Query q;
  q.group_by = {0};
  q.aggs = {{AggSpec::Fn::kSum, 0}, {AggSpec::Fn::kCount, 0}};
  auto result = db.Query("events", q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_groups(), 16u);
  aosi::Txn ro = db.BeginReadOnly();
  for (size_t workers : kWorkerCounts) {
    EXPECT_TRUE(BitIdentical(
        *result, ScanAtWorkers(*db.FindTable("events"), ro.snapshot(),
                               ScanMode::kSnapshotIsolation, q, workers)));
  }
  db.txns().EndReadOnly(ro);
}

}  // namespace
}  // namespace cubrick
