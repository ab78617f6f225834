// MetricColumn width tests: an int column stores every value at the
// narrowest signed width (1, 2, 4 or 8 bytes) that holds all values
// appended so far, widens exactly at each type's limits, re-narrows in
// CompactedCopy, reports memory at its width and reads every row back
// unchanged. A checkpoint/recover round trip over bricks at different
// widths closes the loop through the int64 on-disk frames.

#include "storage/metric_column.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "cubrick/database.h"

namespace cubrick {
namespace {

constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();

MetricColumn IntColumn(const std::vector<int64_t>& values) {
  MetricColumn col(DataType::kInt64);
  col.AppendInts(values.data(), values.size());
  return col;
}

void ExpectRows(const MetricColumn& col, const std::vector<int64_t>& want) {
  ASSERT_EQ(col.num_records(), want.size());
  for (size_t row = 0; row < want.size(); ++row) {
    ASSERT_EQ(col.GetInt64(row), want[row]) << "row " << row;
  }
  std::vector<int64_t> copied(want.size());
  col.ints().Widen(0, want.size(), copied.data());
  EXPECT_EQ(copied, want);
}

TEST(MetricColumnTest, StartsAtOneByte) {
  MetricColumn col(DataType::kInt64);
  EXPECT_EQ(col.ints().width, 1u);
  EXPECT_EQ(col.num_records(), 0u);
  EXPECT_EQ(col.ints().width, 1u);
}

TEST(MetricColumnTest, WidensExactlyAtEachLimit) {
  struct Case {
    int64_t fits;     // largest-magnitude value of the narrower width
    int64_t widens;   // one past it
    unsigned narrow;  // width holding `fits`
    unsigned wide;    // width `widens` needs
  };
  const Case cases[] = {
      {127, 128, 1, 2},
      {-128, -129, 1, 2},
      {32767, 32768, 2, 4},
      {-32768, -32769, 2, 4},
      {2147483647LL, 2147483648LL, 4, 8},
      {-2147483648LL, -2147483649LL, 4, 8},
  };
  for (const Case& c : cases) {
    MetricColumn col(DataType::kInt64);
    col.AppendInt64(c.fits);
    EXPECT_EQ(col.ints().width, c.narrow) << c.fits;
    col.AppendInt64(c.widens);
    EXPECT_EQ(col.ints().width, c.wide) << c.widens;
    ExpectRows(col, {c.fits, c.widens});
  }
}

TEST(MetricColumnTest, Int64LimitsRoundTrip) {
  MetricColumn col = IntColumn({0, -1});
  EXPECT_EQ(col.ints().width, 1u);
  col.AppendInt64(kI64Min);
  EXPECT_EQ(col.ints().width, 8u);
  col.AppendInt64(kI64Max);
  ExpectRows(col, {0, -1, kI64Min, kI64Max});
}

TEST(MetricColumnTest, BatchWidthIsItsOwnMinAndMax) {
  // Neither end alone needs 4 bytes' range on the other side: the batch's
  // min picks the width here, its max stays small.
  MetricColumn col = IntColumn({5, -40000, 7});
  EXPECT_EQ(col.ints().width, 4u);
  ExpectRows(col, {5, -40000, 7});
  // A narrower batch never narrows the column back.
  col.AppendInt64(1);
  EXPECT_EQ(col.ints().width, 4u);
  ExpectRows(col, {5, -40000, 7, 1});
}

TEST(MetricColumnTest, MixedSignBatchesReencodeOnce) {
  Random rng(0x3c01);
  std::vector<int64_t> all;
  MetricColumn col(DataType::kInt64);
  const int64_t bounds[] = {100, 30000, 2000000000LL, kI64Max / 2};
  const unsigned widths[] = {1, 2, 4, 8};
  for (size_t b = 0; b < 4; ++b) {
    std::vector<int64_t> batch;
    for (int i = 0; i < 300; ++i) {
      batch.push_back(rng.UniformRange(-bounds[b], bounds[b]));
    }
    batch.push_back(-bounds[b]);
    batch.push_back(bounds[b]);
    col.AppendInts(batch.data(), batch.size());
    all.insert(all.end(), batch.begin(), batch.end());
    EXPECT_EQ(col.ints().width, widths[b]);
    ExpectRows(col, all);
  }
}

TEST(MetricColumnTest, StringMetricsUseTheSameWidths) {
  MetricColumn col(DataType::kString);
  col.AppendInt64(3);
  EXPECT_EQ(col.ints().width, 1u);
  col.AppendInt64(300);
  EXPECT_EQ(col.ints().width, 2u);
  ExpectRows(col, {3, 300});
}

TEST(MetricColumnTest, CompactedCopyRenarrows) {
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 200; ++i) {
    values.push_back(i % 2 == 0 ? i % 100 : -(i % 100));
  }
  values[17] = kI64Min;
  values[101] = 1LL << 40;
  MetricColumn col = IntColumn(values);
  ASSERT_EQ(col.ints().width, 8u);

  // Dropping the two wide rows re-derives the width from what is kept.
  const auto keep_small = [&](uint64_t row) { return row != 17 && row != 101; };
  MetricColumn small = col.CompactedCopy(keep_small);
  EXPECT_EQ(small.ints().width, 1u);
  std::vector<int64_t> want;
  for (size_t row = 0; row < values.size(); ++row) {
    if (keep_small(row)) want.push_back(values[row]);
  }
  ExpectRows(small, want);

  // Keeping one wide row keeps the width it needs.
  MetricColumn wide = col.CompactedCopy([](uint64_t row) { return row >= 100; });
  EXPECT_EQ(wide.ints().width, 8u);
  ExpectRows(wide, std::vector<int64_t>(values.begin() + 100, values.end()));

  MetricColumn none = col.CompactedCopy([](uint64_t) { return false; });
  EXPECT_EQ(none.num_records(), 0u);
  EXPECT_EQ(none.ints().width, 1u);
}

TEST(MetricColumnTest, CompactedDoubleCopyIsUnchanged) {
  MetricColumn col(DataType::kDouble);
  for (int i = 0; i < 10; ++i) col.AppendDouble(i * 0.5);
  MetricColumn out = col.CompactedCopy([](uint64_t row) { return row % 3 == 0; });
  ASSERT_EQ(out.num_records(), 4u);
  for (uint64_t i = 0; i < 4; ++i) EXPECT_EQ(out.GetDouble(i), i * 1.5);
}

TEST(MetricColumnTest, MemoryUsageFollowsTheWidth) {
  const std::vector<int64_t> widths_values = {1, 1000, 100000, 1LL << 40};
  size_t previous = 0;
  for (size_t w = 0; w < widths_values.size(); ++w) {
    std::vector<int64_t> values(4096, widths_values[w]);
    MetricColumn col = IntColumn(values);
    EXPECT_EQ(col.ints().width, 1u << w);
    EXPECT_GE(col.MemoryUsage(), values.size() << w);
    EXPECT_LT(col.MemoryUsage(), 2 * (values.size() << w));
    EXPECT_GT(col.MemoryUsage(), previous);
    previous = col.MemoryUsage();
  }
}

TEST(MetricColumnTest, ViewWidensRangesAndGathers) {
  for (int64_t scale : {int64_t{50}, int64_t{20000}, int64_t{1} << 30,
                        int64_t{1} << 50}) {
    Random rng(static_cast<uint64_t>(scale));
    std::vector<int64_t> values(300);
    for (auto& v : values) v = rng.UniformRange(-scale, scale);
    const MetricColumn col = IntColumn(values);
    const IntColumnView view = col.ints();
    ASSERT_EQ(view.size, values.size());
    int64_t out[64];
    view.Widen(70, 64, out);
    EXPECT_TRUE(std::equal(out, out + 64, values.begin() + 70)) << scale;
    const size_t rows[] = {0, 5, 299, 64, 63};
    view.Gather(rows, 5, out);
    for (size_t i = 0; i < 5; ++i) EXPECT_EQ(out[i], values[rows[i]]);
    for (size_t row = 0; row < values.size(); ++row) {
      ASSERT_EQ(view.Get(row), values[row]);
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoint -> Recover over bricks at different widths
// ---------------------------------------------------------------------------

namespace fs = std::filesystem;

std::string RowKey(const MaterializedRow& row) {
  std::string key;
  for (const Value& v : row.values) key += v.ToString() + "|";
  return key;
}

std::vector<std::string> SortedRows(Database& db) {
  auto rows = db.Select("w", Query());
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  std::vector<std::string> keys;
  for (const MaterializedRow& row : *rows) keys.push_back(RowKey(row));
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::map<uint64_t, unsigned> BrickWidths(Database& db) {
  std::map<uint64_t, unsigned> widths;
  db.FindTable("w")->VisitBricks([&](const Brick& brick) {
    widths[brick.bid()] = brick.metric(0).ints().width;
  });
  return widths;
}

uint64_t Bits(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

TEST(MetricColumnPersistTest, RecoverKeepsRowsAndWidthsPerBrick) {
  const fs::path dir = fs::temp_directory_path() /
                       ("cubrick_metric_width_" +
                        std::to_string(::testing::UnitTest::GetInstance()
                                           ->random_seed()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  DatabaseOptions options;
  options.data_dir = dir.string();
  const char* kDdl =
      "CREATE CUBE w (region string CARDINALITY 4 RANGE 1, v int, n int)";
  // One brick per region, each at its own width of `v`.
  const int64_t scales[] = {100, 30000, 2000000000LL, kI64Max};
  const char* regions[] = {"r1", "r2", "r4", "r8"};

  Query q;
  q.group_by = {0};
  q.aggs = {{AggSpec::Fn::kSum, 0}, {AggSpec::Fn::kMin, 0},
            {AggSpec::Fn::kMax, 0}, {AggSpec::Fn::kCount, 0},
            {AggSpec::Fn::kSum, 1}};

  std::vector<std::string> rows_before;
  std::map<uint64_t, unsigned> widths_before;
  std::vector<QueryResult> results_before;
  {
    Database db(options);
    ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
    Random rng(0xc4e7);
    for (int round = 0; round < 3; ++round) {
      std::vector<Record> records;
      for (size_t r = 0; r < 4; ++r) {
        for (int i = 0; i < 150; ++i) {
          Record rec;
          rec.values.emplace_back(regions[r]);
          int64_t v = rng.UniformRange(-scales[r] / 2, scales[r] / 2);
          if (r == 3 && i == 0) v = round == 0 ? kI64Min : kI64Max;
          rec.values.emplace_back(v);
          rec.values.emplace_back(static_cast<int64_t>(rng.Uniform(50)));
          records.push_back(std::move(rec));
        }
      }
      ASSERT_TRUE(db.Load("w", records).ok());
    }
    widths_before = BrickWidths(db);
    std::vector<unsigned> distinct;
    for (const auto& [bid, width] : widths_before) distinct.push_back(width);
    std::sort(distinct.begin(), distinct.end());
    EXPECT_EQ(distinct, (std::vector<unsigned>{1, 2, 4, 8}));
    rows_before = SortedRows(db);
    auto result = db.Query("w", q);
    ASSERT_TRUE(result.ok());
    results_before.push_back(std::move(result).value());
    auto lse = db.Checkpoint();
    ASSERT_TRUE(lse.ok()) << lse.status().ToString();
  }

  Database db(options);
  ASSERT_TRUE(db.ExecuteDdl(kDdl).ok());
  ASSERT_TRUE(db.Recover().ok());
  EXPECT_EQ(BrickWidths(db), widths_before);
  EXPECT_EQ(SortedRows(db), rows_before);
  auto result = db.Query("w", q);
  ASSERT_TRUE(result.ok());
  const QueryResult& before = results_before[0];
  ASSERT_EQ(result->num_groups(), before.num_groups());
  for (const auto& [key, states] : before.groups()) {
    const auto& got = result->groups().at(key);
    for (size_t a = 0; a < states.size(); ++a) {
      EXPECT_EQ(Bits(got[a].sum), Bits(states[a].sum)) << a;
      EXPECT_EQ(got[a].count, states[a].count) << a;
      EXPECT_EQ(Bits(got[a].min), Bits(states[a].min)) << a;
      EXPECT_EQ(Bits(got[a].max), Bits(states[a].max)) << a;
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cubrick
