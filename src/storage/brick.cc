#include "storage/brick.h"

namespace cubrick {

namespace {
std::vector<uint32_t> BessLayout(const CubeSchema& schema) {
  std::vector<uint32_t> bits;
  bits.reserve(schema.num_dimensions());
  for (size_t d = 0; d < schema.num_dimensions(); ++d) {
    bits.push_back(schema.bess_bits(d));
  }
  return bits;
}
}  // namespace

Brick::Brick(std::shared_ptr<const CubeSchema> schema, Bid bid)
    : schema_(std::move(schema)), bid_(bid), bess_(BessLayout(*schema_)) {
  for (size_t d = 0; d < schema_->num_dimensions(); ++d) {
    range_base_.push_back(schema_->RangeIndexOf(bid, d) *
                          schema_->dimensions()[d].range_size);
  }
  for (const auto& m : schema_->metrics()) {
    metrics_.emplace_back(m.type);
  }
}

void Brick::AppendBatch(aosi::Epoch epoch, const EncodedBatch& batch) {
  CUBRICK_CHECK(batch.num_rows > 0);
  std::vector<uint64_t> offsets(schema_->num_dimensions());
  for (uint64_t row = 0; row < batch.num_rows; ++row) {
    for (size_t d = 0; d < offsets.size(); ++d) {
      offsets[d] = batch.dim_offsets[d][row];
    }
    bess_.Append(offsets);
  }
  for (size_t m = 0; m < metrics_.size(); ++m) {
    if (metrics_[m].type() == DataType::kDouble) {
      CUBRICK_CHECK(batch.metric_doubles[m].size() == batch.num_rows);
      for (double v : batch.metric_doubles[m]) metrics_[m].AppendDouble(v);
    } else {
      CUBRICK_CHECK(batch.metric_ints[m].size() == batch.num_rows);
      metrics_[m].AppendInts(batch.metric_ints[m].data(), batch.num_rows);
    }
  }
  history_.RecordAppend(epoch, batch.num_rows);
  vis_cache_.Clear();
}

void Brick::MarkDeleted(aosi::Epoch epoch) {
  history_.RecordDelete(epoch);
  vis_cache_.Clear();
}

void Brick::ApplyCompaction(const aosi::CompactionPlan& plan) {
  CUBRICK_CHECK(plan.needed);
  CUBRICK_CHECK(plan.keep.size() == history_.num_records());
  const auto keep = [&](uint64_t row) { return plan.keep.Get(row); };
  BessColumn new_bess = bess_.CompactedCopy(keep);
  std::vector<MetricColumn> new_metrics;
  new_metrics.reserve(metrics_.size());
  for (const auto& m : metrics_) {
    new_metrics.push_back(m.CompactedCopy(keep));
  }
  const bool installed = InstallCompaction(
      history_.version(), plan, std::move(new_bess), std::move(new_metrics));
  CUBRICK_CHECK(installed);  // same-thread: the version cannot have moved
}

bool Brick::SnapshotColumnsForCompaction(
    uint64_t expected_version, std::optional<BessColumn>* bess,
    std::vector<MetricColumn>* metrics) const {
  if (history_.version() != expected_version) return false;
  bess->emplace(bess_);
  *metrics = metrics_;
  return true;
}

bool Brick::InstallCompaction(uint64_t expected_version,
                              const aosi::CompactionPlan& plan,
                              BessColumn new_bess,
                              std::vector<MetricColumn> new_metrics) {
  if (history_.version() != expected_version) return false;
  CUBRICK_CHECK(plan.needed);
  CUBRICK_CHECK(plan.keep.size() == history_.num_records());
  CUBRICK_CHECK(new_bess.num_records() == plan.new_history.num_records());
  bess_ = std::move(new_bess);
  metrics_ = std::move(new_metrics);
  // InstallRebuilt (not plain assignment) keeps the version counter
  // advancing, so cached visibility bitmaps of the pre-compaction layout
  // can never be mistaken for the new one.
  history_.InstallRebuilt(plan.new_history);
  // Recycling epochs entries is the point of purge: release the old
  // capacity so the memory actually returns (Fig 6's post-purge drop).
  history_.ShrinkToFit();
  vis_cache_.Clear();
  return true;
}

size_t Brick::DataMemoryUsage() const {
  size_t bytes = bess_.MemoryUsage();
  for (const auto& m : metrics_) {
    bytes += m.MemoryUsage();
  }
  return bytes;
}

}  // namespace cubrick
