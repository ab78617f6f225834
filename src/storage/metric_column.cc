#include "storage/metric_column.h"

#include <bit>

namespace cubrick {

void MetricColumn::AppendInts(const int64_t* v, size_t n) {
  CUBRICK_CHECK(type_ != DataType::kDouble);
  if (n == 0) return;
  int64_t lo = v[0], hi = v[0];
  for (size_t i = 1; i < n; ++i) {
    lo = std::min(lo, v[i]);
    hi = std::max(hi, v[i]);
  }
  const size_t old = num_records();
  // Capacity grows to the next power of two, as one push_back per value
  // would, so a column never holds more slack than a plain vector.
  const size_t capacity = std::bit_ceil(old + n);
  IntStorage batch_width = StorageFor(lo, hi);
  if (batch_width.index() > ints_.index()) {
    // Re-encode the column once at the batch's width.
    std::visit(
        [&](const auto& from) {
          std::visit(
              [&](auto& to) {
                to.reserve(capacity);
                to.assign(from.begin(), from.end());
              },
              batch_width);
        },
        ints_);
    ints_ = std::move(batch_width);
  }
  std::visit(
      [&](auto& to) {
        using T = typename std::decay_t<decltype(to)>::value_type;
        if (to.capacity() < old + n) to.reserve(capacity);
        to.resize(old + n);
        for (size_t i = 0; i < n; ++i) to[old + i] = static_cast<T>(v[i]);
      },
      ints_);
}

Status MetricColumn::AppendValue(const Value& v) {
  switch (type_) {
    case DataType::kDouble:
      if (v.is_double()) {
        AppendDouble(v.as_double());
      } else if (v.is_int64()) {
        AppendDouble(static_cast<double>(v.as_int64()));
      } else {
        return Status::InvalidArgument("expected numeric value");
      }
      return Status::OK();
    case DataType::kInt64:
    case DataType::kString:
      if (!v.is_int64()) {
        return Status::InvalidArgument(
            "expected int64 (string metrics must be dictionary-encoded)");
      }
      AppendInt64(v.as_int64());
      return Status::OK();
  }
  return Status::Internal("unreachable metric type");
}

}  // namespace cubrick
