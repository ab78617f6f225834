// Append-only metric column (paper §III-C1, §V-A).
//
// Metrics are stored one vector per column, unordered and append-only;
// records are materialized through the implicit index. String metrics hold
// dictionary ids.
//
// Int columns (kInt64 and dictionary-encoded kString) keep one buffer at
// the narrowest signed width — 1, 2, 4 or 8 bytes — that holds every value
// appended so far. A column starts at 1 byte; an append batch that needs a
// wider width re-encodes the column once, then copies the batch narrowed.
// Readers go through IntColumnView (data pointer plus width, with widening
// reads) or GetInt64; the scan folds dense runs at the stored width
// (simd::Kernels::fold_int_run). Double columns are plain 8-byte vectors.

#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/status.h"
#include "storage/data_type.h"

namespace cubrick {

/// Read-only view of an int column: `size` two's-complement values of
/// `width` bytes each (1, 2, 4 or 8) at `data`. Valid until the column's
/// next append, copy-assignment or destruction.
struct IntColumnView {
  const void* data = nullptr;
  unsigned width = 1;
  uint64_t size = 0;

  /// Calls fn(const T* values) with T the stored type (int8_t .. int64_t).
  template <typename Fn>
  decltype(auto) Visit(Fn&& fn) const {
    switch (width) {
      case 1:
        return fn(static_cast<const int8_t*>(data));
      case 2:
        return fn(static_cast<const int16_t*>(data));
      case 4:
        return fn(static_cast<const int32_t*>(data));
      default:
        return fn(static_cast<const int64_t*>(data));
    }
  }

  /// Address of row `row`'s value.
  const void* At(uint64_t row) const {
    return static_cast<const char*>(data) + row * width;
  }

  int64_t Get(uint64_t row) const {
    return Visit([row](const auto* v) -> int64_t { return v[row]; });
  }

  /// Widening copy of rows [begin, begin + n) into out[0..n).
  void Widen(uint64_t begin, uint64_t n, int64_t* out) const {
    Visit([&](const auto* v) { std::copy(v + begin, v + begin + n, out); });
  }

  /// Widening gather: out[i] = row rows[i]'s value, for i in [0, n).
  void Gather(const size_t* rows, size_t n, int64_t* out) const {
    Visit([&](const auto* v) {
      for (size_t i = 0; i < n; ++i) out[i] = v[rows[i]];
    });
  }
};

class MetricColumn {
 public:
  explicit MetricColumn(DataType type) : type_(type) {}

  DataType type() const { return type_; }

  /// Appends ints v[0..n): widens the column once if the batch needs it,
  /// then stores the batch at the column's width.
  void AppendInts(const int64_t* v, size_t n);
  void AppendInt64(int64_t v) { AppendInts(&v, 1); }
  void AppendDouble(double v) {
    CUBRICK_CHECK(type_ == DataType::kDouble);
    doubles_.push_back(v);
  }

  /// Appends a Value of matching type; string metrics must arrive already
  /// dictionary-encoded as int64.
  Status AppendValue(const Value& v);

  int64_t GetInt64(uint64_t row) const { return ints().Get(row); }
  double GetDouble(uint64_t row) const { return doubles_[row]; }

  uint64_t num_records() const {
    return type_ == DataType::kDouble ? doubles_.size() : ints().size;
  }

  size_t MemoryUsage() const {
    const size_t int_bytes = std::visit(
        [](const auto& v) { return v.capacity() * sizeof(v[0]); }, ints_);
    return int_bytes + doubles_.capacity() * sizeof(double);
  }

  /// Builds a compacted copy keeping rows where keep(row) is true. An int
  /// copy takes the narrowest width that holds the rows it keeps.
  template <typename KeepFn>
  MetricColumn CompactedCopy(KeepFn&& keep) const {
    MetricColumn out(type_);
    const uint64_t n = num_records();
    if (type_ == DataType::kDouble) {
      for (uint64_t row = 0; row < n; ++row) {
        if (keep(row)) out.AppendDouble(doubles_[row]);
      }
      return out;
    }
    std::visit(
        [&](const auto& from) {
          // Pass 1: the kept rows' range picks the copy's width.
          int64_t lo = 0, hi = 0;
          uint64_t kept = 0;
          for (uint64_t row = 0; row < n; ++row) {
            if (!keep(row)) continue;
            const int64_t x = from[row];
            lo = kept == 0 ? x : std::min(lo, x);
            hi = kept == 0 ? x : std::max(hi, x);
            ++kept;
          }
          out.ints_ = StorageFor(lo, hi);
          std::visit(
              [&](auto& to) {
                using T = typename std::decay_t<decltype(to)>::value_type;
                to.reserve(kept);
                for (uint64_t row = 0; row < n; ++row) {
                  if (keep(row)) to.push_back(static_cast<T>(from[row]));
                }
              },
              out.ints_);
        },
        ints_);
    return out;
  }

  /// Int storage at its current width, for scans and widening copies.
  IntColumnView ints() const {
    return std::visit(
        [](const auto& v) {
          return IntColumnView{v.data(), static_cast<unsigned>(sizeof(v[0])),
                               v.size()};
        },
        ints_);
  }
  const std::vector<double>& doubles() const { return doubles_; }

 private:
  /// Alternative i stores values of 2^i bytes.
  using IntStorage =
      std::variant<std::vector<int8_t>, std::vector<int16_t>,
                   std::vector<int32_t>, std::vector<int64_t>>;

  /// Empty storage of the narrowest width holding [lo, hi].
  static IntStorage StorageFor(int64_t lo, int64_t hi) {
    const auto fits = [lo, hi](auto bound) {
      using T = decltype(bound);
      return lo >= std::numeric_limits<T>::min() &&
             hi <= std::numeric_limits<T>::max();
    };
    if (fits(int8_t{})) return std::vector<int8_t>();
    if (fits(int16_t{})) return std::vector<int16_t>();
    if (fits(int32_t{})) return std::vector<int32_t>();
    return std::vector<int64_t>();
  }

  DataType type_;
  IntStorage ints_;
  std::vector<double> doubles_;
};

}  // namespace cubrick
