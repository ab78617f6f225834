// Ingestion parsing and validation (paper §V-B "Parsing" and
// "Validation and Forwarding").
//
// Parsing is a CPU-only step executed by whichever node receives the load
// buffer. Input records are validated (arity, metric types, dimensional
// cardinality, string-to-id encoding); records that do not comply are
// rejected and skipped. Valid records are encoded and grouped per target
// brick (bid computed from coordinates). A load request carries a
// max_rejected threshold: if more records are rejected, the entire batch is
// discarded.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/table.h"
#include "storage/data_type.h"
#include "storage/schema.h"

namespace cubrick {

/// One input record, in schema order: dimensions then metrics.
struct Record {
  std::vector<Value> values;

  Record() = default;
  /*implicit*/ Record(std::initializer_list<Value> init) : values(init) {}
};

struct ParseOptions {
  /// Maximum records that may be rejected before the whole batch is
  /// discarded.
  uint64_t max_rejected = 0;
  /// How many error strings to retain for diagnostics.
  size_t max_errors = 8;
};

struct ParseOutput {
  PerBrickBatches batches;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  std::vector<std::string> errors;
};

/// Validates and encodes `records`, grouping them per brick. Returns
/// InvalidArgument when rejected > options.max_rejected (batch discarded).
/// String dimension/metric values are encoded through the schema's
/// dictionaries via the two-phase scheme (DESIGN.md §4f): a lock-free
/// lookup pass against each dictionary's immutable snapshot, then one
/// deterministic sorted batch insert of the misses. Ids therefore depend
/// only on the dictionaries' prior state and the set of new strings —
/// never on record order within the batch or on `parallelism`.
///
/// `parallelism` > 1 (by default the pool size) chunks the record vector
/// into morsels fanned out on ThreadPool::Global() (the caller participates
/// while waiting). Output is bit-identical at any fan-out: batches,
/// rejection counts and retained error strings are merged in morsel
/// (= record) order.
Result<ParseOutput> ParseRecords(
    const CubeSchema& schema, const std::vector<Record>& records,
    const ParseOptions& options = {},
    size_t parallelism = ThreadPool::Global().num_threads());

/// Parses one comma-separated line into a Record using the schema's column
/// types (no quoting/escaping: this is the test/example loader, not an RFC
/// 4180 implementation).
Result<Record> ParseCsvLine(const CubeSchema& schema, const std::string& line);

}  // namespace cubrick
