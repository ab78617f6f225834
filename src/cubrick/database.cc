#include "cubrick/database.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "common/simd.h"
#include "common/stopwatch.h"

namespace cubrick {

Database::Database(DatabaseOptions options) : options_(std::move(options)) {
  if (!options_.simd.empty()) {
    simd::ConfigureFromString(options_.simd.c_str());
  }
  if (options_.online_check) {
    check::OnlineCheckerOptions checker_options;
    checker_options.sample_permille = options_.online_check_sample_permille;
    online_checker_ =
        std::make_unique<check::OnlineChecker>(checker_options);
    online_checker_->Install();
  }
  if (options_.auto_checkpoint_interval_ms > 0) {
    CUBRICK_CHECK(!options_.data_dir.empty());
    flusher_thread_ = std::thread([this] { CheckpointLoop(); });
  }
}

Database::~Database() {
  if (flusher_thread_.joinable()) {
    {
      MutexLock lock(flusher_mutex_);
      stop_flusher_ = true;
    }
    flusher_cv_.NotifyAll();
    flusher_thread_.join();
  }
  // After the flusher is gone no thread of this database is scanning, so
  // the hook can be removed and the ring drained.
  if (online_checker_ != nullptr) online_checker_->Uninstall();
}

void Database::CheckpointLoop() {
  const auto interval =
      std::chrono::milliseconds(options_.auto_checkpoint_interval_ms);
  while (true) {
    {
      MutexLock lock(flusher_mutex_);
      const auto deadline = std::chrono::steady_clock::now() + interval;
      while (!stop_flusher_ &&
             flusher_cv_.WaitUntil(lock, deadline) != std::cv_status::timeout) {
      }
      if (stop_flusher_) return;
    }
    // Checkpoint outside flusher_mutex_ so shutdown never waits on a flush.
    auto result = Checkpoint();
    if (!result.ok()) {
      CUBRICK_LOG(Warning) << "background checkpoint failed: "
                           << result.status().ToString();
    }
  }
}

Status Database::ExecuteDdl(const std::string& ddl) {
  auto stmt = ParseCreateCube(ddl);
  if (!stmt.ok()) return stmt.status();
  return CreateCube(stmt->cube_name, std::move(stmt->dimensions),
                    std::move(stmt->metrics));
}

Status Database::CreateCube(const std::string& name,
                            std::vector<DimensionDef> dimensions,
                            std::vector<MetricDef> metrics) {
  auto schema =
      CubeSchema::Make(name, std::move(dimensions), std::move(metrics));
  if (!schema.ok()) return schema.status();
  MutexLock lock(mutex_);
  if (cubes_.count(name) > 0) {
    return Status::AlreadyExists("cube '" + name + "' already exists");
  }
  CubeState state;
  state.table = std::make_unique<Table>(
      schema.value(), options_.shards_per_cube, options_.threaded_shards,
      options_.rollback_index, options_.pin_shard_threads);
  if (!options_.data_dir.empty()) {
    state.flusher =
        std::make_unique<persist::FlushManager>(options_.data_dir, name);
  }
  cubes_.emplace(name, std::move(state));
  return Status::OK();
}

Status Database::DropCube(const std::string& name) {
  MutexLock lock(mutex_);
  if (cubes_.erase(name) == 0) {
    return Status::NotFound("cube '" + name + "' does not exist");
  }
  return Status::OK();
}

std::shared_ptr<const CubeSchema> Database::FindSchema(
    const std::string& name) const {
  Table* table = FindTable(name);
  return table == nullptr ? nullptr : table->schema_ptr();
}

Table* Database::FindTable(const std::string& name) const {
  MutexLock lock(mutex_);
  auto it = cubes_.find(name);
  return it == cubes_.end() ? nullptr : it->second.table.get();
}

Status Database::Load(const std::string& cube,
                      const std::vector<Record>& records,
                      const ParseOptions& options, LoadTiming* timing) {
  aosi::Txn txn = Begin();
  Stopwatch total;
  Stopwatch parse_timer;
  Table* table = FindTable(cube);
  if (table == nullptr) {
    (void)txns_.Rollback(txn);
    return Status::NotFound("cube '" + cube + "' does not exist");
  }
  auto parsed =
      ParseRecords(table->schema(), records, options, options_.ingest_parallelism);
  if (!parsed.ok()) {
    (void)txns_.Rollback(txn);
    return parsed.status();
  }
  const int64_t parse_us = parse_timer.ElapsedMicros();

  Stopwatch flush_timer;
  const Status append = table->Append(txn.epoch, std::move(parsed->batches));
  if (!append.ok()) {
    (void)Rollback(txn);
    return append;
  }
  if (timing != nullptr) {
    timing->parse_us = parse_us;
    timing->flush_us = flush_timer.ElapsedMicros();
    timing->total_us = total.ElapsedMicros();
  }
  return txns_.Commit(txn);
}

Result<QueryResult> Database::Query(const std::string& cube,
                                    const cubrick::Query& query,
                                    ScanMode mode) {
  aosi::Txn txn = txns_.BeginReadOnly();
  auto result = QueryIn(txn, cube, query, mode);
  txns_.EndReadOnly(txn);
  return result;
}

Status Database::DeletePartitions(const std::string& cube,
                                  const std::vector<FilterClause>& filters) {
  aosi::Txn txn = Begin();
  const Status status = DeletePartitionsIn(txn, cube, filters);
  if (!status.ok()) {
    (void)Rollback(txn);
    return status;
  }
  return txns_.Commit(txn);
}

aosi::Txn Database::Begin() { return txns_.BeginReadWrite(); }
aosi::Txn Database::BeginReadOnly() { return txns_.BeginReadOnly(); }

Status Database::Commit(const aosi::Txn& txn) { return txns_.Commit(txn); }

Status Database::Rollback(const aosi::Txn& txn) {
  if (!txn.read_only()) {
    // Snapshot the cube set and release mutex_ before the per-table
    // rollback: Table::Rollback enqueues onto bounded shard queues, and a
    // backpressure wait under the registry lock would stall every lookup.
    for (const CubeRef& cube : SnapshotCubes()) {
      cube.table->Rollback(txn.epoch);
    }
  }
  return txns_.Rollback(txn);
}

std::vector<Database::CubeRef> Database::SnapshotCubes() const {
  MutexLock lock(mutex_);
  std::vector<CubeRef> cubes;
  cubes.reserve(cubes_.size());
  for (const auto& [name, state] : cubes_) {
    cubes.push_back({state.table.get(), state.flusher.get()});
  }
  return cubes;
}

Status Database::LoadIn(const aosi::Txn& txn, const std::string& cube,
                        const std::vector<Record>& records,
                        const ParseOptions& options) {
  if (txn.read_only()) {
    return Status::FailedPrecondition("load in a read-only transaction");
  }
  Table* table = FindTable(cube);
  if (table == nullptr) {
    return Status::NotFound("cube '" + cube + "' does not exist");
  }
  auto parsed =
      ParseRecords(table->schema(), records, options, options_.ingest_parallelism);
  if (!parsed.ok()) return parsed.status();
  return table->Append(txn.epoch, std::move(parsed->batches));
}

Result<QueryResult> Database::QueryIn(const aosi::Txn& txn,
                                      const std::string& cube,
                                      const cubrick::Query& query,
                                      ScanMode mode) {
  Table* table = FindTable(cube);
  if (table == nullptr) {
    return Status::NotFound("cube '" + cube + "' does not exist");
  }
  return table->Scan(txn.snapshot(), mode, query);
}

Status Database::DeletePartitionsIn(const aosi::Txn& txn,
                                    const std::string& cube,
                                    const std::vector<FilterClause>& filters) {
  if (txn.read_only()) {
    return Status::FailedPrecondition("delete in a read-only transaction");
  }
  Table* table = FindTable(cube);
  if (table == nullptr) {
    return Status::NotFound("cube '" + cube + "' does not exist");
  }
  return table->DeleteWhere(txn.epoch, filters);
}

Result<std::vector<MaterializedRow>> Database::Select(
    const std::string& cube, const cubrick::Query& query,
    const MaterializeOptions& options) {
  Table* table = FindTable(cube);
  if (table == nullptr) {
    return Status::NotFound("cube '" + cube + "' does not exist");
  }
  aosi::Txn txn = txns_.BeginReadOnly();
  auto rows = table->Materialize(txn.snapshot(), ScanMode::kSnapshotIsolation,
                                 query, options);
  txns_.EndReadOnly(txn);
  return rows;
}

Result<FilterClause> Database::EqFilter(const std::string& cube,
                                        const std::string& dimension,
                                        const Value& value) const {
  auto schema = FindSchema(cube);
  if (schema == nullptr) {
    return Status::NotFound("cube '" + cube + "' does not exist");
  }
  auto dim = schema->DimensionIndex(dimension);
  if (!dim.ok()) return dim.status();
  FilterClause clause;
  clause.dim = *dim;
  clause.op = FilterClause::Op::kEq;
  if (schema->dimensions()[*dim].is_string) {
    if (!value.is_string()) {
      return Status::InvalidArgument("dimension '" + dimension +
                                     "' filters need string values");
    }
    auto id = schema->dictionary(*dim)->Encode(value.as_string());
    if (!id.ok()) {
      // Never-ingested value: matches nothing. Encode as an impossible
      // coordinate (cardinality), which no record can carry.
      clause.values = {schema->dimensions()[*dim].cardinality};
      return clause;
    }
    clause.values = {*id};
  } else {
    if (!value.is_int64() || value.as_int64() < 0) {
      return Status::InvalidArgument("dimension '" + dimension +
                                     "' filters need non-negative integers");
    }
    clause.values = {static_cast<uint64_t>(value.as_int64())};
  }
  return clause;
}

Result<FilterClause> Database::RangeFilter(const std::string& cube,
                                           const std::string& dimension,
                                           uint64_t lo, uint64_t hi) const {
  auto schema = FindSchema(cube);
  if (schema == nullptr) {
    return Status::NotFound("cube '" + cube + "' does not exist");
  }
  auto dim = schema->DimensionIndex(dimension);
  if (!dim.ok()) return dim.status();
  if (lo > hi) {
    return Status::InvalidArgument("range lo > hi");
  }
  FilterClause clause;
  clause.dim = *dim;
  clause.op = FilterClause::Op::kRange;
  clause.range_lo = lo;
  clause.range_hi = hi;
  return clause;
}

Result<FilterClause> Database::InFilter(
    const std::string& cube, const std::string& dimension,
    const std::vector<Value>& values) const {
  auto schema = FindSchema(cube);
  if (schema == nullptr) {
    return Status::NotFound("cube '" + cube + "' does not exist");
  }
  auto dim = schema->DimensionIndex(dimension);
  if (!dim.ok()) return dim.status();
  FilterClause clause;
  clause.dim = *dim;
  clause.op = FilterClause::Op::kIn;
  const bool is_string = schema->dimensions()[*dim].is_string;
  for (const Value& value : values) {
    if (is_string) {
      if (!value.is_string()) {
        return Status::InvalidArgument("dimension '" + dimension +
                                       "' filters need string values");
      }
      auto id = schema->dictionary(*dim)->Encode(value.as_string());
      if (id.ok()) clause.values.push_back(*id);
    } else {
      if (!value.is_int64() || value.as_int64() < 0) {
        return Status::InvalidArgument(
            "dimension '" + dimension +
            "' filters need non-negative integers");
      }
      clause.values.push_back(static_cast<uint64_t>(value.as_int64()));
    }
  }
  if (clause.values.empty()) {
    // Nothing can match; encode an impossible coordinate.
    clause.values.push_back(schema->dimensions()[*dim].cardinality);
  }
  return clause;
}

Result<aosi::Epoch> Database::Checkpoint() {
  if (options_.data_dir.empty()) {
    return Status::FailedPrecondition("no data_dir configured");
  }
  const aosi::Epoch to = txns_.LCE();
  // Flush outside mutex_ (see SnapshotCubes): a flush round walks every
  // brick through the shard queues and can block on backpressure.
  for (const CubeRef& cube : SnapshotCubes()) {
    // Resume from what this cube has durably flushed, NOT from LSE: LSE
    // can be clamped below the manifest by an active snapshot, and
    // re-flushing that range would duplicate rows on recovery.
    const aosi::Epoch from = cube.flusher->ManifestLse();
    if (aosi::AtOrBefore(to, from)) continue;
    auto stats = cube.flusher->FlushRound(cube.table, from, to);
    if (!stats.ok()) return stats.status();
  }
  const aosi::Epoch lse = txns_.TryAdvanceLSE(to);
  PurgeAll();
  return lse;
}

PurgeStats Database::PurgeAll(PurgeMode mode) {
  const aosi::Epoch lse = txns_.LSE();
  PurgeStats total;
  // Purge outside mutex_ (see SnapshotCubes): brick rewrites run on the
  // shard queues and can block on backpressure.
  for (const CubeRef& cube : SnapshotCubes()) {
    const PurgeStats stats = cube.table->Purge(lse, mode);
    total.bricks_examined += stats.bricks_examined;
    total.bricks_rewritten += stats.bricks_rewritten;
    total.bricks_erased += stats.bricks_erased;
    total.records_removed += stats.records_removed;
  }
  return total;
}

Status Database::Recover() {
  if (options_.data_dir.empty()) {
    return Status::FailedPrecondition("no data_dir configured");
  }
  // Replay every cube, then truncate to the minimum recovered LSE so a
  // checkpoint that crashed between cubes cannot surface a half-flushed
  // transaction. Runs on the startup path, but still off mutex_ (see
  // SnapshotCubes): replay and truncation push work through the shard
  // queues and can block on backpressure.
  const std::vector<CubeRef> cubes = SnapshotCubes();
  aosi::Epoch min_lse = aosi::kEpochMax;
  bool any = false;
  for (const CubeRef& cube : cubes) {
    auto result = cube.flusher->Recover(cube.table);
    if (!result.ok()) return result.status();
    any = true;
    min_lse = aosi::MinEpoch(min_lse, result->lse);
  }
  if (!any) return Status::OK();
  for (const CubeRef& cube : cubes) {
    cube.table->TruncateAfter(min_lse);
  }
  txns_.RestoreAfterRecovery(
      aosi::SameEpoch(min_lse, aosi::kEpochMax) ? aosi::kNoEpoch : min_lse);
  return Status::OK();
}

uint64_t Database::TotalRecords() {
  MutexLock lock(mutex_);
  uint64_t n = 0;
  for (auto& [name, state] : cubes_) n += state.table->TotalRecords();
  return n;
}

size_t Database::DataMemoryUsage() {
  MutexLock lock(mutex_);
  size_t bytes = 0;
  for (auto& [name, state] : cubes_) bytes += state.table->DataMemoryUsage();
  return bytes;
}

size_t Database::HistoryMemoryUsage() {
  MutexLock lock(mutex_);
  size_t bytes = 0;
  for (auto& [name, state] : cubes_) {
    bytes += state.table->HistoryMemoryUsage();
  }
  return bytes;
}

std::vector<std::string> Database::CubeNames() const {
  MutexLock lock(mutex_);
  std::vector<std::string> names;
  for (const auto& [name, state] : cubes_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace cubrick
