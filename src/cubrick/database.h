// Database: the single-node public API of the Cubrick/AOSI engine.
//
// Wraps one TxnManager plus one sharded Table per cube, and exposes the
// operation set the paper defines (§III-A): read, append and delete —
// either as implicit single-operation transactions or inside explicit
// transactions the caller begins/commits/rolls back. Persistence is a
// checkpoint (flush round + LSE advance) against a data directory, with
// crash recovery on startup.
//
// For the distributed deployment use cluster::Cluster, which composes the
// same building blocks across simulated nodes.

#pragma once

#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "aosi/txn_manager.h"
#include "check/online_checker.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "cubrick/ddl.h"
#include "engine/table.h"
#include "ingest/parser.h"
#include "persist/flush_manager.h"
#include "query/query.h"

namespace cubrick {

struct DatabaseOptions {
  size_t shards_per_cube = 2;
  /// Dedicated shard threads; inline execution when false.
  bool threaded_shards = false;
  /// Directory for flush segments; empty disables persistence.
  std::string data_dir;
  /// Enables the §III-C5 txn->partition rollback index (memory for speed).
  bool rollback_index = false;
  /// Pins shard threads to CPUs (§V-B NUMA locality; threaded mode only).
  bool pin_shard_threads = false;
  /// Morsel-parallel ingestion (DESIGN.md §4f): maximum parse/encode
  /// workers per load request (record morsels fanned out on
  /// ThreadPool::Global(); see ParseRecords). Output is bit-identical at
  /// any setting; the default is the pool size. Queries need no such
  /// setting: every scan fans out over the whole pool (Table::Scan) and
  /// always uses the per-brick visibility-bitmap cache (DESIGN.md §4c).
  size_t ingest_parallelism = ThreadPool::Global().num_threads();
  /// Period of the background flush/purge thread; 0 disables it. Requires
  /// data_dir.
  int64_t auto_checkpoint_interval_ms = 0;
  /// Installs the online SI checker (src/check/online_checker.h) for this
  /// database's lifetime: sampled transactions and scans are validated
  /// against the §III-B/C visibility rules while the system runs, with
  /// violations and health published as check.online.* metrics. Process-
  /// global hook — at most one Database (or manually installed checker)
  /// may enable it at a time.
  bool online_check = false;
  /// Sampling rate out of 1000 for the online checker (1000 = check every
  /// transaction). Ignored unless online_check is set.
  uint32_t online_check_sample_permille = 1000;
  /// Scan-kernel SIMD backend override: "scalar"|"avx2"|"neon"|"auto"
  /// (common/simd.h). Empty keeps the process default (CUBRICK_SIMD env, or
  /// auto-detect). Process-global: results are bit-identical across
  /// backends, so this only affects speed, never answers.
  std::string simd;
};

/// Per-load timing breakdown (single-node flavor of cluster::LoadStats).
struct LoadTiming {
  int64_t parse_us = 0;
  int64_t flush_us = 0;
  int64_t total_us = 0;
};

class Database {
 public:
  explicit Database(DatabaseOptions options = {});
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- DDL ---------------------------------------------------------------

  /// Executes a CREATE CUBE statement.
  Status ExecuteDdl(const std::string& ddl);
  Status CreateCube(const std::string& name,
                    std::vector<DimensionDef> dimensions,
                    std::vector<MetricDef> metrics);
  Status DropCube(const std::string& name);

  std::shared_ptr<const CubeSchema> FindSchema(const std::string& name) const;
  Table* FindTable(const std::string& name) const;

  // --- Implicit transactions (one operation, auto commit) -----------------

  /// Loads a batch in one implicit RW transaction.
  Status Load(const std::string& cube, const std::vector<Record>& records,
              const ParseOptions& options = {}, LoadTiming* timing = nullptr);

  /// Runs a query in one implicit RO transaction (at LCE).
  Result<QueryResult> Query(const std::string& cube,
                            const cubrick::Query& query,
                            ScanMode mode = ScanMode::kSnapshotIsolation);

  /// Deletes all partitions fully covered by `filters` in one implicit RW
  /// transaction.
  Status DeletePartitions(const std::string& cube,
                          const std::vector<FilterClause>& filters);

  // --- Explicit transactions ----------------------------------------------

  aosi::Txn Begin();
  aosi::Txn BeginReadOnly();
  Status Commit(const aosi::Txn& txn);
  /// Aborts and physically removes the transaction's appends everywhere.
  Status Rollback(const aosi::Txn& txn);

  Status LoadIn(const aosi::Txn& txn, const std::string& cube,
                const std::vector<Record>& records,
                const ParseOptions& options = {});
  Result<QueryResult> QueryIn(const aosi::Txn& txn, const std::string& cube,
                              const cubrick::Query& query,
                              ScanMode mode = ScanMode::kSnapshotIsolation);
  Status DeletePartitionsIn(const aosi::Txn& txn, const std::string& cube,
                            const std::vector<FilterClause>& filters);

  /// Row-wise point reads (SELECT-style): materializes up to
  /// `options.limit` visible rows matching the query's filters, with string
  /// columns decoded. Implicit RO transaction.
  Result<std::vector<MaterializedRow>> Select(
      const std::string& cube, const cubrick::Query& query,
      const MaterializeOptions& options = {});

  // --- Filters over user-facing values ------------------------------------

  /// Builds an equality filter, translating string values through the
  /// dimension's dictionary. A string value never ingested yields a filter
  /// matching nothing.
  Result<FilterClause> EqFilter(const std::string& cube,
                                const std::string& dimension,
                                const Value& value) const;

  /// Builds a coordinate-range filter over an integer dimension.
  Result<FilterClause> RangeFilter(const std::string& cube,
                                   const std::string& dimension, uint64_t lo,
                                   uint64_t hi) const;

  /// Builds an IN-list filter; each value is translated like EqFilter.
  /// Values never ingested are dropped from the list (they can't match).
  Result<FilterClause> InFilter(const std::string& cube,
                                const std::string& dimension,
                                const std::vector<Value>& values) const;

  // --- Maintenance ---------------------------------------------------------

  /// Flushes every cube up to the current LCE, advances LSE, and purges.
  /// Returns the new LSE. Requires a data_dir.
  Result<aosi::Epoch> Checkpoint();

  /// Runs the purge procedure on every cube at the current LSE. See
  /// PurgeMode: the default phased pipeline runs concurrently with scans.
  PurgeStats PurgeAll(PurgeMode mode = PurgeMode::kConcurrent);

  /// Replays flush segments from data_dir into the (freshly created) cubes
  /// and restores the epoch counters. Call after recreating schemas via
  /// DDL on a fresh Database. Data from flush rounds that did not complete
  /// on every cube is truncated for cross-cube consistency.
  Status Recover();

  // --- Introspection -------------------------------------------------------

  aosi::TxnManager& txns() { return txns_; }
  /// The online checker, or nullptr when options.online_check is off.
  check::OnlineChecker* online_checker() { return online_checker_.get(); }
  uint64_t TotalRecords();
  size_t DataMemoryUsage();
  size_t HistoryMemoryUsage();
  std::vector<std::string> CubeNames() const;

 private:
  struct CubeState {
    std::unique_ptr<Table> table;
    std::unique_ptr<persist::FlushManager> flusher;
  };

  /// Per-cube engine pointers snapshotted under mutex_. Bulk operations
  /// (rollback, purge, checkpoint, recovery) iterate this snapshot with the
  /// lock released: table operations fan work out to shard queues that
  /// apply backpressure, and holding mutex_ across that wait would stall
  /// every registry lookup behind a full queue. Pointer lifetime follows
  /// the FindTable() convention — DDL is serialized against data
  /// operations by the caller, mutex_ guards only the map itself.
  struct CubeRef {
    Table* table;
    persist::FlushManager* flusher;
  };
  std::vector<CubeRef> SnapshotCubes() const;

  /// Body of the background checkpoint thread (§III-D: "disk flushes are
  /// constantly being executed in the background").
  void CheckpointLoop();

  DatabaseOptions options_;
  std::unique_ptr<check::OnlineChecker> online_checker_;
  aosi::TxnManager txns_;
  mutable Mutex mutex_;
  std::unordered_map<std::string, CubeState> cubes_ GUARDED_BY(mutex_);

  Mutex flusher_mutex_;
  CondVar flusher_cv_;
  bool stop_flusher_ GUARDED_BY(flusher_mutex_) = false;
  std::thread flusher_thread_;
};

}  // namespace cubrick
