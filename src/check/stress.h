// Deterministic snapshot-isolation stress harness.
//
// Runs a seeded mix of concurrent append / delete / read transactions,
// rollbacks, purge cycles and checkpoint/recovery against a system under
// test — single-node cubrick::Database or cluster::Cluster — while logging
// every logical operation into an SiOracle (si_oracle.h). Every query the
// workload issues (read-only snapshots, reads inside open RW transactions,
// post-recovery reads) is diffed against the oracle's answer for the exact
// same snapshot; any divergence is an SI violation and produces a replayable
// report: the seed, the derived configuration, and the interleaved per-thread
// operation trace.
//
// Determinism: each worker's full operation plan — op kinds, record
// batches, queries, delete predicates, coordinator choices, commit/abort
// coin flips — is pre-generated from (seed, thread id) on the main thread
// before any worker launches. No RNG is consulted while threads run, and no
// draw is conditional on runtime state (a rejected delete decides whether a
// pre-drawn batch is *used*, never whether it was *drawn*), so a failing
// seed re-runs the bit-identical workload regardless of scheduler, sanitizer
// or machine. The thread interleaving itself remains scheduler-dependent —
// that is the point: the oracle comparison is interleaving-independent
// because visibility under AOSI is a pure function of (epoch, deps) and the
// per-epoch operation sets.
//
// Oracle/engine ordering contract (what makes the comparison race-free):
//   * a transaction's operations are logged to the oracle before it commits
//     (nothing can see an epoch before its commit), and removed from the
//     oracle before the engine finalizes its abort;
//   * writers hold a shared structure lock; partition deletes hold it
//     exclusively while capturing the engine's covered-brick set, so the
//     oracle's delete scope is byte-identical to the engine's.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cubrick::check {

struct StressOptions {
  uint64_t seed = 1;
  int threads = 4;
  int ops_per_thread = 100;
  size_t shards_per_cube = 2;
  bool threaded_shards = true;
  /// §III-C5 rollback index (single-node only).
  bool rollback_index = false;
  /// Enables checkpoint operations in the mix plus a crash/recovery epilogue
  /// validated against the oracle.
  bool with_persistence = false;
  /// Morsel-parallel ingest fan-out (single-node mode; see
  /// DatabaseOptions::ingest_parallelism). Drawn per seed by
  /// MakeSeedConfig. Safe to diff against the oracle at any value: parse
  /// output is bit-identical at every fan-out (DESIGN.md §4f), so what the
  /// draw adds is coverage of snapshot publication, sorted batch inserts
  /// and group shard appends racing scans, purge and recovery. Queries need
  /// no draw: every scan fans out over the whole pool with the visibility
  /// cache on, and its result is bit-identical at any worker count
  /// (DESIGN.md §4b).
  size_t ingest_parallelism = 1;
  /// Scan-kernel SIMD backend for the run: a common/simd.h name such as
  /// "scalar", or empty for the process default (CUBRICK_SIMD, else the
  /// best native backend). Drawn per seed and installed process-wide for
  /// the seed — kernel results are bit-identical across backends
  /// (DESIGN.md §4e), so the oracle diff passing under both is an
  /// end-to-end equivalence proof.
  std::string simd;
  /// Installs the online SI checker (online_checker.h) for the duration of
  /// the run — single-node via DatabaseOptions::online_check, cluster via a
  /// harness-owned checker spanning workload and epilogues. Any violation
  /// the checker records becomes a report failure, so the online checker is
  /// itself cross-checked against the offline oracle on every --online run.
  bool online_check = false;
  /// Runs a dedicated purge thread for the whole workload (single-node
  /// mode): it loops LSE advance + Database::PurgeAll() — the concurrent
  /// phased pipeline (engine/table.cc) — under the shared structure lock
  /// while workers append, delete and scan. Drawn per seed. Purge only
  /// compacts history at or below the LSE, which every live snapshot is at
  /// or past, so the oracle comparison is unchanged; what the draw adds is
  /// scans racing compaction installs, vis-cache invalidation and EBR
  /// retirement of displaced history vectors.
  bool purge_stress = false;
  /// Cluster mode only.
  uint32_t num_nodes = 3;
  size_t replication_factor = 2;
  uint32_t message_latency_us = 0;
  /// Root for per-seed persistence scratch directories; empty uses the
  /// system temp directory. Always cleaned up.
  std::string scratch_dir;
};

struct StressReport {
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t deletes = 0;
  uint64_t delete_rejects = 0;
  uint64_t queries = 0;
  uint64_t ryw_queries = 0;
  uint64_t maintenance = 0;
  uint64_t checkpoints = 0;
  /// Rounds completed by the dedicated purge thread (purge_stress only).
  uint64_t purge_rounds = 0;
  uint64_t records_appended = 0;
  /// Empty on success; each entry is a full replayable diagnostic.
  std::vector<std::string> failures;

  bool ok() const { return failures.empty(); }
  void MergeCounters(const StressReport& other);
  std::string Summary() const;
};

/// Derives a varied configuration from `seed` — shard count, threaded vs
/// inline shards, rollback index, persistence, replication factor, simulated
/// latency, ingest fan-out, SIMD backend, purge stress — so a seed sweep
/// covers the configuration matrix. The config line of a failure report
/// records every draw, and its replay command reproduces them.
StressOptions MakeSeedConfig(uint64_t seed, bool cluster);

/// Runs the workload against cubrick::Database (with a crash+Recover()
/// epilogue when options.with_persistence).
StressReport RunSingleNodeStress(const StressOptions& options);

/// Runs the workload against cluster::Cluster (with a CrashNode/RecoverNode
/// epilogue when options.with_persistence && replication_factor >= 2).
StressReport RunClusterStress(const StressOptions& options);

}  // namespace cubrick::check
