// DurableStore: one database's on-disk state — WAL + snapshots.
//
// Directory layout (one directory per database):
//
//   wal.log                    append-only record stream ("CQAWAL01")
//   snapshot-<seq 20d>.snap    full state through WAL sequence <seq>
//   verdicts-<seq 20d>.bin     verdict cache exported with that snapshot
//
// The mutation protocol is WAL-before-apply: the service validates a
// batch, calls AppendBatch (which frames, appends, and — under
// FsyncPolicy::kEveryBatch — fsyncs one record), and only then applies
// the batch in memory and acknowledges it. An acknowledged batch is
// therefore durable by construction under kEveryBatch; kInterval and
// kNone trade a bounded (resp. unbounded-until-snapshot) window of
// acknowledged-but-lost batches for throughput, and the recovery_test
// matrix distinguishes the two guarantees explicitly.
//
// Snapshots: after every `snapshot_interval` records the service forces a
// Compact() and calls WriteSnapshot, which atomically writes the columns
// (tmp + fsync + rename), writes the verdict export beside it, prunes all
// but the two newest snapshots, and resets the WAL to its header. A crash
// anywhere in that sequence is safe: the WAL covers everything until the
// rename lands, and replay skips records at or below the snapshot's
// sequence number, so an un-reset WAL merely replays into no-ops.
//
// Open() is recovery: pick the newest snapshot that decodes cleanly
// (falling back to the previous one), replay the WAL tail above its
// sequence number, truncate any torn or corrupt WAL suffix (detected by
// length/checksum, never silently loaded), and hand back the rebuilt
// database plus the persisted verdict cache for the service to import.
//
// All methods serialize on one RankedMutex<kWal>, which sits below the
// per-database structure lock (mutations already hold that exclusively).
// The verdicts a snapshot persists are exported before it is taken.

#ifndef CQA_STORE_STORE_H_
#define CQA_STORE_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/status.h"
#include "base/lock_rank.h"
#include "data/database.h"
#include "store/io.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace cqa {
namespace store {

/// When an acknowledged batch is guaranteed durable.
enum class FsyncPolicy {
  kEveryBatch,  ///< fsync before every acknowledgement (the guarantee).
  kInterval,    ///< fsync every fsync_interval batches (bounded loss).
  kNone,        ///< fsync only at snapshots (throughput benchmark floor).
};

class DurableStore {
 public:
  struct Options {
    FsyncPolicy fsync = FsyncPolicy::kEveryBatch;
    /// Batches between fsyncs under FsyncPolicy::kInterval.
    std::uint32_t fsync_interval = 32;
    /// WAL records between snapshots; 0 disables automatic snapshots.
    std::uint32_t snapshot_interval = 1024;
    /// Export/import the verdict cache with each snapshot.
    bool persist_verdicts = true;
  };

  /// Live WAL/snapshot accounting, surfaced through Service::Stats().
  struct Counters {
    std::uint64_t wal_records = 0;  ///< Records in the current WAL.
    std::uint64_t wal_bytes = 0;    ///< Bytes appended to it (incl. header).
    std::uint64_t snapshots = 0;    ///< Snapshots written by this store.
    std::uint64_t last_seq = 0;     ///< Highest sequence number assigned.
  };

  /// Everything Open() recovered; the service rebuilds the in-memory
  /// entry from it.
  struct OpenResult {
    std::unique_ptr<DurableStore> store;
    Database db;
    std::uint64_t last_seq = 0;
    MetaCounters meta;
    PersistedVerdictMap verdicts;
    std::uint64_t replayed_records = 0;  ///< WAL records applied on top
                                         ///< of the snapshot.
  };

  /// Initializes `dir` for a new database: wipes any previous contents,
  /// writes snapshot 0 of `db`, and opens a fresh WAL.
  [[nodiscard]] static StatusOr<std::unique_ptr<DurableStore>> Create(
      const std::string& dir, const Database& db, const MetaCounters& meta,
      const Options& options);

  /// Recovers from `dir`: newest valid snapshot + WAL tail replay + torn
  /// tail truncation. kNotFound if the directory holds no snapshot at
  /// all; kCorruptedData if snapshots exist but none decodes.
  [[nodiscard]] static StatusOr<OpenResult> Open(const std::string& dir,
                                                 const Options& options);

  /// Appends one batch as a WAL record (assigning the next sequence
  /// number) and applies the configured fsync policy. Must be called
  /// BEFORE the batch is applied in memory; an error means the batch must
  /// not be acknowledged.
  [[nodiscard]] Status AppendBatch(WalRecord::Kind kind,
                                   std::vector<NamedFact> facts);

  /// True when snapshot_interval records have accumulated since the last
  /// snapshot (never true when the interval is 0).
  bool ShouldSnapshot() const;

  /// Writes a snapshot of `db` (which must reflect every acknowledged
  /// batch) plus the verdict export, prunes old snapshots, and resets the
  /// WAL. On error the store remains usable and the WAL still covers
  /// everything — a failed snapshot loses no data.
  [[nodiscard]] Status WriteSnapshot(const Database& db,
                                     const MetaCounters& meta,
                                     const PersistedVerdictMap& verdicts);

  Counters counters() const;

  /// Deletes the database's directory tree (DropDatabase).
  [[nodiscard]] static Status Destroy(const std::string& dir);

 private:
  DurableStore(std::string dir, const Options& options);

  Status ResetWalLocked();

  const std::string dir_;
  const Options options_;

  mutable RankedMutex<LockRank::kWal> mu_;
  AppendFile wal_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t records_since_snapshot_ = 0;
  std::uint64_t records_since_sync_ = 0;
  Counters counters_;
};

}  // namespace store
}  // namespace cqa

#endif  // CQA_STORE_STORE_H_
