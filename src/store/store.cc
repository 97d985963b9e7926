#include "store/store.h"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <optional>
#include <utility>

namespace cqa {
namespace store {

namespace {

constexpr char kWalFile[] = "wal.log";

Status Corrupt(std::string message) {
  return Status(StatusCode::kCorruptedData, std::move(message));
}

/// "snapshot-00000000000000000042.snap" — fixed width so lexicographic
/// and numeric order agree.
std::string SeqName(const char* prefix, std::uint64_t seq,
                    const char* suffix) {
  char digits[21];
  std::snprintf(digits, sizeof(digits), "%020llu",
                static_cast<unsigned long long>(seq));
  return std::string(prefix) + digits + suffix;
}

std::string SnapshotName(std::uint64_t seq) {
  return SeqName("snapshot-", seq, ".snap");
}

std::string VerdictName(std::uint64_t seq) {
  return SeqName("verdicts-", seq, ".bin");
}

/// Parses `name` as prefix + 20 digits + suffix.
bool ParseSeqName(const std::string& name, const std::string& prefix,
                  const std::string& suffix, std::uint64_t* seq) {
  if (name.size() != prefix.size() + 20 + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(prefix.size() + 20, suffix.size(), suffix) != 0) {
    return false;
  }
  std::uint64_t out = 0;
  for (std::size_t i = prefix.size(); i < prefix.size() + 20; ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return false;
    out = out * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *seq = out;
  return true;
}

/// Applies one replayed record to the bare database. The service
/// validated the batch before it was logged, so anything unresolvable
/// here means the WAL and the snapshot disagree — corruption.
Status ReplayRecord(const WalRecord& record, Database* db) {
  for (const NamedFact& fact : record.facts) {
    RelationId relation = db->schema().Find(fact.relation);
    if (relation == Schema::kNotFound) {
      return Corrupt("wal replay: unknown relation " + fact.relation);
    }
    if (fact.args.size() != db->schema().Relation(relation).arity) {
      return Corrupt("wal replay: arity mismatch for " + fact.relation);
    }
    if (record.kind == WalRecord::Kind::kInsert) {
      // Set semantics make replayed inserts idempotent.
      db->AddFactNamed(relation, fact.args);
    } else {
      Fact target;
      target.relation = relation;
      for (const std::string& name : fact.args) {
        ElementId e = db->elements().Find(name);
        if (e == Interner::kNotFound) {
          return Corrupt("wal replay: deleted fact names unknown element");
        }
        target.args.push_back(e);
      }
      FactId id = db->FindFact(target);
      if (id == Database::kNoFact) {
        return Corrupt("wal replay: deleted fact not present");
      }
      db->RemoveFact(id);
    }
  }
  return Status::Ok();
}

}  // namespace

DurableStore::DurableStore(std::string dir, const Options& options)
    : dir_(std::move(dir)), options_(options) {}

StatusOr<std::unique_ptr<DurableStore>> DurableStore::Create(
    const std::string& dir, const Database& db, const MetaCounters& meta,
    const Options& options) {
  Status wiped = RemoveDirRecursive(dir);
  if (!wiped.ok()) return wiped;
  Status made = MakeDirs(dir);
  if (!made.ok()) return made;

  Status snap = WriteFileAtomic(dir + "/" + SnapshotName(0),
                                EncodeSnapshot(db, 0, meta));
  if (!snap.ok()) return snap;

  std::unique_ptr<DurableStore> store(new DurableStore(dir, options));
  StatusOr<AppendFile> wal =
      AppendFile::Open(dir + "/" + kWalFile, /*truncate_to=*/0);
  if (!wal.ok()) return wal.status();
  store->wal_ = std::move(wal).value();
  Status header = store->wal_.Append(kWalMagic);
  if (header.ok()) header = store->wal_.Sync();
  if (!header.ok()) return header;

  store->counters_.wal_bytes = kWalMagic.size();
  store->counters_.snapshots = 1;
  return store;
}

StatusOr<DurableStore::OpenResult> DurableStore::Open(const std::string& dir,
                                                      const Options& options) {
  StatusOr<std::vector<std::string>> entries = ListDir(dir);
  if (!entries.ok()) {
    if (entries.status().code() == StatusCode::kNotFound) {
      return Status(StatusCode::kNotFound, "no durable state at " + dir);
    }
    return entries.status();
  }

  std::vector<std::uint64_t> snapshot_seqs;
  for (const std::string& name : *entries) {
    std::uint64_t seq = 0;
    if (ParseSeqName(name, "snapshot-", ".snap", &seq)) {
      snapshot_seqs.push_back(seq);
    }
  }
  if (snapshot_seqs.empty()) {
    return Status(StatusCode::kNotFound, "no snapshot in " + dir);
  }
  std::sort(snapshot_seqs.rbegin(), snapshot_seqs.rend());

  // Newest snapshot that decodes cleanly wins.
  std::optional<DecodedSnapshot> snapshot;
  std::uint64_t snapshot_seq = 0;
  Status snapshot_error = Status::Ok();
  for (std::uint64_t seq : snapshot_seqs) {
    StatusOr<std::string> bytes = ReadFile(dir + "/" + SnapshotName(seq));
    if (!bytes.ok()) {
      snapshot_error = bytes.status();
      continue;
    }
    StatusOr<DecodedSnapshot> decoded = DecodeSnapshot(*bytes);
    if (!decoded.ok()) {
      snapshot_error = decoded.status();
      continue;
    }
    snapshot.emplace(std::move(decoded).value());
    snapshot_seq = seq;
    break;
  }
  if (!snapshot.has_value()) {
    return Corrupt("no snapshot decodes cleanly: " +
                   snapshot_error.ToString());
  }
  Database db = std::move(snapshot->db);
  std::uint64_t last_seq = snapshot->last_seq;

  // WAL tail: decode the valid prefix, replay records above the
  // snapshot's watermark, and physically truncate anything after the
  // prefix (torn record, bad checksum) so appends resume from a clean
  // end. A missing WAL (crash before the header landed) is empty.
  const std::string wal_path = dir + "/" + kWalFile;
  std::string wal_bytes;
  StatusOr<std::string> read = ReadFile(wal_path);
  if (read.ok()) {
    wal_bytes = std::move(read).value();
  } else if (read.status().code() != StatusCode::kNotFound) {
    return read.status();
  }
  WalDecodeResult decoded_wal = DecodeWal(wal_bytes);
  std::uint64_t replayed = 0;
  for (const WalRecord& record : decoded_wal.records) {
    if (record.seq <= snapshot_seq) continue;  // Covered by the snapshot.
    if (record.seq <= last_seq) {
      return Corrupt("wal replay: sequence numbers not increasing");
    }
    Status applied = ReplayRecord(record, &db);
    if (!applied.ok()) return applied;
    last_seq = record.seq;
    ++replayed;
  }

  std::unique_ptr<DurableStore> store(new DurableStore(dir, options));
  StatusOr<AppendFile> wal = AppendFile::Open(
      wal_path,
      /*truncate_to=*/static_cast<std::int64_t>(decoded_wal.valid_bytes));
  if (!wal.ok()) return wal.status();
  store->wal_ = std::move(wal).value();
  if (decoded_wal.valid_bytes < kWalMagic.size()) {
    // The header itself was lost or torn; rewrite it.
    Status header = store->wal_.Append(kWalMagic);
    if (header.ok()) header = store->wal_.Sync();
    if (!header.ok()) return header;
    store->counters_.wal_bytes = kWalMagic.size();
  } else {
    store->counters_.wal_bytes = decoded_wal.valid_bytes;
  }
  store->counters_.wal_records = decoded_wal.records.size();
  store->counters_.last_seq = last_seq;
  store->next_seq_ = last_seq + 1;

  // The persisted verdict cache is an optimization: a missing or corrupt
  // file costs warm starts, never correctness, so it is discarded (not
  // fatal) on any validation failure.
  PersistedVerdictMap verdicts;
  if (options.persist_verdicts) {
    const std::string verdict_path = dir + "/" + VerdictName(snapshot_seq);
    StatusOr<std::string> verdict_bytes = ReadFile(verdict_path);
    if (verdict_bytes.ok()) {
      StatusOr<PersistedVerdictMap> imported =
          DecodeVerdicts(*verdict_bytes, db);
      if (imported.ok()) verdicts = std::move(imported).value();
    }
  }

  OpenResult result{std::move(store),    std::move(db),
                    last_seq,            snapshot->meta,
                    std::move(verdicts), replayed};
  return StatusOr<OpenResult>(std::move(result));
}

Status DurableStore::AppendBatch(WalRecord::Kind kind,
                                 std::vector<NamedFact> facts) {
  std::lock_guard lock(mu_);
  WalRecord record;
  record.seq = next_seq_;
  record.kind = kind;
  record.facts = std::move(facts);
  std::string bytes = EncodeWalRecord(record);

  Status appended = wal_.Append(bytes);
  if (!appended.ok()) return appended;
  switch (options_.fsync) {
    case FsyncPolicy::kEveryBatch: {
      Status synced = wal_.Sync();
      if (!synced.ok()) return synced;
      break;
    }
    case FsyncPolicy::kInterval:
      if (++records_since_sync_ >= options_.fsync_interval) {
        records_since_sync_ = 0;
        Status synced = wal_.Sync();
        if (!synced.ok()) return synced;
      }
      break;
    case FsyncPolicy::kNone:
      break;
  }

  counters_.last_seq = next_seq_;
  ++next_seq_;
  ++records_since_snapshot_;
  ++counters_.wal_records;
  counters_.wal_bytes += bytes.size();
  return Status::Ok();
}

bool DurableStore::ShouldSnapshot() const {
  std::lock_guard lock(mu_);
  return options_.snapshot_interval > 0 &&
         records_since_snapshot_ >= options_.snapshot_interval;
}

Status DurableStore::WriteSnapshot(const Database& db,
                                   const MetaCounters& meta,
                                   const PersistedVerdictMap& verdicts) {
  std::lock_guard lock(mu_);
  const std::uint64_t seq = next_seq_ - 1;

  Status written = WriteFileAtomic(dir_ + "/" + SnapshotName(seq),
                                   EncodeSnapshot(db, seq, meta));
  if (!written.ok()) return written;
  if (options_.persist_verdicts && !verdicts.empty()) {
    Status vwritten = WriteFileAtomic(dir_ + "/" + VerdictName(seq),
                                      EncodeVerdicts(verdicts));
    if (!vwritten.ok()) return vwritten;
  }

  // Prune: keep this snapshot and the newest older one (recovery's
  // fallback), drop everything else including orphaned verdict files and
  // abandoned tmp files.
  StatusOr<std::vector<std::string>> entries = ListDir(dir_);
  if (entries.ok()) {
    std::uint64_t keep_older = 0;
    bool have_older = false;
    for (const std::string& name : *entries) {
      std::uint64_t s = 0;
      if (ParseSeqName(name, "snapshot-", ".snap", &s) && s < seq &&
          (!have_older || s > keep_older)) {
        keep_older = s;
        have_older = true;
      }
    }
    for (const std::string& name : *entries) {
      std::uint64_t s = 0;
      bool drop = false;
      if (ParseSeqName(name, "snapshot-", ".snap", &s)) {
        drop = s != seq && (!have_older || s != keep_older);
      } else if (ParseSeqName(name, "verdicts-", ".bin", &s)) {
        drop = s != seq && (!have_older || s != keep_older);
      } else if (name.size() > 4 &&
                 name.compare(name.size() - 4, 4, ".tmp") == 0) {
        drop = true;
      }
      if (drop) {
        Status removed = RemoveFile(dir_ + "/" + name);
        if (!removed.ok()) return removed;
      }
    }
  }

  // Reset the WAL to its header: every record at or below `seq` is now
  // covered by the snapshot (and replay would skip it anyway, which is
  // what makes a crash before this truncation harmless).
  Status reset = ResetWalLocked();
  if (!reset.ok()) return reset;

  ++counters_.snapshots;
  counters_.wal_records = 0;
  counters_.wal_bytes = kWalMagic.size();
  records_since_snapshot_ = 0;
  records_since_sync_ = 0;
  return Status::Ok();
}

Status DurableStore::ResetWalLocked() {
  wal_.Close();  // Drops any unsynced buffer — those records are in the
                 // snapshot that was just made durable.
  StatusOr<AppendFile> wal = AppendFile::Open(
      dir_ + "/" + kWalFile,
      /*truncate_to=*/static_cast<std::int64_t>(kWalMagic.size()));
  if (!wal.ok()) return wal.status();
  wal_ = std::move(wal).value();
  return Status::Ok();
}

DurableStore::Counters DurableStore::counters() const {
  std::lock_guard lock(mu_);
  return counters_;
}

Status DurableStore::Destroy(const std::string& dir) {
  return RemoveDirRecursive(dir);
}

}  // namespace store
}  // namespace cqa
