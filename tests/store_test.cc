// Unit tests for the durability layer (src/store): the binary codecs,
// the fault-injectable I/O primitives, and the DurableStore lifecycle.
// Every decoder here is exercised on both the round-trip path and on
// corrupt input — a torn tail, a flipped bit, a garbage length — where
// the contract is a *typed* kCorruptedData naming the failure, never an
// abort and never a silently half-loaded state.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data/database.h"
#include "data/schema.h"
#include "scratch_dir.h"
#include "store/format.h"
#include "store/io.h"
#include "store/snapshot.h"
#include "store/store.h"
#include "store/wal.h"

namespace cqa {
namespace store {
namespace {

Schema TwoRelationSchema() {
  Schema schema;
  schema.AddRelation("R", 2, 1);
  schema.AddRelation("S", 3, 2);
  return schema;
}

// Alive facts as (relation name, element names), in slot order — the
// content-level equality the snapshot round trip must preserve.
std::vector<std::pair<std::string, std::vector<std::string>>> NamedFacts(
    const Database& db) {
  std::vector<std::pair<std::string, std::vector<std::string>>> out;
  for (FactId id = 0; id < db.NumFacts(); ++id) {
    if (!db.alive(id)) continue;
    FactRef fact = db.fact(id);
    std::vector<std::string> args;
    for (ElementId el : fact.args) {
      args.emplace_back(db.elements().Name(el));
    }
    out.emplace_back(db.schema().Relation(fact.relation).name,
                     std::move(args));
  }
  return out;
}

// -- format.h ----------------------------------------------------------

TEST(Crc32Test, KnownVectorAndSensitivity) {
  // The IEEE 802.3 check value: CRC-32 of "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_NE(Crc32("abc"), Crc32("abd"));  // One flipped bit changes it.
}

TEST(ByteCodecTest, RoundTrip) {
  ByteWriter writer;
  writer.U8(0xAB);
  writer.U32(0xDEADBEEF);
  writer.U64(0x0123456789ABCDEFull);
  writer.Str("hello");
  writer.Str("");  // Empty strings are representable.
  std::string bytes = writer.Take();

  ByteReader reader(bytes);
  std::uint8_t u8 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::string s1, s2;
  ASSERT_TRUE(reader.U8(&u8));
  ASSERT_TRUE(reader.U32(&u32));
  ASSERT_TRUE(reader.U64(&u64));
  ASSERT_TRUE(reader.Str(&s1));
  ASSERT_TRUE(reader.Str(&s2));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(s1, "hello");
  EXPECT_EQ(s2, "");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ByteCodecTest, ReadsPastEndFailWithoutMoving) {
  ByteWriter writer;
  writer.U32(7);
  std::string bytes = writer.Take();

  ByteReader reader(bytes);
  std::uint64_t u64 = 99;
  EXPECT_FALSE(reader.U64(&u64));  // Only 4 bytes remain.
  EXPECT_EQ(u64, 99u);             // Output untouched on failure.
  EXPECT_EQ(reader.pos(), 0u);     // Reader did not advance.

  std::uint32_t u32 = 0;
  ASSERT_TRUE(reader.U32(&u32));
  EXPECT_EQ(u32, 7u);
  EXPECT_FALSE(reader.Skip(1));
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ByteCodecTest, OversizedStringPrefixFails) {
  // A length prefix claiming more bytes than remain must fail — this is
  // the check that keeps a corrupt length from forcing a huge read.
  ByteWriter writer;
  writer.U32(1000);  // Claims 1000 bytes...
  writer.U8('x');    // ...but only 1 follows.
  std::string bytes = writer.Take();

  ByteReader reader(bytes);
  std::string s = "unchanged";
  EXPECT_FALSE(reader.Str(&s));
  EXPECT_EQ(s, "unchanged");
}

// -- wal.h -------------------------------------------------------------

std::string WalFileOf(const std::vector<WalRecord>& records) {
  std::string bytes(kWalMagic);
  for (const WalRecord& r : records) bytes += EncodeWalRecord(r);
  return bytes;
}

std::vector<WalRecord> SampleRecords() {
  WalRecord insert;
  insert.seq = 1;
  insert.kind = WalRecord::Kind::kInsert;
  insert.facts = {{"R", {"a", "b"}}, {"S", {"a", "b", "c"}}};
  WalRecord erase;
  erase.seq = 2;
  erase.kind = WalRecord::Kind::kDelete;
  erase.facts = {{"R", {"a", "b"}}};
  return {insert, erase};
}

TEST(WalCodecTest, RoundTrip) {
  std::string bytes = WalFileOf(SampleRecords());
  WalDecodeResult result = DecodeWal(bytes);
  EXPECT_TRUE(result.tail.ok()) << result.tail.ToString();
  EXPECT_EQ(result.valid_bytes, bytes.size());
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.records[0].seq, 1u);
  EXPECT_EQ(result.records[0].kind, WalRecord::Kind::kInsert);
  ASSERT_EQ(result.records[0].facts.size(), 2u);
  EXPECT_EQ(result.records[0].facts[1].relation, "S");
  EXPECT_EQ(result.records[0].facts[1].args,
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(result.records[1].kind, WalRecord::Kind::kDelete);
}

TEST(WalCodecTest, EmptyAndHeaderOnlyFilesAreValid) {
  WalDecodeResult empty = DecodeWal("");
  EXPECT_TRUE(empty.tail.ok());
  EXPECT_TRUE(empty.records.empty());

  WalDecodeResult header_only = DecodeWal(std::string(kWalMagic));
  EXPECT_TRUE(header_only.tail.ok());
  EXPECT_TRUE(header_only.records.empty());
  EXPECT_EQ(header_only.valid_bytes, kWalMagic.size());
}

TEST(WalCodecTest, GarbageAndShortHeadersAreCorrupt) {
  WalDecodeResult garbage = DecodeWal("NOTAWAL0 trailing bytes");
  EXPECT_EQ(garbage.tail.code(), StatusCode::kCorruptedData);
  EXPECT_EQ(garbage.valid_bytes, 0u);

  WalDecodeResult shorter = DecodeWal("CQA");
  EXPECT_EQ(shorter.tail.code(), StatusCode::kCorruptedData);
}

TEST(WalCodecTest, TornTailStopsAtLastGoodRecord) {
  std::vector<WalRecord> records = SampleRecords();
  std::string bytes = WalFileOf(records);
  std::size_t first_end = kWalMagic.size() + EncodeWalRecord(records[0]).size();
  // Cut mid-way through the second record — a torn append.
  std::string torn = bytes.substr(0, first_end + 5);

  WalDecodeResult result = DecodeWal(torn);
  EXPECT_EQ(result.tail.code(), StatusCode::kCorruptedData);
  ASSERT_EQ(result.records.size(), 1u);  // The intact prefix survives.
  EXPECT_EQ(result.records[0].seq, 1u);
  EXPECT_EQ(result.valid_bytes, first_end);  // The truncation point.
}

TEST(WalCodecTest, BitFlipFailsTheChecksum) {
  std::vector<WalRecord> records = SampleRecords();
  std::string bytes = WalFileOf(records);
  bytes[bytes.size() - 1] ^= 0x01;  // Flip a bit in the last payload.

  WalDecodeResult result = DecodeWal(bytes);
  EXPECT_EQ(result.tail.code(), StatusCode::kCorruptedData);
  EXPECT_NE(result.tail.message().find("checksum"), std::string::npos)
      << result.tail.message();
  EXPECT_EQ(result.records.size(), 1u);
}

TEST(WalCodecTest, GarbageLengthIsCorruptNotAHugeAllocation) {
  std::string bytes(kWalMagic);
  ByteWriter frame;
  frame.U32(kMaxWalPayload + 1);  // Length past the cap.
  frame.U32(0);
  bytes += frame.Take();
  bytes += std::string(64, 'x');

  WalDecodeResult result = DecodeWal(bytes);
  EXPECT_EQ(result.tail.code(), StatusCode::kCorruptedData);
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.valid_bytes, kWalMagic.size());
}

TEST(WalCodecTest, BadKindOrTrailingPayloadBytesAreCorrupt) {
  // A record whose payload checksums fine but parses wrong (kind 9) must
  // still be rejected: the checksum authenticates bytes, not semantics.
  ByteWriter payload;
  payload.U8(9);  // Not a WalRecord::Kind.
  payload.U64(1);
  payload.U32(0);
  std::string body = payload.Take();
  ByteWriter frame;
  frame.U32(static_cast<std::uint32_t>(body.size()));
  frame.U32(Crc32(body));
  std::string bytes = std::string(kWalMagic) + frame.Take() + body;

  WalDecodeResult result = DecodeWal(bytes);
  EXPECT_EQ(result.tail.code(), StatusCode::kCorruptedData);
  EXPECT_TRUE(result.records.empty());
}

// -- snapshot.h --------------------------------------------------------

Database SampleDb() {
  Database db(TwoRelationSchema());
  db.AddFactStr(0, "a b");
  db.AddFactStr(0, "b c");
  db.AddFactStr(1, "a b c");
  db.AddFactStr(0, "c d");
  return db;
}

TEST(SnapshotCodecTest, RoundTripPreservesContentAndCounters) {
  Database db = SampleDb();
  MetaCounters meta;
  meta.compactions = 3;
  meta.audits_run = 7;
  meta.audit_violations = 1;
  std::string bytes = EncodeSnapshot(db, /*last_seq=*/42, meta);

  StatusOr<DecodedSnapshot> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->last_seq, 42u);
  EXPECT_EQ(decoded->meta.compactions, 3u);
  EXPECT_EQ(decoded->meta.audits_run, 7u);
  EXPECT_EQ(decoded->meta.audit_violations, 1u);
  EXPECT_EQ(NamedFacts(decoded->db), NamedFacts(db));
  // The interner is restored verbatim, so element ids stay meaningful.
  EXPECT_EQ(decoded->db.elements().size(), db.elements().size());
}

TEST(SnapshotCodecTest, TombstonesSurviveTheRoundTrip) {
  // Snapshots are normally taken post-Compact, but the codec itself must
  // be faithful to whatever columns it is given — including dead slots.
  Database db = SampleDb();
  db.RemoveFact(1);
  std::string bytes = EncodeSnapshot(db, 1, {});

  StatusOr<DecodedSnapshot> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->db.NumFacts(), db.NumFacts());
  EXPECT_EQ(decoded->db.NumAliveFacts(), db.NumAliveFacts());
  EXPECT_FALSE(decoded->db.alive(1));
  EXPECT_EQ(NamedFacts(decoded->db), NamedFacts(db));
}

TEST(SnapshotCodecTest, EveryTruncationIsTypedCorruption) {
  // Chop the snapshot at every length: the decoder must return a typed
  // error on each prefix, never abort or return a half-built database.
  std::string bytes = EncodeSnapshot(SampleDb(), 9, {});
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    StatusOr<DecodedSnapshot> decoded =
        DecodeSnapshot(std::string_view(bytes).substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruptedData);
  }
}

TEST(SnapshotCodecTest, BitFlipsNeverDecode) {
  std::string bytes = EncodeSnapshot(SampleDb(), 9, {});
  // Flip one bit at a spread of positions; the body CRC catches all of
  // them (magic flips fail the magic check instead).
  for (std::size_t pos = 0; pos < bytes.size(); pos += 7) {
    std::string corrupt = bytes;
    corrupt[pos] ^= 0x10;
    StatusOr<DecodedSnapshot> decoded = DecodeSnapshot(corrupt);
    EXPECT_FALSE(decoded.ok()) << "bit flip at " << pos << " decoded";
  }
}

TEST(VerdictCodecTest, RoundTripValidatesAgainstTheDatabase) {
  Database db = SampleDb();
  PersistedVerdictMap verdicts;
  PersistedVerdict v;
  v.fingerprint = ComponentFingerprint{0x1111, 0x2222, 2};
  v.certain = false;
  v.has_witness = true;
  v.witness_facts = {db.MaterializeFact(0), db.MaterializeFact(1)};
  verdicts["R(x | y) R(y | z)#cert2"] = {v};
  std::string bytes = EncodeVerdicts(verdicts);

  StatusOr<PersistedVerdictMap> decoded = DecodeVerdicts(bytes, db);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 1u);
  const std::vector<PersistedVerdict>& got =
      decoded->at("R(x | y) R(y | z)#cert2");
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].fingerprint.count, 2u);
  EXPECT_TRUE(got[0].has_witness);
  ASSERT_EQ(got[0].witness_facts.size(), 2u);
  EXPECT_EQ(got[0].witness_facts[0], db.MaterializeFact(0));

  // The same bytes against a database missing those elements must fail
  // id validation — a verdict is only valid against the state it names.
  Database empty(TwoRelationSchema());
  StatusOr<PersistedVerdictMap> rejected = DecodeVerdicts(bytes, empty);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kCorruptedData);
}

// -- io.h --------------------------------------------------------------

TEST(IoTest, WriteFileAtomicRoundTrip) {
  std::string dir = FreshScratchDir("atomic");
  ASSERT_TRUE(MakeDirs(dir).ok());
  std::string path = dir + "/file.bin";

  ASSERT_TRUE(WriteFileAtomic(path, "first").ok());
  StatusOr<std::string> read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "first");

  ASSERT_TRUE(WriteFileAtomic(path, "second").ok());
  read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "second");

  EXPECT_EQ(ReadFile(dir + "/absent").status().code(), StatusCode::kNotFound);
}

TEST(IoTest, CrashDuringAtomicWriteLeavesOldOrNewNeverTorn) {
  std::string dir = FreshScratchDir("atomic_crash");
  ASSERT_TRUE(MakeDirs(dir).ok());
  std::string path = dir + "/file.bin";
  ASSERT_TRUE(WriteFileAtomic(path, "old-content").ok());

  // WriteFileAtomic is three ops (write tmp, fsync tmp, rename); crash
  // before each — and tear the first — and the visible file must read
  // either the old content or the new, never a mix.
  for (std::uint64_t crash_at = 0; crash_at < 3; ++crash_at) {
    for (FaultPlan::Mode mode :
         {FaultPlan::Mode::kBeforeOp, FaultPlan::Mode::kPartialWrite}) {
      FaultPlan plan;
      plan.crash_at_op = crash_at;
      plan.mode = mode;
      InstallFault(plan);
      Status written = WriteFileAtomic(path, "new-content!");
      EXPECT_TRUE(FaultTripped());
      EXPECT_EQ(written.code(), StatusCode::kIoError);
      ClearFault();

      StatusOr<std::string> read = ReadFile(path);
      ASSERT_TRUE(read.ok());
      EXPECT_TRUE(*read == "old-content" || *read == "new-content!")
          << "crash at op " << crash_at << " left: " << *read;
      // Ops before the rename must leave the *old* content.
      if (crash_at < 2) {
        EXPECT_EQ(*read, "old-content");
      }
      ASSERT_TRUE(WriteFileAtomic(path, "old-content").ok());  // Reset.
    }
  }
}

TEST(IoTest, AppendFileSyncIsTheDurabilityBarrier) {
  std::string dir = FreshScratchDir("append");
  ASSERT_TRUE(MakeDirs(dir).ok());
  std::string path = dir + "/wal.log";

  StatusOr<AppendFile> opened = AppendFile::Open(path);
  ASSERT_TRUE(opened.ok());
  AppendFile file = std::move(*opened);
  ASSERT_TRUE(file.Append("abcd").ok());
  EXPECT_EQ(file.appended_size(), 4u);
  EXPECT_EQ(file.synced_size(), 0u);  // Buffered, not durable.
  // "Crash" before the sync: close without flushing, like a dying
  // process whose page cache never reached disk.
  file.Close();
  StatusOr<std::string> read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "");  // The un-synced suffix is gone.

  opened = AppendFile::Open(path);
  ASSERT_TRUE(opened.ok());
  file = std::move(*opened);
  ASSERT_TRUE(file.Append("abcd").ok());
  ASSERT_TRUE(file.Sync().ok());
  EXPECT_EQ(file.synced_size(), 4u);
  ASSERT_TRUE(file.Append("efgh").ok());
  file.Close();  // Again: only the synced prefix survives.
  read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "abcd");
}

TEST(IoTest, PartialWriteTearsTheSyncAndTruncateDropsIt) {
  std::string dir = FreshScratchDir("torn");
  ASSERT_TRUE(MakeDirs(dir).ok());
  std::string path = dir + "/wal.log";

  StatusOr<AppendFile> opened = AppendFile::Open(path);
  ASSERT_TRUE(opened.ok());
  AppendFile file = std::move(*opened);
  ASSERT_TRUE(file.Append("0123456789").ok());

  FaultPlan plan;
  plan.crash_at_op = 0;
  plan.mode = FaultPlan::Mode::kPartialWrite;
  InstallFault(plan);
  EXPECT_EQ(file.Sync().code(), StatusCode::kIoError);  // Died mid-write.
  ClearFault();
  file.Close();

  StatusOr<std::string> read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "01234");  // Half the buffer landed: a torn record.

  // Recovery reopens with truncate_to to drop the torn tail.
  opened = AppendFile::Open(path, /*truncate_to=*/2);
  ASSERT_TRUE(opened.ok());
  file = std::move(*opened);
  EXPECT_EQ(file.synced_size(), 2u);
  ASSERT_TRUE(file.Append("XY").ok());
  ASSERT_TRUE(file.Sync().ok());
  file.Close();
  read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "01XY");
}

TEST(IoTest, DeadAfterTripUntilCleared) {
  std::string dir = FreshScratchDir("dead");
  FaultPlan plan;
  plan.crash_at_op = 0;
  InstallFault(plan);
  EXPECT_EQ(MakeDirs(dir).code(), StatusCode::kIoError);
  // Every subsequent op fails too: the simulated process is dead.
  EXPECT_EQ(MakeDirs(dir).code(), StatusCode::kIoError);
  EXPECT_EQ(WriteFileAtomic(dir + "/f", "x").code(), StatusCode::kIoError);
  ClearFault();
  EXPECT_TRUE(MakeDirs(dir).ok());  // "Restarted."
}

// -- store.h -----------------------------------------------------------

TEST(DurableStoreTest, CreateAppendReopenReplaysTheTail) {
  std::string dir = FreshScratchDir("store_basic");
  Database db(TwoRelationSchema());
  DurableStore::Options options;

  StatusOr<std::unique_ptr<DurableStore>> created =
      DurableStore::Create(dir, db, {}, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ASSERT_TRUE((*created)
                  ->AppendBatch(WalRecord::Kind::kInsert,
                                {{"R", {"a", "b"}}, {"R", {"b", "c"}}})
                  .ok());
  ASSERT_TRUE(
      (*created)->AppendBatch(WalRecord::Kind::kDelete, {{"R", {"b", "c"}}}).ok());
  DurableStore::Counters counters = (*created)->counters();
  EXPECT_EQ(counters.wal_records, 2u);
  EXPECT_EQ(counters.last_seq, 2u);
  created->reset();  // Close the WAL file (everything is synced).

  StatusOr<DurableStore::OpenResult> opened = DurableStore::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->last_seq, 2u);
  EXPECT_EQ(opened->replayed_records, 2u);
  EXPECT_EQ(NamedFacts(opened->db),
            (std::vector<std::pair<std::string, std::vector<std::string>>>{
                {"R", {"a", "b"}}}));
}

TEST(DurableStoreTest, SnapshotResetsWalAndReopenSkipsCoveredRecords) {
  std::string dir = FreshScratchDir("store_snapshot");
  Database db(TwoRelationSchema());
  DurableStore::Options options;

  StatusOr<std::unique_ptr<DurableStore>> created =
      DurableStore::Create(dir, db, {}, options);
  ASSERT_TRUE(created.ok());
  DurableStore& store = **created;
  ASSERT_TRUE(
      store.AppendBatch(WalRecord::Kind::kInsert, {{"R", {"a", "b"}}}).ok());
  db.AddFactStr(0, "a b");
  ASSERT_TRUE(store.WriteSnapshot(db, {}, {}).ok());
  EXPECT_EQ(store.counters().wal_records, 0u);  // WAL reset to its header.

  // One more record on top of the snapshot.
  ASSERT_TRUE(
      store.AppendBatch(WalRecord::Kind::kInsert, {{"R", {"b", "c"}}}).ok());
  created->reset();

  StatusOr<DurableStore::OpenResult> opened = DurableStore::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->last_seq, 2u);
  EXPECT_EQ(opened->replayed_records, 1u);  // Only the post-snapshot tail.
  EXPECT_EQ(opened->db.NumAliveFacts(), 2u);
}

TEST(DurableStoreTest, TornWalTailIsTruncatedOnOpen) {
  std::string dir = FreshScratchDir("store_torn");
  Database db(TwoRelationSchema());
  DurableStore::Options options;

  StatusOr<std::unique_ptr<DurableStore>> created =
      DurableStore::Create(dir, db, {}, options);
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE((*created)
                  ->AppendBatch(WalRecord::Kind::kInsert, {{"R", {"a", "b"}}})
                  .ok());
  created->reset();

  // Tear the WAL by hand: drop the last 3 bytes of the record.
  std::string wal_path = dir + "/wal.log";
  StatusOr<std::string> bytes = ReadFile(wal_path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(
      WriteFileAtomic(wal_path, bytes->substr(0, bytes->size() - 3)).ok());

  StatusOr<DurableStore::OpenResult> opened = DurableStore::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->replayed_records, 0u);  // The torn record is dropped...
  EXPECT_EQ(opened->db.NumAliveFacts(), 0u);

  // ...and the file was physically truncated, so appends resume cleanly.
  ASSERT_TRUE(opened->store
                  ->AppendBatch(WalRecord::Kind::kInsert,
                                {{"S", {"x", "y", "z"}}})
                  .ok());
  opened->store.reset();
  StatusOr<DurableStore::OpenResult> reopened = DurableStore::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->replayed_records, 1u);
  EXPECT_EQ(NamedFacts(reopened->db),
            (std::vector<std::pair<std::string, std::vector<std::string>>>{
                {"S", {"x", "y", "z"}}}));
}

TEST(DurableStoreTest, CorruptNewestSnapshotFallsBackToThePreviousOne) {
  std::string dir = FreshScratchDir("store_fallback");
  Database db(TwoRelationSchema());
  DurableStore::Options options;

  StatusOr<std::unique_ptr<DurableStore>> created =
      DurableStore::Create(dir, db, {}, options);
  ASSERT_TRUE(created.ok());
  DurableStore& store = **created;
  ASSERT_TRUE(
      store.AppendBatch(WalRecord::Kind::kInsert, {{"R", {"a", "b"}}}).ok());
  db.AddFactStr(0, "a b");
  ASSERT_TRUE(store.WriteSnapshot(db, {}, {}).ok());  // Snapshot at seq 1.
  created->reset();

  // Corrupt the newest snapshot in place (flip a byte mid-body).
  StatusOr<std::vector<std::string>> entries = ListDir(dir);
  ASSERT_TRUE(entries.ok());
  std::string newest;
  for (const std::string& name : *entries) {
    if (name.rfind("snapshot-", 0) == 0 && name > newest) newest = name;
  }
  ASSERT_FALSE(newest.empty());
  StatusOr<std::string> bytes = ReadFile(dir + "/" + newest);
  ASSERT_TRUE(bytes.ok());
  std::string corrupt = *bytes;
  corrupt[corrupt.size() / 2] ^= 0x40;
  ASSERT_TRUE(WriteFileAtomic(dir + "/" + newest, corrupt).ok());

  // Open falls back to snapshot 0 and replays the full WAL... but the
  // WAL was reset by the snapshot, so the fallback sees the pre-snapshot
  // state. That is exactly the documented fallback contract: strictly
  // older durable state, never corrupt state.
  StatusOr<DurableStore::OpenResult> opened = DurableStore::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->last_seq, 0u);
  EXPECT_EQ(opened->db.NumAliveFacts(), 0u);
}

TEST(DurableStoreTest, AllSnapshotsCorruptIsTypedNotSilent) {
  std::string dir = FreshScratchDir("store_all_corrupt");
  Database db(TwoRelationSchema());
  DurableStore::Options options;
  StatusOr<std::unique_ptr<DurableStore>> created =
      DurableStore::Create(dir, db, {}, options);
  ASSERT_TRUE(created.ok());
  created->reset();

  StatusOr<std::vector<std::string>> entries = ListDir(dir);
  ASSERT_TRUE(entries.ok());
  for (const std::string& name : *entries) {
    if (name.rfind("snapshot-", 0) != 0) continue;
    ASSERT_TRUE(WriteFileAtomic(dir + "/" + name, "garbage").ok());
  }
  StatusOr<DurableStore::OpenResult> opened = DurableStore::Open(dir, options);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruptedData);

  EXPECT_EQ(DurableStore::Open(FreshScratchDir("store_absent"), options)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(DurableStoreTest, DestroyRemovesTheDirectory) {
  std::string dir = FreshScratchDir("store_destroy");
  Database db(TwoRelationSchema());
  StatusOr<std::unique_ptr<DurableStore>> created =
      DurableStore::Create(dir, db, {}, {});
  ASSERT_TRUE(created.ok());
  created->reset();
  ASSERT_TRUE(FileExists(dir + "/wal.log"));
  ASSERT_TRUE(DurableStore::Destroy(dir).ok());
  EXPECT_FALSE(FileExists(dir + "/wal.log"));
  EXPECT_EQ(ListDir(dir).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace store
}  // namespace cqa
