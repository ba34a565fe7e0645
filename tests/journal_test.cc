// Tests for the durability layer: TxnManager's auto-committed direct ops
// journal every successful mutation as a txid-0 WAL record (src/journal/wal.h),
// and RecoverJournal (src/journal/checkpoint.h) replays the log. Covers
// logging, recovery, and crash simulation — the log is cut at arbitrary
// byte offsets and recovery must always yield a state equal to replaying
// some prefix of the logged mutation history (prefix consistency).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "src/core/atom_fs.h"
#include "src/journal/checkpoint.h"
#include "src/journal/wal.h"
#include "src/txn/txn.h"

namespace atomfs {
namespace {

// A journal path plus its checkpoint / rotation sidecars, all removed on
// construction and destruction so RecoverJournal sees only this test's log.
class TempLog {
 public:
  explicit TempLog(const std::string& name)
      : path_((std::filesystem::temp_directory_path() / name).string()) {
    RemoveAll();
  }
  ~TempLog() { RemoveAll(); }

  const std::string& path() const { return path_; }

  std::string Contents() const {
    std::ifstream in(path_, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }

  void Overwrite(const std::string& data) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << data;
  }

  void Truncate(size_t bytes) const {
    std::string data = Contents();
    data.resize(std::min(bytes, data.size()));
    Overwrite(data);
  }

 private:
  void RemoveAll() const {
    for (const std::string& p : {path_, PrevWalPath(path_), CheckpointPath(path_),
                                 PrevCheckpointPath(path_), TmpCheckpointPath(path_)}) {
      std::remove(p.c_str());
    }
  }

  std::string path_;
};

// A journaling TxnManager over `inner`, whose direct ops are the journaled
// file system under test.
TxnManager::Options Journaled(FileSystem* inner, const std::string& wal_path) {
  TxnManager::Options o;
  o.inner = inner;
  o.wal_path = wal_path;
  return o;
}

// Ops replayed by RecoverJournal from the log at `path` onto `fs`.
Result<uint64_t> Recover(const std::string& path, FileSystem& fs) {
  auto stats = RecoverJournal(path, fs);
  if (!stats.ok()) {
    return stats.status();
  }
  return stats->wal.applied_ops;
}

TEST(Journal, DirectOpsLogMutationsNotReads) {
  TempLog log("atomfs_journal_basic.log");
  AtomFs inner;
  TxnManager fs(Journaled(&inner, log.path()));
  EXPECT_TRUE(fs.Mkdir("/d").ok());
  EXPECT_TRUE(WriteString(fs, "/d/f", "x").ok());
  EXPECT_TRUE(fs.Stat("/d/f").ok());
  EXPECT_TRUE(fs.ReadDir("/d").ok());
  EXPECT_EQ(fs.Unlink("/d/missing").code(), Errc::kNoEnt);  // failed op: unlogged
  // mkdir + (mknod + truncate-or-write from WriteString) logged; reads and
  // the failed unlink are not.
  const WalScan scan = ScanWalBytes(log.Contents());
  ASSERT_EQ(scan.records.size(), 3u);
  for (const WalRecord& rec : scan.records) {
    EXPECT_EQ(rec.type, WalRecordType::kOp);
    EXPECT_EQ(rec.txid, 0u);
  }
}

TEST(Journal, RecoverRebuildsFullState) {
  TempLog log("atomfs_journal_recover.log");
  AtomFs inner;
  {
    TxnManager fs(Journaled(&inner, log.path()));
    ASSERT_TRUE(fs.Mkdir("/a").ok());
    ASSERT_TRUE(WriteString(fs, "/a/f", "hello journal").ok());
    ASSERT_TRUE(fs.Rename("/a/f", "/a/g").ok());
    ASSERT_TRUE(fs.Mkdir("/b").ok());
    ASSERT_TRUE(fs.Exchange("/a", "/b").ok());
  }
  AtomFs recovered;
  auto stats = RecoverJournal(log.path(), recovered);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->wal.applied_ops, 6u);
  EXPECT_EQ(stats->committed_units, 6u);  // one unit per direct op
  EXPECT_TRUE(StructurallyEqual(inner.SnapshotSpec(), recovered.SnapshotSpec()));
  EXPECT_EQ(ReadString(recovered, "/b/g").value(), "hello journal");
}

TEST(Journal, RecoverMissingLog) {
  TempLog log("atomfs_journal_missing.log");
  AtomFs fs;
  EXPECT_EQ(RecoverJournal(log.path(), fs).status().code(), Errc::kNoEnt);
}

TEST(Journal, TornTailIsDropped) {
  TempLog log("atomfs_journal_torn.log");
  {
    AtomFs inner;
    TxnManager fs(Journaled(&inner, log.path()));
    ASSERT_TRUE(fs.Mkdir("/a").ok());
    ASSERT_TRUE(fs.Mkdir("/a/b").ok());
  }
  // Simulate a crash mid-append: cut the last record short.
  const std::string full = log.Contents();
  log.Truncate(full.size() - 4);
  AtomFs recovered;
  auto stats = RecoverJournal(log.path(), recovered);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->wal.applied_ops, 1u);  // only the first mkdir survived
  EXPECT_TRUE(stats->wal.torn_tail);
  EXPECT_TRUE(recovered.Stat("/a").ok());
  EXPECT_EQ(recovered.Stat("/a/b").status().code(), Errc::kNoEnt);
}

// Prefix consistency under arbitrary crash points: cut the log at every
// byte offset and check the recovered state equals replaying some prefix of
// the mutation history.
TEST(Journal, CrashAtEveryOffsetIsPrefixConsistent) {
  TempLog log("atomfs_journal_crashsweep.log");
  std::vector<OpCall> mutations;
  {
    AtomFs inner;
    TxnManager fs(Journaled(&inner, log.path()));
    ASSERT_TRUE(fs.Mkdir("/d").ok());
    mutations.push_back(OpCall::MkdirOf(*ParsePath("/d")));
    ASSERT_TRUE(fs.Mknod("/d/f").ok());
    mutations.push_back(OpCall::MknodOf(*ParsePath("/d/f")));
    std::vector<std::byte> payload{std::byte{'h'}, std::byte{'i'}};
    auto written = fs.Write("/d/f", 0, std::span<const std::byte>(payload));
    ASSERT_TRUE(written.ok());
    EXPECT_EQ(*written, payload.size());
    mutations.push_back(OpCall::WriteOf(*ParsePath("/d/f"), 0, payload));
    ASSERT_TRUE(fs.Rename("/d/f", "/d/g").ok());
    mutations.push_back(OpCall::RenameOf(*ParsePath("/d/f"), *ParsePath("/d/g")));
    EXPECT_EQ(fs.Rmdir("/x").code(), Errc::kNoEnt);  // unlogged failure
  }
  const std::string full = log.Contents();

  // Precompute the states after each prefix of the mutation list.
  std::vector<SpecFs> prefix_states;
  {
    SpecFs state;
    prefix_states.push_back(state);
    for (const auto& call : mutations) {
      ASSERT_TRUE(RunOp(state, call).status.ok());
      prefix_states.push_back(state);
    }
  }

  for (size_t cut = 0; cut <= full.size(); ++cut) {
    log.Overwrite(full.substr(0, cut));
    AtomFs recovered;
    auto count = Recover(log.path(), recovered);
    ASSERT_TRUE(count.ok()) << "cut at " << cut;
    ASSERT_LE(*count, mutations.size()) << "cut at " << cut;
    EXPECT_TRUE(StructurallyEqual(recovered.SnapshotSpec(), prefix_states[*count]))
        << "cut at " << cut << " recovered " << *count;
  }
}

// Concurrent direct ops serialize on TxnManager's commit lock; this is the
// case the `sanitize` label runs under TSan.
TEST(Journal, ConcurrentDirectOpsAllRecovered) {
  TempLog log("atomfs_journal_concurrent.log");
  AtomFs inner;
  {
    TxnManager::Options o = Journaled(&inner, log.path());
    o.record_commit_log = true;
    TxnManager fs(o);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&fs, t] {
        for (int i = 0; i < 50; ++i) {
          fs.Mkdir("/t" + std::to_string(t) + "_" + std::to_string(i));
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    EXPECT_EQ(fs.commit_log().size(), 200u);
  }
  AtomFs recovered;
  auto count = Recover(log.path(), recovered);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 200u);
  EXPECT_TRUE(StructurallyEqual(inner.SnapshotSpec(), recovered.SnapshotSpec()));
}

TEST(Journal, EmptyJournalRecoversEmptyState) {
  TempLog log("atomfs_journal_empty.log");
  log.Overwrite("");  // zero-byte file
  AtomFs recovered;
  auto count = Recover(log.path(), recovered);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
  EXPECT_TRUE(StructurallyEqual(recovered.SnapshotSpec(), SpecFs{}));
}

TEST(Journal, TornRecordHeaderIsDropped) {
  TempLog log("atomfs_journal_torn_header.log");
  {
    AtomFs inner;
    TxnManager fs(Journaled(&inner, log.path()));
    ASSERT_TRUE(fs.Mkdir("/a").ok());
    ASSERT_TRUE(fs.Mkdir("/b").ok());
  }
  const WalScan scan = ScanWalBytes(log.Contents());
  ASSERT_EQ(scan.records.size(), 2u);
  // Crash mid-append of the second record's fixed header.
  log.Truncate(scan.records[0].end_offset + kWalHeaderBytes / 2);
  AtomFs recovered;
  auto count = Recover(log.path(), recovered);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);
  EXPECT_TRUE(recovered.Stat("/a").ok());
  EXPECT_EQ(recovered.Stat("/b").status().code(), Errc::kNoEnt);
}

TEST(Journal, TornRecordPayloadIsDropped) {
  TempLog log("atomfs_journal_torn_payload.log");
  {
    AtomFs inner;
    TxnManager fs(Journaled(&inner, log.path()));
    ASSERT_TRUE(fs.Mkdir("/a").ok());
    ASSERT_TRUE(fs.Mkdir("/b").ok());
  }
  const WalScan scan = ScanWalBytes(log.Contents());
  ASSERT_EQ(scan.records.size(), 2u);
  // Header intact, payload cut short: the length check must reject it.
  log.Truncate(scan.records[0].end_offset + kWalHeaderBytes + 2);
  AtomFs recovered;
  auto count = Recover(log.path(), recovered);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);
  EXPECT_TRUE(recovered.Stat("/a").ok());
  EXPECT_EQ(recovered.Stat("/b").status().code(), Errc::kNoEnt);
}

TEST(Journal, BitFlipIsRejected) {
  TempLog log("atomfs_journal_bitflip.log");
  {
    AtomFs inner;
    TxnManager fs(Journaled(&inner, log.path()));
    ASSERT_TRUE(fs.Mkdir("/a").ok());
    ASSERT_TRUE(fs.Mkdir("/b").ok());
  }
  std::string bytes = log.Contents();
  bytes[bytes.size() - 1] = static_cast<char>(~bytes[bytes.size() - 1]);  // rot in /b's record
  log.Overwrite(bytes);
  AtomFs recovered;
  auto stats = RecoverJournal(log.path(), recovered);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->wal.applied_ops, 1u);
  EXPECT_TRUE(stats->wal.torn_tail);
  EXPECT_TRUE(recovered.Stat("/a").ok());
  EXPECT_EQ(recovered.Stat("/b").status().code(), Errc::kNoEnt);
}

TEST(Wal, ChecksumRejectsBitFlip) {
  std::string log = EncodeWalRecord(WalRecordType::kOp, 0, "mkdir /a");
  log += EncodeWalRecord(WalRecordType::kOp, 0, "mkdir /b");
  log[log.size() - 3] = static_cast<char>(~log[log.size() - 3]);  // rot in /b's payload
  const WalScan scan = ScanWalBytes(log);
  EXPECT_EQ(scan.records.size(), 1u);
  EXPECT_TRUE(scan.torn_tail);
  AtomFs recovered;
  const WalRecoveryStats stats = RecoverWalBytes(log, recovered);
  EXPECT_EQ(stats.applied_ops, 1u);
  EXPECT_TRUE(recovered.Stat("/a").ok());
  EXPECT_EQ(recovered.Stat("/b").status().code(), Errc::kNoEnt);
}

TEST(Wal, CommittedTxnReplaysAtomicallyAtCommitRecord) {
  std::string log;
  log += EncodeWalRecord(WalRecordType::kBegin, 7, "");
  log += EncodeWalRecord(WalRecordType::kOp, 7, "mkdir /t");
  log += EncodeWalRecord(WalRecordType::kOp, 7, "mknod /t/f");
  log += EncodeWalRecord(WalRecordType::kCommit, 7, "");
  AtomFs fs;
  const WalRecoveryStats stats = RecoverWalBytes(log, fs);
  EXPECT_EQ(stats.committed, 1u);
  EXPECT_EQ(stats.applied_ops, 2u);
  EXPECT_TRUE(fs.Stat("/t/f").ok());
}

TEST(Wal, UncommittedTxnIsNeverVisible) {
  std::string log;
  log += EncodeWalRecord(WalRecordType::kOp, 0, "mkdir /keep");
  log += EncodeWalRecord(WalRecordType::kBegin, 9, "");
  log += EncodeWalRecord(WalRecordType::kOp, 9, "mkdir /lost");
  // Crash before the commit record: the whole transaction is discarded.
  AtomFs fs;
  const WalRecoveryStats stats = RecoverWalBytes(log, fs);
  EXPECT_EQ(stats.committed, 1u);
  EXPECT_EQ(stats.discarded, 1u);
  EXPECT_TRUE(fs.Stat("/keep").ok());
  EXPECT_EQ(fs.Stat("/lost").status().code(), Errc::kNoEnt);
  // The dangling begin's id is reported so a reopening writer can allocate
  // above it — reusing txid 9 would read as a duplicate bracket next time.
  EXPECT_EQ(stats.max_txid, 9u);
}

TEST(Wal, AbortedTxnIsNeverVisible) {
  std::string log;
  log += EncodeWalRecord(WalRecordType::kBegin, 3, "");
  log += EncodeWalRecord(WalRecordType::kOp, 3, "mkdir /rolled_back");
  log += EncodeWalRecord(WalRecordType::kAbort, 3, "");
  log += EncodeWalRecord(WalRecordType::kOp, 0, "mkdir /after");
  AtomFs fs;
  const WalRecoveryStats stats = RecoverWalBytes(log, fs);
  EXPECT_EQ(stats.aborted, 1u);
  EXPECT_EQ(stats.committed, 1u);
  EXPECT_EQ(fs.Stat("/rolled_back").status().code(), Errc::kNoEnt);
  EXPECT_TRUE(fs.Stat("/after").ok());
}

TEST(Journal, ReopenAppendsToExistingLog) {
  TempLog log("atomfs_journal_reopen.log");
  AtomFs inner1;
  {
    TxnManager fs(Journaled(&inner1, log.path()));
    ASSERT_TRUE(fs.Mkdir("/first").ok());
  }
  // "Remount": recover into a fresh FS, keep journaling to the same log.
  AtomFs inner2;
  auto reopened = RecoverJournal(log.path(), inner2, /*repair=*/true);
  ASSERT_TRUE(reopened.ok());
  {
    TxnManager::Options o = Journaled(&inner2, log.path());
    o.initial = inner2.SnapshotSpec();
    o.recovered = *reopened;
    TxnManager fs(o);
    ASSERT_TRUE(fs.Mkdir("/second").ok());
  }
  AtomFs recovered;
  auto count = Recover(log.path(), recovered);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 2u);
  EXPECT_TRUE(recovered.Stat("/first").ok());
  EXPECT_TRUE(recovered.Stat("/second").ok());
}

}  // namespace
}  // namespace atomfs
