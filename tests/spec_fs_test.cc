// Unit tests for the abstract specification (src/afs/spec_fs.h): these
// define the reference semantics every concrete file system must refine.

#include "src/afs/spec_fs.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/afs/op.h"
#include "src/core/atom_fs.h"
#include "src/retryfs/retry_fs.h"
#include "src/workload/trace.h"

namespace atomfs {
namespace {

std::span<const std::byte> Bytes(std::string_view s) {
  return std::as_bytes(std::span<const char>(s.data(), s.size()));
}

class SpecFsTest : public ::testing::Test {
 protected:
  SpecFs fs_;
};

TEST_F(SpecFsTest, FreshRootIsEmptyDir) {
  auto attr = fs_.Stat("/");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->type, FileType::kDir);
  EXPECT_EQ(attr->size, 0u);
  EXPECT_EQ(attr->ino, kRootInum);
  EXPECT_TRUE(fs_.WellFormed());
}

TEST_F(SpecFsTest, MkdirCreatesStatableDir) {
  EXPECT_TRUE(fs_.Mkdir("/a").ok());
  auto attr = fs_.Stat("/a");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->type, FileType::kDir);
  EXPECT_TRUE(fs_.WellFormed());
}

TEST_F(SpecFsTest, MkdirErrors) {
  EXPECT_EQ(fs_.Mkdir("/").code(), Errc::kExist);
  EXPECT_TRUE(fs_.Mkdir("/a").ok());
  EXPECT_EQ(fs_.Mkdir("/a").code(), Errc::kExist);
  EXPECT_EQ(fs_.Mkdir("/missing/x").code(), Errc::kNoEnt);
  EXPECT_TRUE(fs_.Mknod("/f").ok());
  EXPECT_EQ(fs_.Mkdir("/f/x").code(), Errc::kNotDir);
  EXPECT_EQ(fs_.Mkdir("/f").code(), Errc::kExist);
}

TEST_F(SpecFsTest, MknodErrors) {
  EXPECT_EQ(fs_.Mknod("/").code(), Errc::kExist);
  EXPECT_TRUE(fs_.Mknod("/f").ok());
  EXPECT_EQ(fs_.Mknod("/f").code(), Errc::kExist);
  EXPECT_EQ(fs_.Mknod("/f/x").code(), Errc::kNotDir);
}

TEST_F(SpecFsTest, RmdirSemantics) {
  EXPECT_EQ(fs_.Rmdir("/").code(), Errc::kBusy);
  EXPECT_EQ(fs_.Rmdir("/a").code(), Errc::kNoEnt);
  EXPECT_TRUE(fs_.Mkdir("/a").ok());
  EXPECT_TRUE(fs_.Mkdir("/a/b").ok());
  EXPECT_EQ(fs_.Rmdir("/a").code(), Errc::kNotEmpty);
  EXPECT_TRUE(fs_.Rmdir("/a/b").ok());
  EXPECT_TRUE(fs_.Rmdir("/a").ok());
  EXPECT_EQ(fs_.Stat("/a").status().code(), Errc::kNoEnt);
  EXPECT_TRUE(fs_.Mknod("/f").ok());
  EXPECT_EQ(fs_.Rmdir("/f").code(), Errc::kNotDir);
  EXPECT_TRUE(fs_.WellFormed());
}

TEST_F(SpecFsTest, UnlinkSemantics) {
  EXPECT_EQ(fs_.Unlink("/").code(), Errc::kIsDir);
  EXPECT_EQ(fs_.Unlink("/f").code(), Errc::kNoEnt);
  EXPECT_TRUE(fs_.Mknod("/f").ok());
  EXPECT_TRUE(fs_.Unlink("/f").ok());
  EXPECT_EQ(fs_.Stat("/f").status().code(), Errc::kNoEnt);
  EXPECT_TRUE(fs_.Mkdir("/d").ok());
  EXPECT_EQ(fs_.Unlink("/d").code(), Errc::kIsDir);
}

TEST_F(SpecFsTest, RenameMovesFile) {
  EXPECT_TRUE(fs_.Mknod("/f").ok());
  ASSERT_TRUE(fs_.Write("/f", 0, Bytes("hello")).ok());
  EXPECT_TRUE(fs_.Mkdir("/d").ok());
  EXPECT_TRUE(fs_.Rename("/f", "/d/g").ok());
  EXPECT_EQ(fs_.Stat("/f").status().code(), Errc::kNoEnt);
  auto attr = fs_.Stat("/d/g");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, 5u);
  EXPECT_TRUE(fs_.WellFormed());
}

TEST_F(SpecFsTest, RenameMovesDirectorySubtree) {
  EXPECT_TRUE(fs_.Mkdir("/a").ok());
  EXPECT_TRUE(fs_.Mkdir("/a/b").ok());
  EXPECT_TRUE(fs_.Mknod("/a/b/f").ok());
  EXPECT_TRUE(fs_.Mkdir("/x").ok());
  EXPECT_TRUE(fs_.Rename("/a", "/x/a2").ok());
  EXPECT_TRUE(fs_.Stat("/x/a2/b/f").ok());
  EXPECT_EQ(fs_.Stat("/a").status().code(), Errc::kNoEnt);
  EXPECT_TRUE(fs_.WellFormed());
}

TEST_F(SpecFsTest, RenameReplacesEmptyDirTarget) {
  EXPECT_TRUE(fs_.Mkdir("/a").ok());
  EXPECT_TRUE(fs_.Mkdir("/b").ok());
  EXPECT_TRUE(fs_.Mknod("/a/f").ok());
  EXPECT_TRUE(fs_.Rename("/a", "/b").ok());
  EXPECT_TRUE(fs_.Stat("/b/f").ok());
  EXPECT_EQ(fs_.Stat("/a").status().code(), Errc::kNoEnt);
  EXPECT_TRUE(fs_.WellFormed());
}

TEST_F(SpecFsTest, RenameErrors) {
  EXPECT_EQ(fs_.Rename("/", "/x").code(), Errc::kBusy);
  EXPECT_EQ(fs_.Rename("/x", "/").code(), Errc::kBusy);
  EXPECT_TRUE(fs_.Mkdir("/a").ok());
  // Moving a directory below itself.
  EXPECT_EQ(fs_.Rename("/a", "/a/b").code(), Errc::kInval);
  // Missing source.
  EXPECT_EQ(fs_.Rename("/zz", "/y").code(), Errc::kNoEnt);
  // Missing destination parent.
  EXPECT_EQ(fs_.Rename("/a", "/nope/y").code(), Errc::kNoEnt);
  // Directory onto non-empty directory.
  EXPECT_TRUE(fs_.Mkdir("/b").ok());
  EXPECT_TRUE(fs_.Mknod("/b/f").ok());
  EXPECT_EQ(fs_.Rename("/a", "/b").code(), Errc::kNotEmpty);
  // Directory onto file / file onto directory.
  EXPECT_TRUE(fs_.Mknod("/file").ok());
  EXPECT_EQ(fs_.Rename("/a", "/file").code(), Errc::kNotDir);
  EXPECT_EQ(fs_.Rename("/file", "/a").code(), Errc::kIsDir);
  // Renaming an ancestor onto a path inside it (dst above src).
  EXPECT_TRUE(fs_.Mkdir("/a/c").ok());
  EXPECT_EQ(fs_.Rename("/a/c", "/a").code(), Errc::kNotEmpty);
}

TEST_F(SpecFsTest, RenameToSelfIsNoOp) {
  EXPECT_TRUE(fs_.Mknod("/f").ok());
  EXPECT_TRUE(fs_.Rename("/f", "/f").ok());
  EXPECT_TRUE(fs_.Stat("/f").ok());
  EXPECT_EQ(fs_.Rename("/g", "/g").code(), Errc::kNoEnt);
}

TEST_F(SpecFsTest, RenameFileReplacesFile) {
  EXPECT_TRUE(fs_.Mknod("/f").ok());
  EXPECT_TRUE(fs_.Mknod("/g").ok());
  ASSERT_TRUE(fs_.Write("/f", 0, Bytes("AAA")).ok());
  EXPECT_TRUE(fs_.Rename("/f", "/g").ok());
  auto text = ReadString(fs_, "/g");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "AAA");
  EXPECT_TRUE(fs_.WellFormed());
}

TEST_F(SpecFsTest, ReadWriteRoundTrip) {
  EXPECT_TRUE(fs_.Mknod("/f").ok());
  ASSERT_TRUE(fs_.Write("/f", 0, Bytes("hello world")).ok());
  auto text = ReadString(fs_, "/f");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "hello world");
}

TEST_F(SpecFsTest, WriteWithHoleZeroFills) {
  EXPECT_TRUE(fs_.Mknod("/f").ok());
  ASSERT_TRUE(fs_.Write("/f", 10, Bytes("x")).ok());
  auto attr = fs_.Stat("/f");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, 11u);
  std::vector<std::byte> buf(11);
  auto n = fs_.Read("/f", 0, std::span<std::byte>(buf));
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, 11u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(buf[i], std::byte{0});
  }
  EXPECT_EQ(buf[10], std::byte{'x'});
}

TEST_F(SpecFsTest, ReadPastEofIsShort) {
  EXPECT_TRUE(fs_.Mknod("/f").ok());
  ASSERT_TRUE(fs_.Write("/f", 0, Bytes("abc")).ok());
  std::vector<std::byte> buf(10);
  auto n = fs_.Read("/f", 2, std::span<std::byte>(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  auto n2 = fs_.Read("/f", 3, std::span<std::byte>(buf));
  ASSERT_TRUE(n2.ok());
  EXPECT_EQ(*n2, 0u);
}

TEST_F(SpecFsTest, WriteBeyondMaxFails) {
  EXPECT_TRUE(fs_.Mknod("/f").ok());
  EXPECT_EQ(fs_.Write("/f", kMaxFileSize, Bytes("x")).status().code(), Errc::kNoSpace);
  EXPECT_EQ(fs_.Truncate("/f", kMaxFileSize + 1).code(), Errc::kNoSpace);
  EXPECT_TRUE(fs_.Truncate("/f", kMaxFileSize).ok());
}

TEST_F(SpecFsTest, DataOpsOnDirFail) {
  EXPECT_TRUE(fs_.Mkdir("/d").ok());
  std::vector<std::byte> buf(4);
  EXPECT_EQ(fs_.Read("/d", 0, std::span<std::byte>(buf)).status().code(), Errc::kIsDir);
  EXPECT_EQ(fs_.Write("/d", 0, Bytes("x")).status().code(), Errc::kIsDir);
  EXPECT_EQ(fs_.Truncate("/d", 0).code(), Errc::kIsDir);
}

TEST_F(SpecFsTest, TruncateShrinkAndGrow) {
  EXPECT_TRUE(fs_.Mknod("/f").ok());
  ASSERT_TRUE(fs_.Write("/f", 0, Bytes("hello")).ok());
  EXPECT_TRUE(fs_.Truncate("/f", 2).ok());
  EXPECT_EQ(ReadString(fs_, "/f").value(), "he");
  EXPECT_TRUE(fs_.Truncate("/f", 4).ok());
  auto text = ReadString(fs_, "/f");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, std::string("he\0\0", 4));
}

TEST_F(SpecFsTest, ReadDirSortedWithTypes) {
  EXPECT_TRUE(fs_.Mkdir("/d").ok());
  EXPECT_TRUE(fs_.Mknod("/d/zebra").ok());
  EXPECT_TRUE(fs_.Mkdir("/d/apple").ok());
  auto entries = fs_.ReadDir("/d");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0].name, "apple");
  EXPECT_EQ((*entries)[0].type, FileType::kDir);
  EXPECT_EQ((*entries)[1].name, "zebra");
  EXPECT_EQ((*entries)[1].type, FileType::kFile);
  EXPECT_TRUE(fs_.Mknod("/f").ok());
  EXPECT_EQ(fs_.ReadDir("/f").status().code(), Errc::kNotDir);
}

TEST_F(SpecFsTest, StructurallyEqualIgnoresInums) {
  SpecFs a;
  SpecFs b;
  EXPECT_TRUE(a.Mkdir("/d").ok());
  EXPECT_TRUE(a.Mknod("/d/f").ok());
  // Different allocation order in b.
  EXPECT_TRUE(b.Mknod("/tmp").ok());
  EXPECT_TRUE(b.Unlink("/tmp").ok());
  EXPECT_TRUE(b.Mkdir("/d").ok());
  EXPECT_TRUE(b.Mknod("/d/f").ok());
  EXPECT_TRUE(StructurallyEqual(a, b));
  EXPECT_TRUE(b.Mknod("/d/g").ok());
  EXPECT_FALSE(StructurallyEqual(a, b));
}

// A file system's SnapshotSpec assembles the state through Put(),
// which does not move the allocator; the snapshot must still give later
// creations fresh inodes rather than link them to existing ones.
template <typename Fs>
void ExpectSnapshotCreatesFreshInodes() {
  Fs fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Mknod("/d/g").ok());
  SpecFs snap = fs.SnapshotSpec();
  ASSERT_TRUE(snap.Mknod("/f").ok());
  ASSERT_TRUE(snap.Write("/f", 0, Bytes("data")).ok());
  EXPECT_NE(snap.Stat("/f")->ino, snap.Stat("/d")->ino);
  EXPECT_NE(snap.Stat("/f")->ino, snap.Stat("/d/g")->ino);
  EXPECT_EQ(snap.Stat("/d")->type, FileType::kDir);
  EXPECT_EQ(snap.Stat("/d/g")->size, 0u);
  EXPECT_TRUE(snap.WellFormed());
}

TEST_F(SpecFsTest, SnapshotSpecCreatesFreshInodes) {
  ExpectSnapshotCreatesFreshInodes<AtomFs>();
  ExpectSnapshotCreatesFreshInodes<RetryFs>();
}

TEST_F(SpecFsTest, HashIsStructural) {
  SpecFs a;
  SpecFs b;
  EXPECT_TRUE(a.Mkdir("/d").ok());
  EXPECT_TRUE(b.Mknod("/x").ok());
  EXPECT_TRUE(b.Unlink("/x").ok());
  EXPECT_TRUE(b.Mkdir("/d").ok());
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_TRUE(b.Mkdir("/e").ok());
  EXPECT_NE(a.Hash(), b.Hash());
}

TEST_F(SpecFsTest, RunOpDrivesAllKinds) {
  auto mkdir_res = RunOp(fs_, OpCall::MkdirOf(*ParsePath("/d")));
  EXPECT_TRUE(mkdir_res.status.ok());
  auto mknod_res = RunOp(fs_, OpCall::MknodOf(*ParsePath("/d/f")));
  EXPECT_TRUE(mknod_res.status.ok());
  std::vector<std::byte> payload{std::byte{1}, std::byte{2}};
  auto write_res = RunOp(fs_, OpCall::WriteOf(*ParsePath("/d/f"), 0, payload));
  EXPECT_TRUE(write_res.status.ok());
  EXPECT_EQ(write_res.nbytes, 2u);
  auto read_res = RunOp(fs_, OpCall::ReadOf(*ParsePath("/d/f"), 0, 8));
  EXPECT_TRUE(read_res.status.ok());
  EXPECT_EQ(read_res.nbytes, 2u);
  EXPECT_EQ(read_res.data, payload);
  auto stat_res = RunOp(fs_, OpCall::StatOf(*ParsePath("/d/f")));
  EXPECT_TRUE(stat_res.status.ok());
  EXPECT_EQ(stat_res.attr.size, 2u);
  auto readdir_res = RunOp(fs_, OpCall::ReadDirOf(*ParsePath("/d")));
  EXPECT_TRUE(readdir_res.status.ok());
  ASSERT_EQ(readdir_res.entries.size(), 1u);
  auto rename_res = RunOp(fs_, OpCall::RenameOf(*ParsePath("/d/f"), *ParsePath("/g")));
  EXPECT_TRUE(rename_res.status.ok());
  auto trunc_res = RunOp(fs_, OpCall::TruncateOf(*ParsePath("/g"), 1));
  EXPECT_TRUE(trunc_res.status.ok());
  auto unlink_res = RunOp(fs_, OpCall::UnlinkOf(*ParsePath("/g")));
  EXPECT_TRUE(unlink_res.status.ok());
  auto rmdir_res = RunOp(fs_, OpCall::RmdirOf(*ParsePath("/d")));
  EXPECT_TRUE(rmdir_res.status.ok());
  EXPECT_TRUE(fs_.WellFormed());
}

// --- copy-on-write ------------------------------------------------------------

// Every inode's content, by value: what "unchanged" means below.
std::map<Inum, SpecInode> Contents(const SpecFs& fs) {
  std::map<Inum, SpecInode> out;
  for (const auto& [ino, node] : fs.imap()) {
    out.emplace(ino, *node);
  }
  return out;
}

// A state equal to `fs` that shares no inode with it.
SpecFs DeepRebuild(const SpecFs& fs) {
  SpecFs out;
  for (const auto& [ino, node] : fs.imap()) {
    out.Put(ino, SpecInode(*node));
  }
  out.SetNextInum(fs.imap().rbegin()->first + 1);
  return out;
}

// /a/f (data "abc"), /a/g, /b/ (empty dir), /c/h (data "xyz").
SpecFs CowBase() {
  SpecFs fs;
  EXPECT_TRUE(fs.Mkdir("/a").ok());
  EXPECT_TRUE(fs.Mknod("/a/f").ok());
  EXPECT_TRUE(fs.Write("/a/f", 0, Bytes("abc")).ok());
  EXPECT_TRUE(fs.Mknod("/a/g").ok());
  EXPECT_TRUE(fs.Mkdir("/b").ok());
  EXPECT_TRUE(fs.Mkdir("/c").ok());
  EXPECT_TRUE(fs.Mknod("/c/h").ok());
  EXPECT_TRUE(fs.Write("/c/h", 0, Bytes("xyz")).ok());
  return fs;
}

// One succeeding call of each of the eight mutators.
std::vector<OpCall> EveryMutator() {
  auto p = [](const char* s) { return *ParsePath(s); };
  std::vector<std::byte> data{std::byte{7}, std::byte{8}};
  return {OpCall::MkdirOf(p("/a/d")),        OpCall::MknodOf(p("/c/n")),
          OpCall::RmdirOf(p("/b")),          OpCall::UnlinkOf(p("/a/g")),
          OpCall::RenameOf(p("/a/f"), p("/c/r")), OpCall::ExchangeOf(p("/a"), p("/c")),
          OpCall::WriteOf(p("/c/h"), 1, data),    OpCall::TruncateOf(p("/a/f"), 1)};
}

TEST(SpecFsCow, CopySharesEveryInode) {
  const SpecFs a = CowBase();
  const SpecFs b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  for (const auto& [ino, node] : a.imap()) {
    EXPECT_EQ(b.Find(ino), node.get()) << ino;
  }
  EXPECT_TRUE(a == b);
}

TEST(SpecFsCow, EachMutatorLeavesTheOtherCopyUnchanged) {
  for (const OpCall& call : EveryMutator()) {
    for (bool mutate_copy : {true, false}) {
      SpecFs original = CowBase();
      SpecFs copy = original;
      SpecFs& written = mutate_copy ? copy : original;
      const SpecFs& watched = mutate_copy ? original : copy;
      const auto before = Contents(watched);
      ASSERT_TRUE(RunOp(written, call).status.ok()) << FormatTraceLine(call);
      EXPECT_EQ(Contents(watched), before) << FormatTraceLine(call);
      EXPECT_FALSE(written == watched) << FormatTraceLine(call);
      EXPECT_TRUE(watched.WellFormed());
      EXPECT_TRUE(written.WellFormed());
    }
  }
}

TEST(SpecFsCow, SoleOwnerWritesInPlaceSharedInodeIsCloned) {
  SpecFs fs = CowBase();
  const Inum f = *fs.Resolve(*ParsePath("/a/f"));
  const SpecInode* alone = fs.Find(f);
  ASSERT_TRUE(fs.Write("/a/f", 0, Bytes("A")).ok());
  EXPECT_EQ(fs.Find(f), alone);
  {
    const SpecFs copy = fs;
    ASSERT_TRUE(fs.Write("/a/f", 0, Bytes("B")).ok());
    EXPECT_NE(fs.Find(f), alone);
    EXPECT_EQ(copy.Find(f), alone);
    EXPECT_EQ(copy.Find(f)->data[0], std::byte{'A'});
  }
  // The copy is gone, so the clone is the sole owner again.
  const SpecInode* clone = fs.Find(f);
  ASSERT_TRUE(fs.Write("/a/f", 0, Bytes("C")).ok());
  EXPECT_EQ(fs.Find(f), clone);
}

TEST(SpecFsCow, RestorePreImagesRoundTrips) {
  for (const OpCall& call : EveryMutator()) {
    SpecFs fs = CowBase();
    const SpecFs reference = DeepRebuild(fs);
    SpecFs expected_alloc = fs;
    const Inum next = expected_alloc.AllocInum();
    fs.StartPreImageLog();
    ASSERT_TRUE(RunOp(fs, call).status.ok()) << FormatTraceLine(call);
    (void)RunOp(fs, OpCall::MknodOf(*ParsePath("/extra")));
    (void)RunOp(fs, OpCall::WriteOf(*ParsePath("/c/h"), 5, {std::byte{1}}));
    fs.RestorePreImages();
    EXPECT_TRUE(fs == reference) << FormatTraceLine(call);
    EXPECT_EQ(fs.AllocInum(), next) << FormatTraceLine(call);
    // The log is over: later mutations are not undone by anything.
    EXPECT_TRUE(fs.TakePreImageLog().empty());
  }
}

TEST(SpecFsCow, CopyAndDeepRebuildAgree) {
  SpecFs fs = CowBase();
  SpecFs copy = fs;
  ASSERT_TRUE(copy.Rename("/a/f", "/b/f").ok());
  ASSERT_TRUE(copy.Write("/c/h", 3, Bytes("more")).ok());
  for (const SpecFs* s : {&fs, &copy}) {
    const SpecFs deep = DeepRebuild(*s);
    EXPECT_EQ(s->Hash(), deep.Hash());
    EXPECT_EQ(s->WellFormed(), deep.WellFormed());
    EXPECT_TRUE(StructurallyEqual(*s, deep));
    EXPECT_TRUE(*s == deep);
  }
  EXPECT_NE(fs.Hash(), copy.Hash());
  EXPECT_FALSE(StructurallyEqual(fs, copy));
}

}  // namespace
}  // namespace atomfs
