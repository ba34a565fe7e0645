// Tests for the convenience helpers in src/vfs/filesystem.cc (WriteString /
// ReadString / MkdirAll / RemoveAll) and for negative GoodAFS cases: the
// WellFormed checker must reject every class of malformed abstract state.

#include <gtest/gtest.h>

#include "src/afs/spec_fs.h"
#include "src/core/atom_fs.h"

namespace atomfs {
namespace {

TEST(FsHelpers, WriteStringCreatesAndOverwrites) {
  AtomFs fs;
  ASSERT_TRUE(WriteString(fs, "/f", "first").ok());
  EXPECT_EQ(ReadString(fs, "/f").value(), "first");
  // Overwrite with something shorter: no stale tail.
  ASSERT_TRUE(WriteString(fs, "/f", "2nd").ok());
  EXPECT_EQ(ReadString(fs, "/f").value(), "2nd");
}

TEST(FsHelpers, WriteStringFailsThroughMissingParent) {
  AtomFs fs;
  EXPECT_EQ(WriteString(fs, "/no/f", "x").code(), Errc::kNoEnt);
}

TEST(FsHelpers, ReadStringErrors) {
  AtomFs fs;
  EXPECT_EQ(ReadString(fs, "/missing").status().code(), Errc::kNoEnt);
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  EXPECT_EQ(ReadString(fs, "/d").status().code(), Errc::kIsDir);
}

TEST(FsHelpers, MkdirAllCreatesChain) {
  AtomFs fs;
  ASSERT_TRUE(MkdirAll(fs, *ParsePath("/a/b/c/d")).ok());
  EXPECT_TRUE(fs.Stat("/a/b/c/d").ok());
  // Idempotent.
  EXPECT_TRUE(MkdirAll(fs, *ParsePath("/a/b/c/d")).ok());
  // Fails across a file component (the mkdir below the file reports it).
  ASSERT_TRUE(fs.Mknod("/a/file").ok());
  EXPECT_EQ(MkdirAll(fs, *ParsePath("/a/file/deep")).code(), Errc::kNotDir);
}

TEST(FsHelpers, RemoveAllDeletesSubtree) {
  AtomFs fs;
  ASSERT_TRUE(MkdirAll(fs, *ParsePath("/a/b/c")).ok());
  ASSERT_TRUE(WriteString(fs, "/a/b/f1", "x").ok());
  ASSERT_TRUE(WriteString(fs, "/a/b/c/f2", "y").ok());
  ASSERT_TRUE(RemoveAll(fs, *ParsePath("/a")).ok());
  EXPECT_EQ(fs.Stat("/a").status().code(), Errc::kNoEnt);
  EXPECT_EQ(fs.InodeCount(), 1u);  // nothing leaked
}

TEST(FsHelpers, RemoveAllOnFile) {
  AtomFs fs;
  ASSERT_TRUE(fs.Mknod("/f").ok());
  ASSERT_TRUE(RemoveAll(fs, *ParsePath("/f")).ok());
  EXPECT_EQ(fs.Stat("/f").status().code(), Errc::kNoEnt);
}

TEST(FsHelpers, RemoveAllMissing) {
  AtomFs fs;
  EXPECT_EQ(RemoveAll(fs, *ParsePath("/nope")).code(), Errc::kNoEnt);
}

// --- negative GoodAFS ---------------------------------------------------------

TEST(WellFormedNegative, DanglingLink) {
  SpecFs spec;
  ASSERT_TRUE(spec.Mkdir("/d").ok());
  spec.FindMutable(kRootInum)->links["ghost"] = 9999;  // target does not exist
  EXPECT_FALSE(spec.WellFormed());
}

TEST(WellFormedNegative, InodeReachableTwice) {
  SpecFs spec;
  ASSERT_TRUE(spec.Mkdir("/d").ok());
  const Inum d = *spec.Resolve(*ParsePath("/d"));
  spec.FindMutable(kRootInum)->links["alias"] = d;  // hard link: not a tree
  EXPECT_FALSE(spec.WellFormed());
}

TEST(WellFormedNegative, UnreachableInode) {
  SpecFs spec;
  SpecInode orphan;
  orphan.type = FileType::kFile;
  spec.Put(777, std::move(orphan));
  EXPECT_FALSE(spec.WellFormed());
}

TEST(WellFormedNegative, FileWithLinks) {
  SpecFs spec;
  ASSERT_TRUE(spec.Mknod("/f").ok());
  ASSERT_TRUE(spec.Mkdir("/d").ok());
  const Inum f = *spec.Resolve(*ParsePath("/f"));
  const Inum d = *spec.Resolve(*ParsePath("/d"));
  // Rewire so the file node carries a link.
  spec.FindMutable(f)->links["bogus"] = d;
  spec.FindMutable(kRootInum)->links.erase("d");
  EXPECT_FALSE(spec.WellFormed());
}

TEST(WellFormedNegative, CycleThroughRoot) {
  SpecFs spec;
  ASSERT_TRUE(spec.Mkdir("/d").ok());
  const Inum d = *spec.Resolve(*ParsePath("/d"));
  spec.FindMutable(d)->links["up"] = kRootInum;  // back edge
  EXPECT_FALSE(spec.WellFormed());
}

TEST(WellFormedNegative, MissingRoot) {
  SpecFs spec;
  spec.Erase(kRootInum);
  EXPECT_FALSE(spec.WellFormed());
}

TEST(WellFormedNegative, BadEntryName) {
  SpecFs spec;
  ASSERT_TRUE(spec.Mkdir("/d").ok());
  const Inum d = *spec.Resolve(*ParsePath("/d"));
  spec.FindMutable(kRootInum)->links[".."] = d;
  spec.FindMutable(kRootInum)->links.erase("d");
  EXPECT_FALSE(spec.WellFormed());
}

}  // namespace
}  // namespace atomfs
