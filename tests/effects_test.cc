// Unit tests for effect recording, roll-back, and inum remapping
// (src/crlh/effects.h — the paper's §4.4 roll-back mechanism).

#include "src/crlh/effects.h"

#include <gtest/gtest.h>

#include <set>

#include "src/crlh/ghost.h"

namespace atomfs {
namespace {

std::vector<std::byte> Payload(std::string_view s) {
  const auto* b = reinterpret_cast<const std::byte*>(s.data());
  return std::vector<std::byte>(b, b + s.size());
}

TEST(Effects, MkdirRecordsParentAndCreation) {
  SpecFs spec;
  std::vector<InodeEffect> fx;
  auto result = ApplyWithEffects(spec, OpCall::MkdirOf(*ParsePath("/d")), 777, &fx);
  EXPECT_TRUE(result.status.ok());
  // Two effects: the root gained a link, and inode 777 appeared.
  ASSERT_EQ(fx.size(), 2u);
  EXPECT_TRUE(spec.Find(777) != nullptr);
  auto resolved = spec.Resolve(*ParsePath("/d"));
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, 777u);
}

TEST(Effects, RollbackUndoesMkdir) {
  SpecFs spec;
  SpecFs before = spec;
  std::vector<InodeEffect> fx;
  ApplyWithEffects(spec, OpCall::MkdirOf(*ParsePath("/d")), 777, &fx);
  RollbackEffects(spec, fx);
  EXPECT_TRUE(StructurallyEqual(spec, before));
  EXPECT_EQ(spec.Find(777), nullptr);
}

TEST(Effects, RollbackUndoesUnlinkRestoringContent) {
  SpecFs spec;
  ASSERT_TRUE(spec.Mknod("/f").ok());
  ASSERT_TRUE(spec.Write("/f", 0, std::span<const std::byte>(Payload("keep me"))).ok());
  SpecFs before = spec;
  std::vector<InodeEffect> fx;
  auto result = ApplyWithEffects(spec, OpCall::UnlinkOf(*ParsePath("/f")), kInvalidInum, &fx);
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(spec.Stat("/f").status().code(), Errc::kNoEnt);
  RollbackEffects(spec, fx);
  EXPECT_TRUE(StructurallyEqual(spec, before));
  EXPECT_EQ(ReadString(spec, "/f").value(), "keep me");
}

TEST(Effects, RollbackUndoesRenameWithVictim) {
  SpecFs spec;
  ASSERT_TRUE(spec.Mknod("/src").ok());
  ASSERT_TRUE(spec.Mknod("/dst").ok());
  ASSERT_TRUE(spec.Write("/dst", 0, std::span<const std::byte>(Payload("victim"))).ok());
  SpecFs before = spec;
  std::vector<InodeEffect> fx;
  auto result = ApplyWithEffects(
      spec, OpCall::RenameOf(*ParsePath("/src"), *ParsePath("/dst")), kInvalidInum, &fx);
  EXPECT_TRUE(result.status.ok());
  RollbackEffects(spec, fx);
  EXPECT_TRUE(StructurallyEqual(spec, before));
  EXPECT_EQ(ReadString(spec, "/dst").value(), "victim");
}

TEST(Effects, RollbackUndoesWrite) {
  SpecFs spec;
  ASSERT_TRUE(spec.Mknod("/f").ok());
  ASSERT_TRUE(spec.Write("/f", 0, std::span<const std::byte>(Payload("old"))).ok());
  SpecFs before = spec;
  std::vector<InodeEffect> fx;
  ApplyWithEffects(spec, OpCall::WriteOf(*ParsePath("/f"), 0, Payload("NEWDATA")), kInvalidInum,
                   &fx);
  EXPECT_EQ(ReadString(spec, "/f").value(), "NEWDATA");
  RollbackEffects(spec, fx);
  EXPECT_TRUE(StructurallyEqual(spec, before));
}

TEST(Effects, FailedOpHasNoEffects) {
  SpecFs spec;
  std::vector<InodeEffect> fx;
  auto result = ApplyWithEffects(spec, OpCall::RmdirOf(*ParsePath("/nope")), kInvalidInum, &fx);
  EXPECT_EQ(result.status.code(), Errc::kNoEnt);
  EXPECT_TRUE(fx.empty());
}

TEST(Effects, ReadOnlyOpHasNoEffects) {
  SpecFs spec;
  ASSERT_TRUE(spec.Mkdir("/d").ok());
  ASSERT_TRUE(spec.Mknod("/d/f").ok());
  std::vector<InodeEffect> fx;
  auto result = ApplyWithEffects(spec, OpCall::StatOf(*ParsePath("/d")), kInvalidInum, &fx);
  EXPECT_TRUE(result.status.ok());
  EXPECT_TRUE(fx.empty());
  for (const char* path : {"/", "/d/f", "/d/missing"}) {
    ApplyWithEffects(spec, OpCall::StatOf(*ParsePath(path)), kInvalidInum, &fx);
    EXPECT_TRUE(fx.empty()) << path;
  }
}

TEST(Effects, StackedRollbackInReverseOrder) {
  // Helped mkdir /a then helped mknod /a/f: rolling back in reverse order
  // restores the original empty tree.
  SpecFs spec;
  SpecFs before = spec;
  std::vector<InodeEffect> fx1;
  std::vector<InodeEffect> fx2;
  ApplyWithEffects(spec, OpCall::MkdirOf(*ParsePath("/a")), 100, &fx1);
  ApplyWithEffects(spec, OpCall::MknodOf(*ParsePath("/a/f")), 101, &fx2);
  RollbackEffects(spec, fx2);
  RollbackEffects(spec, fx1);
  EXPECT_TRUE(StructurallyEqual(spec, before));
}

TEST(Effects, RemapInumAcrossSpecAndEffects) {
  SpecFs spec;
  std::vector<InodeEffect> fx;
  ApplyWithEffects(spec, OpCall::MkdirOf(*ParsePath("/a")), kGhostInumBase, &fx);
  ApplyWithEffects(spec, OpCall::MknodOf(*ParsePath("/a/f")), kGhostInumBase + 1, &fx);
  // Placeholder for /a becomes concrete inum 42.
  RemapInum(spec, kGhostInumBase, 42, kRootInum);
  RemapInum(fx, kGhostInumBase, 42);
  auto resolved = spec.Resolve(*ParsePath("/a"));
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, 42u);
  EXPECT_TRUE(spec.WellFormed());
  for (const auto& e : fx) {
    EXPECT_NE(e.ino, kGhostInumBase);
  }
}

std::set<Inum> EffectInums(const std::vector<InodeEffect>& fx) {
  std::set<Inum> inos;
  for (const auto& e : fx) {
    inos.insert(e.ino);
  }
  return inos;
}

TEST(Effects, DeepMkdirRecordsOnlyParentAndCreation) {
  SpecFs spec;
  ASSERT_TRUE(spec.Mkdir("/a").ok());
  ASSERT_TRUE(spec.Mkdir("/a/b").ok());
  ASSERT_TRUE(spec.Mkdir("/a/b/c").ok());
  const Inum parent = *spec.Resolve(*ParsePath("/a/b/c"));
  std::vector<InodeEffect> fx;
  auto result = ApplyWithEffects(spec, OpCall::MkdirOf(*ParsePath("/a/b/c/d")), 900, &fx);
  ASSERT_TRUE(result.status.ok());
  // Not the root, /a or /a/b: only the directory that gained the link and
  // the inode the Aop created.
  EXPECT_EQ(EffectInums(fx), (std::set<Inum>{parent, 900}));
  for (const auto& e : fx) {
    EXPECT_EQ(static_cast<bool>(e.before), e.ino == parent);
  }
  EXPECT_TRUE(spec.Find(parent)->links.count("d") == 1);
}

TEST(Effects, RenameOverVictimRecordsBothDirsAndVictim) {
  SpecFs spec;
  ASSERT_TRUE(spec.Mkdir("/x").ok());
  ASSERT_TRUE(spec.Mkdir("/y").ok());
  ASSERT_TRUE(spec.Mknod("/x/s").ok());
  ASSERT_TRUE(spec.Mknod("/y/v").ok());
  ASSERT_TRUE(spec.Write("/y/v", 0, std::span<const std::byte>(Payload("victim"))).ok());
  const SpecFs before = spec;
  const Inum x = *spec.Resolve(*ParsePath("/x"));
  const Inum y = *spec.Resolve(*ParsePath("/y"));
  const Inum victim = *spec.Resolve(*ParsePath("/y/v"));
  std::vector<InodeEffect> fx;
  auto result = ApplyWithEffects(
      spec, OpCall::RenameOf(*ParsePath("/x/s"), *ParsePath("/y/v")), kInvalidInum, &fx);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(EffectInums(fx), (std::set<Inum>{x, y, victim}));
  EXPECT_EQ(spec.Find(victim), nullptr);
  RollbackEffects(spec, fx);
  EXPECT_TRUE(spec == before);  // every before-image restored, inums included
}

TEST(Effects, ForcedInumCollisionFailsCheck) {
  SpecFs spec;
  ASSERT_TRUE(spec.Mknod("/f").ok());
  const Inum taken = *spec.Resolve(*ParsePath("/f"));
  EXPECT_DEATH(ApplyWithEffects(spec, OpCall::MknodOf(*ParsePath("/g")), taken, nullptr),
               "ATOMFS_CHECK failed");
}

TEST(Effects, UnusedForcedInumDoesNotLeak) {
  SpecFs spec;
  ASSERT_TRUE(spec.Mknod("/f").ok());
  // mknod fails with EEXIST, so 77 is never used — nor handed to the next op.
  auto result = ApplyWithEffects(spec, OpCall::MknodOf(*ParsePath("/f")), 77, nullptr);
  EXPECT_EQ(result.status.code(), Errc::kExist);
  ASSERT_TRUE(spec.Mknod("/g").ok());
  EXPECT_NE(*spec.Resolve(*ParsePath("/g")), 77u);
}

TEST(Effects, ForcedInumUsedForMknod) {
  SpecFs spec;
  std::vector<InodeEffect> fx;
  auto result = ApplyWithEffects(spec, OpCall::MknodOf(*ParsePath("/f")), 55, &fx);
  EXPECT_TRUE(result.status.ok());
  auto resolved = spec.Resolve(*ParsePath("/f"));
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, 55u);
  EXPECT_EQ(EffectInums(fx), (std::set<Inum>{kRootInum, 55}));
  // The allocator was not consulted: the next unforced creation takes the
  // first number it would have handed out anyway.
  ASSERT_TRUE(spec.Mknod("/g").ok());
  EXPECT_EQ(*spec.Resolve(*ParsePath("/g")), kRootInum + 1);
  EXPECT_EQ(spec.imap().size(), 3u);
}

}  // namespace
}  // namespace atomfs
