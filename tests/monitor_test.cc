// Direct unit tests of the CrlhMonitor event machine: we drive the observer
// API by hand (no file system) and check ghost-state maintenance, the
// AopState life cycle, and the self-diagnostics for malformed event streams.

#include "src/crlh/monitor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace atomfs {
namespace {

OpCall Mkdir(std::string_view p) { return OpCall::MkdirOf(*ParsePath(p)); }
OpCall Stat(std::string_view p) { return OpCall::StatOf(*ParsePath(p)); }
OpCall Rename(std::string_view s, std::string_view d) {
  return OpCall::RenameOf(*ParsePath(s), *ParsePath(d));
}

OpResult Ok() {
  OpResult r;
  return r;
}

OpResult Err(Errc code) {
  OpResult r;
  r.status = Status(code);
  return r;
}

TEST(MonitorUnit, CleanSingleOpLifecycle) {
  CrlhMonitor m;
  m.OnOpBegin(1, Mkdir("/a"));
  m.OnLockAcquired(1, kRootInum, LockPathRole::kSingle);
  m.OnLp(1, /*created_ino=*/7);
  m.OnLockReleased(1, kRootInum);
  m.OnOpEnd(1, Ok());
  EXPECT_TRUE(m.ok()) << m.violations()[0];
  ASSERT_EQ(m.Completed().size(), 1u);
  EXPECT_FALSE(m.Completed()[0].helped);
  // The abstract tree contains /a with the concrete inum.
  auto resolved = m.AbstractState().Resolve(*ParsePath("/a"));
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, 7u);
}

TEST(MonitorUnit, RefinementMismatchIsFlagged) {
  CrlhMonitor m;
  m.OnOpBegin(1, Mkdir("/a"));
  m.OnLockAcquired(1, kRootInum, LockPathRole::kSingle);
  m.OnLp(1, 7);
  m.OnLockReleased(1, kRootInum);
  m.OnOpEnd(1, Err(Errc::kExist));  // concrete claims EEXIST; abstract said OK
  EXPECT_FALSE(m.ok());
  EXPECT_NE(m.violations()[0].find("REFINEMENT"), std::string::npos);
}

TEST(MonitorUnit, OpEndWithoutLpIsFlagged) {
  CrlhMonitor m;
  m.OnOpBegin(1, Stat("/"));
  m.OnOpEnd(1, Ok());
  EXPECT_FALSE(m.ok());
  EXPECT_NE(m.violations()[0].find("without linearizing"), std::string::npos);
}

TEST(MonitorUnit, DoubleBeginIsFlagged) {
  CrlhMonitor m;
  m.OnOpBegin(1, Stat("/"));
  m.OnOpBegin(1, Stat("/"));
  EXPECT_FALSE(m.ok());
}

TEST(MonitorUnit, DoubleLpIsFlagged) {
  CrlhMonitor m;
  m.OnOpBegin(1, Stat("/"));
  m.OnLockAcquired(1, kRootInum, LockPathRole::kSingle);
  m.OnLp(1, kInvalidInum);
  m.OnLp(1, kInvalidInum);
  EXPECT_FALSE(m.ok());
}

TEST(MonitorUnit, EventsWithoutBeginAreFlagged) {
  CrlhMonitor m1;
  m1.OnLockAcquired(1, kRootInum, LockPathRole::kSingle);
  EXPECT_FALSE(m1.ok());
  CrlhMonitor m2;
  m2.OnLp(1, kInvalidInum);
  EXPECT_FALSE(m2.ok());
  CrlhMonitor m3;
  m3.OnOpEnd(1, Ok());
  EXPECT_FALSE(m3.ok());
}

TEST(MonitorUnit, ReleasingUnheldLockIsFlagged) {
  CrlhMonitor m;
  m.OnOpBegin(1, Stat("/"));
  m.OnLockReleased(1, kRootInum);
  EXPECT_FALSE(m.ok());
}

TEST(MonitorUnit, FinishingWhileHoldingLocksIsFlagged) {
  CrlhMonitor m;
  m.OnOpBegin(1, Stat("/"));
  m.OnLockAcquired(1, kRootInum, LockPathRole::kSingle);
  m.OnLp(1, kInvalidInum);
  m.OnOpEnd(1, Ok());
  EXPECT_FALSE(m.ok());
}

TEST(MonitorUnit, LastLockedInvariantFlagsCouplingBreak) {
  CrlhMonitor m;
  m.OnOpBegin(1, Mkdir("/a/b"));
  m.OnLockAcquired(1, kRootInum, LockPathRole::kSingle);
  // Releasing the LockPath tip before the LP = coupling violated.
  m.OnLockReleased(1, kRootInum);
  EXPECT_FALSE(m.ok());
  EXPECT_NE(m.violations()[0].find("Last-locked-lockpath"), std::string::npos);
}

TEST(MonitorUnit, HelperLifecycleByHand) {
  // Thread 2: mkdir(/a/b) in flight, holding (root, a). Thread 1:
  // rename(/a, /c) reaches its LP and must help thread 2.
  CrlhMonitor m;
  // Ghost setup: /a exists with inum 5 (created by a prior op).
  m.OnOpBegin(3, Mkdir("/a"));
  m.OnLockAcquired(3, kRootInum, LockPathRole::kSingle);
  m.OnLp(3, 5);
  m.OnLockReleased(3, kRootInum);
  m.OnOpEnd(3, Ok());

  m.OnOpBegin(2, Mkdir("/a/b"));
  m.OnLockAcquired(2, kRootInum, LockPathRole::kSingle);
  m.OnLockAcquired(2, 5, LockPathRole::kSingle);
  m.OnLockReleased(2, kRootInum);

  m.OnOpBegin(1, Rename("/a", "/c"));
  m.OnLockAcquired(1, kRootInum, LockPathRole::kRenameCommon);
  m.OnLockAcquired(1, 5, LockPathRole::kRenameSrc);  // snode
  m.OnLp(1, kInvalidInum);
  EXPECT_EQ(m.helped_ops(), 1u);
  EXPECT_EQ(m.Helplist().size(), 1u);
  EXPECT_EQ(m.Helplist()[0], 2u);
  {
    auto d = m.GetDescriptor(2);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->state, AopState::kHelped);
    EXPECT_EQ(d->helper, 1u);
    EXPECT_FALSE(d->effects.empty());
    EXPECT_NE(d->placeholder, kInvalidInum);
  }
  m.OnLockReleased(1, 5);
  m.OnLockReleased(1, kRootInum);
  m.OnOpEnd(1, Ok());

  // Thread 2 finishes: concrete insert created inum 9.
  m.OnLp(2, 9);
  EXPECT_TRUE(m.Helplist().empty());
  m.OnLockReleased(2, 5);
  m.OnOpEnd(2, Ok());

  ASSERT_TRUE(m.ok()) << m.violations()[0];
  // Placeholder was remapped: /c/b has the concrete inum 9.
  auto resolved = m.AbstractState().Resolve(*ParsePath("/c/b"));
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, 9u);
  auto recs = m.Completed();
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_TRUE(recs[2].helped);  // the mkdir(/a/b)
  EXPECT_EQ(recs[2].helper, 1u);
}

TEST(MonitorUnit, FixedLpModeDoesNotHelp) {
  CrlhMonitor::Options opts;
  opts.fixed_lp_mode = true;
  CrlhMonitor m(opts);
  m.OnOpBegin(3, Mkdir("/a"));
  m.OnLockAcquired(3, kRootInum, LockPathRole::kSingle);
  m.OnLp(3, 5);
  m.OnLockReleased(3, kRootInum);
  m.OnOpEnd(3, Ok());

  m.OnOpBegin(2, Mkdir("/a/b"));
  m.OnLockAcquired(2, kRootInum, LockPathRole::kSingle);
  m.OnLockAcquired(2, 5, LockPathRole::kSingle);
  m.OnLockReleased(2, kRootInum);

  m.OnOpBegin(1, Rename("/a", "/c"));
  m.OnLockAcquired(1, kRootInum, LockPathRole::kRenameCommon);
  m.OnLockAcquired(1, 5, LockPathRole::kRenameSrc);
  m.OnLp(1, kInvalidInum);
  EXPECT_EQ(m.helped_ops(), 0u);
  EXPECT_TRUE(m.Helplist().empty());
}

TEST(MonitorUnit, RecordHistoryOffKeepsNoRecords) {
  CrlhMonitor::Options opts;
  opts.record_history = false;
  CrlhMonitor m(opts);
  m.OnOpBegin(1, Stat("/"));
  m.OnLockAcquired(1, kRootInum, LockPathRole::kSingle);
  m.OnLp(1, kInvalidInum);
  m.OnLockReleased(1, kRootInum);
  OpResult stat_ok;
  stat_ok.attr.type = FileType::kDir;
  m.OnOpEnd(1, stat_ok);
  EXPECT_TRUE(m.ok()) << m.violations()[0];
  EXPECT_TRUE(m.Completed().empty());
}

TEST(MonitorUnit, QuiescentMismatchDetected) {
  CrlhMonitor m;
  m.OnOpBegin(1, Mkdir("/a"));
  m.OnLockAcquired(1, kRootInum, LockPathRole::kSingle);
  m.OnLp(1, 7);
  m.OnLockReleased(1, kRootInum);
  m.OnOpEnd(1, Ok());
  SpecFs empty_tree;  // does not contain /a
  EXPECT_FALSE(m.CheckQuiescent(empty_tree));
}

// An optimistic reader that locked its target holds only that lock; a
// rename of an ancestor can reach its LP before the reader reports its
// validation and its LP. The rename computes the read's result first, so the
// read linearizes on the path it walked.
TEST(MonitorUnit, RenameHelpsValidatedOptimisticReader) {
  CrlhMonitor m;
  m.OnOpBegin(3, Mkdir("/a"));
  m.OnLockAcquired(3, kRootInum, LockPathRole::kSingle);
  m.OnLp(3, 5);
  m.OnLockReleased(3, kRootInum);
  m.OnOpEnd(3, Ok());
  m.OnOpBegin(3, Mkdir("/a/b"));
  m.OnLockAcquired(3, kRootInum, LockPathRole::kSingle);
  m.OnLockAcquired(3, 5, LockPathRole::kSingle);
  m.OnLockReleased(3, kRootInum);
  m.OnLp(3, 6);
  m.OnLockReleased(3, 5);
  m.OnOpEnd(3, Ok());

  m.OnOpBegin(2, Stat("/a/b"));
  m.OnOptWalkStart(2);
  m.OnLockAcquired(2, 6, LockPathRole::kOptTarget);

  m.OnOpBegin(1, Rename("/a", "/c"));
  m.OnLockAcquired(1, kRootInum, LockPathRole::kRenameCommon);
  m.OnLockAcquired(1, 5, LockPathRole::kRenameSrc);
  m.OnLp(1, kInvalidInum);
  m.OnLockReleased(1, 5);
  m.OnLockReleased(1, kRootInum);
  m.OnOpEnd(1, Ok());

  m.OnOptWalkValidate(2, OptValidation::kPass, 3);
  m.OnLp(2, kInvalidInum);
  EXPECT_EQ(m.helped_ops(), 1u);
  m.OnLockReleased(2, 6);
  OpResult stat = Ok();
  stat.attr.ino = 6;
  stat.attr.type = FileType::kDir;
  m.OnOpEnd(2, stat);
  ASSERT_TRUE(m.ok()) << m.violations()[0];
  EXPECT_TRUE(m.Helplist().empty());
  auto recs = m.Completed();
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_TRUE(recs[3].helped);
  EXPECT_EQ(recs[3].helper, 1u);
}

// The result a helper computed for an optimistic reader belongs to that
// walk: a failed validation drops it, and the retry linearizes on its own.
TEST(MonitorUnit, FailedValidationDropsTheHelperResult) {
  CrlhMonitor m;
  m.OnOpBegin(3, Mkdir("/a"));
  m.OnLockAcquired(3, kRootInum, LockPathRole::kSingle);
  m.OnLp(3, 5);
  m.OnLockReleased(3, kRootInum);
  m.OnOpEnd(3, Ok());

  m.OnOpBegin(2, Stat("/a"));
  m.OnOptWalkStart(2);
  m.OnLockAcquired(2, 5, LockPathRole::kOptTarget);
  m.OnOpBegin(1, Rename("/a", "/c"));
  m.OnLockAcquired(1, kRootInum, LockPathRole::kRenameCommon);
  m.OnLp(1, kInvalidInum);  // a rename that did not need the reader's target
  m.OnLockReleased(1, kRootInum);
  m.OnOpEnd(1, Ok());
  m.OnOptWalkValidate(2, OptValidation::kFail, 2);
  m.OnLockReleased(2, 5);
  m.OnOptWalkFallback(2);
  m.OnLockAcquired(2, kRootInum, LockPathRole::kSingle);
  m.OnLp(2, kInvalidInum);
  m.OnLockReleased(2, kRootInum);
  m.OnOpEnd(2, Err(Errc::kNoEnt));
  ASSERT_TRUE(m.ok()) << m.violations()[0];
  EXPECT_EQ(m.helped_ops(), 0u);
}

// AbstractState() hands out a copy that shares the ghost state's inodes. A
// reader on another thread must see a stable snapshot while the monitor
// keeps applying Aops (each clones the inodes it writes), and dropping the
// copy there must not race with the monitor's next write.
TEST(MonitorUnit, AbstractStateCopyIsStableOnAnotherThread) {
  CrlhMonitor m;
  const int kDirs = 8;
  const int kOps = 400;
  auto mkdir = [&m](const std::string& path, std::vector<Inum> lock_path, Inum created) {
    m.OnOpBegin(1, Mkdir(path));
    for (Inum ino : lock_path) {
      m.OnLockAcquired(1, ino, LockPathRole::kSingle);
    }
    for (size_t k = 0; k + 1 < lock_path.size(); ++k) {
      m.OnLockReleased(1, lock_path[k]);
    }
    m.OnLp(1, created);
    m.OnLockReleased(1, lock_path.back());
    m.OnOpEnd(1, Ok());
  };
  for (int d = 0; d < kDirs; ++d) {
    mkdir("/d" + std::to_string(d), {kRootInum}, 10 + d);
  }
  std::atomic<bool> done{false};
  SpecFs held = m.AbstractState();  // read and dropped by the reader alone
  std::thread reader([&done, &m, held = std::move(held)] {
    const size_t held_links = held.Find(kRootInum)->links.size();
    size_t last_total = 0;
    while (!done.load()) {
      SpecFs snap = m.AbstractState();
      EXPECT_TRUE(snap.WellFormed());
      EXPECT_GE(snap.imap().size(), last_total);
      last_total = snap.imap().size();
      // A copy held across many Aops never changes.
      EXPECT_EQ(held.Find(kRootInum)->links.size(), held_links);
      EXPECT_EQ(held.imap().size(), static_cast<size_t>(kDirs) + 1);
    }
  });
  for (int i = 0; i < kOps; ++i) {
    const int d = i % kDirs;
    mkdir("/d" + std::to_string(d) + "/e" + std::to_string(i),
          {kRootInum, static_cast<Inum>(10 + d)}, 100 + i);
  }
  done.store(true);
  reader.join();
  ASSERT_TRUE(m.ok()) << m.violations()[0];
  EXPECT_EQ(m.AbstractState().imap().size(), static_cast<size_t>(kDirs + kOps + 1));
}

}  // namespace
}  // namespace atomfs
