// Differential test of the incremental GoodAFS check (src/crlh/good_afs.h,
// run by the CRL-H monitor after every Aop) against the full-walk
// SpecFs::WellFormed().
//
// Positive direction: long random sequences of every mutating op kind, with
// refused renames into a descendant and helped creations whose ghost
// placeholders are later remapped to concrete inums; both verdicts must
// accept after every step and the index must equal one rebuilt from scratch.
// Negative direction: every corruption kind, injected through Put/FindMutable
// with a matching diff at many reachable states, must be rejected by both.

#include "src/crlh/good_afs.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/crlh/effects.h"
#include "src/crlh/ghost.h"
#include "src/util/rand.h"

namespace atomfs {
namespace {

constexpr Inum kConcreteBase = 5000;  // "concrete" inums forced into the spec
constexpr Inum kAllocBase = 100;      // the spec's own allocator

Path P(const std::string& s) { return *ParsePath(s); }

std::string RandomPath(Rng& rng) {
  static const char* kNames[] = {"a", "b", "c"};
  std::string p;
  const uint64_t depth = rng.Between(1, 3);
  for (uint64_t i = 0; i < depth; ++i) {
    p += "/";
    p += kNames[rng.Below(3)];
  }
  return p;
}

std::vector<std::byte> Bytes(size_t n) { return std::vector<std::byte>(n, std::byte{0x5a}); }

bool IndexMirrors(const GoodAfsIndex& index, const SpecFs& spec) {
  GoodAfsIndex fresh;
  fresh.Rebuild(spec);
  return fresh == index;
}

// --- corruptions ---------------------------------------------------------------

enum class Corruption {
  kDanglingLink,
  kLinkedTwice,
  kLinkToRoot,
  kRenameCycle,
  kOrphan,
  kFileWithLinks,
  kInvalidName,
};
constexpr Corruption kAllCorruptions[] = {
    Corruption::kDanglingLink, Corruption::kLinkedTwice,   Corruption::kLinkToRoot,
    Corruption::kRenameCycle,  Corruption::kOrphan,        Corruption::kFileWithLinks,
    Corruption::kInvalidName,
};

const char* Name(Corruption c) {
  switch (c) {
    case Corruption::kDanglingLink:
      return "dangling link";
    case Corruption::kLinkedTwice:
      return "inode linked twice";
    case Corruption::kLinkToRoot:
      return "link to the root";
    case Corruption::kRenameCycle:
      return "rename cycle";
    case Corruption::kOrphan:
      return "orphaned inode";
    case Corruption::kFileWithLinks:
      return "file with links";
    case Corruption::kInvalidName:
      return "invalid name";
  }
  return "?";
}

// Mutates a SpecFs behind the spec's back and records the matching diff:
// the pre-image of every inode it touches, taken before the first touch.
class Corruptor {
 public:
  explicit Corruptor(SpecFs& spec) : spec_(spec) {}

  SpecInode& Mut(Inum ino) {
    Record(ino);
    if (spec_.Find(ino) == nullptr) {
      spec_.Put(ino, SpecInode{});
    }
    return *spec_.FindMutable(ino);
  }
  void Free(Inum ino) {
    Record(ino);
    spec_.Erase(ino);
  }
  std::vector<InodeEffect> TakeDiff() { return std::move(diff_); }

 private:
  void Record(Inum ino) {
    for (const InodeEffect& e : diff_) {
      if (e.ino == ino) {
        return;
      }
    }
    auto it = spec_.imap().find(ino);
    diff_.push_back(InodeEffect{ino, it == spec_.imap().end() ? InodeRef() : it->second});
  }

  SpecFs& spec_;
  std::vector<InodeEffect> diff_;
};

// Picks uniformly among the inodes satisfying `pred`; kInvalidInum if none.
template <typename Pred>
Inum Pick(const SpecFs& spec, Rng& rng, Pred pred) {
  std::vector<Inum> candidates;
  for (const auto& [ino, node] : spec.imap()) {
    if (pred(ino, *node)) {
      candidates.push_back(ino);
    }
  }
  return candidates.empty() ? kInvalidInum : candidates[rng.Below(candidates.size())];
}

bool IsDir(const SpecInode& n) { return n.type == FileType::kDir; }

// Applies corruption `kind` to `spec` (well-formed, indexed by `index`) and
// returns its diff, or nullopt when the state offers nothing to corrupt.
std::optional<std::vector<InodeEffect>> Corrupt(SpecFs& spec, const GoodAfsIndex& index,
                                                Corruption kind, Rng& rng) {
  Corruptor c(spec);
  const Inum any_dir = Pick(spec, rng, [](Inum, const SpecInode& n) { return IsDir(n); });
  const Inum non_root = Pick(spec, rng, [](Inum ino, const SpecInode&) { return ino != kRootInum; });
  switch (kind) {
    case Corruption::kDanglingLink:
      if (rng.Chance(1, 2) || non_root == kInvalidInum) {
        c.Mut(any_dir).links["zz"] = 999999;  // a link to nothing
      } else {
        // Free an inode but keep the link to it.
        const Inum leaf = Pick(spec, rng, [](Inum ino, const SpecInode& n) {
          return ino != kRootInum && n.links.empty();
        });
        c.Free(leaf);
      }
      break;
    case Corruption::kLinkedTwice:
      if (non_root == kInvalidInum) {
        return std::nullopt;
      }
      c.Mut(any_dir).links["zz"] = non_root;
      break;
    case Corruption::kLinkToRoot:
      c.Mut(any_dir).links["zz"] = kRootInum;
      break;
    case Corruption::kRenameCycle: {
      // Move a directory under itself or one of its descendants.
      const Inum a = Pick(spec, rng, [](Inum ino, const SpecInode& n) {
        return ino != kRootInum && IsDir(n);
      });
      if (a == kInvalidInum) {
        return std::nullopt;
      }
      const Inum b = Pick(spec, rng, [&](Inum ino, const SpecInode& n) {
        if (!IsDir(n)) {
          return false;
        }
        for (Inum cur = ino; cur != kInvalidInum; cur = index.Parent(cur)) {
          if (cur == a) {
            return true;
          }
        }
        return false;
      });
      const Inum p = index.Parent(a);
      auto& plinks = c.Mut(p).links;
      for (auto it = plinks.begin(); it != plinks.end(); ++it) {
        if (it->second == a) {
          plinks.erase(it);
          break;
        }
      }
      c.Mut(b).links["zz"] = a;
      break;
    }
    case Corruption::kOrphan:
      if (rng.Chance(1, 2) || non_root == kInvalidInum) {
        c.Mut(888888).type = rng.Chance(1, 2) ? FileType::kDir : FileType::kFile;
      } else {
        // Unlink an inode without freeing it.
        auto& plinks = c.Mut(index.Parent(non_root)).links;
        for (auto it = plinks.begin(); it != plinks.end(); ++it) {
          if (it->second == non_root) {
            plinks.erase(it);
            break;
          }
        }
      }
      break;
    case Corruption::kFileWithLinks: {
      const Inum f = Pick(spec, rng, [](Inum, const SpecInode& n) { return !IsDir(n); });
      if (f == kInvalidInum) {
        return std::nullopt;
      }
      c.Mut(777777).type = FileType::kFile;
      c.Mut(f).links["zz"] = 777777;
      break;
    }
    case Corruption::kInvalidName: {
      const Inum d = Pick(spec, rng, [](Inum, const SpecInode& n) {
        return IsDir(n) && !n.links.empty();
      });
      if (d == kInvalidInum) {
        return std::nullopt;
      }
      static const std::string kBad[] = {"", ".", "..", "x/y", std::string(kMaxNameLen + 1, 'n')};
      auto& links = c.Mut(d).links;
      auto it = links.begin();
      std::advance(it, static_cast<ptrdiff_t>(rng.Below(links.size())));
      const Inum child = it->second;
      links.erase(it);
      links[kBad[rng.Below(std::size(kBad))]] = child;
      break;
    }
  }
  return c.TakeDiff();
}

// --- the differential run ----------------------------------------------------------

struct Coverage {
  std::map<OpKind, int> ok;
  int rename_into_self = 0;
  int rename_over_victim = 0;
  int placeholders_remapped = 0;
  std::map<Corruption, int> injected;
};

// One random step on (spec, index); fails the test on a verdict mismatch.
void Step(SpecFs& spec, GoodAfsIndex& index, Rng& rng, std::vector<Inum>& placeholders,
          Inum& next_ghost, Inum& next_concrete, Coverage& cov) {
  // Helped creations' placeholders become concrete at "their LP", in any
  // order relative to other Aops.
  if (!placeholders.empty() && rng.Chance(1, 4)) {
    const size_t i = rng.Below(placeholders.size());
    const Inum from = placeholders[i];
    placeholders.erase(placeholders.begin() + static_cast<ptrdiff_t>(i));
    if (spec.Find(from) != nullptr) {
      const Inum to = next_concrete++;
      RemapInum(spec, from, to, index.Parent(from));
      index.Remap(spec, from, to);
      ++cov.placeholders_remapped;
      ASSERT_TRUE(spec.WellFormed());
      ASSERT_TRUE(IndexMirrors(index, spec)) << "after remapping " << from << " -> " << to;
    }
  }

  OpCall call;
  const std::string a = RandomPath(rng);
  switch (rng.Below(8)) {
    case 0:
      call = OpCall::MkdirOf(P(a));
      break;
    case 1:
      call = OpCall::MknodOf(P(a));
      break;
    case 2:
      call = OpCall::UnlinkOf(P(a));
      break;
    case 3:
      call = OpCall::RmdirOf(P(a));
      break;
    case 4: {
      // A third of the renames target a descendant of their source, a third
      // a sibling (which often exists: a rename over a victim).
      std::string b = RandomPath(rng);
      if (rng.Chance(1, 3)) {
        b = a + "/b";
      } else if (rng.Chance(1, 2)) {
        b = a.substr(0, a.rfind('/') + 1) + (a.back() == 'c' ? "a" : "c");
      }
      call = OpCall::RenameOf(P(a), P(b));
      break;
    }
    case 5:
      call = OpCall::ExchangeOf(P(a), P(RandomPath(rng)));
      break;
    case 6:
      call = OpCall::WriteOf(P(a), rng.Below(8), Bytes(rng.Between(1, 8)));
      break;
    default:
      call = OpCall::TruncateOf(P(a), rng.Below(16));
      break;
  }

  Inum forced = kInvalidInum;
  const bool creates = call.kind == OpKind::kMkdir || call.kind == OpKind::kMknod;
  if (creates && rng.Chance(1, 3)) {
    forced = next_ghost++;  // a helped creation
  } else if (creates && rng.Chance(1, 2)) {
    forced = next_concrete++;  // an unhelped one mirrors the concrete inum
  }
  const bool victim = call.kind == OpKind::kRename && spec.Resolve(call.b).ok();
  std::vector<InodeEffect> diff;
  const OpResult result = ApplyWithEffects(spec, call, forced, &diff);
  if (result.status.ok()) {
    ++cov.ok[call.kind];
    if (forced >= kGhostInumBase) {
      placeholders.push_back(forced);
    }
    cov.rename_over_victim += victim && call.a != call.b ? 1 : 0;
  } else if (call.kind == OpKind::kRename && result.status.code() == Errc::kInval) {
    ++cov.rename_into_self;
  }

  const bool incremental = index.Advance(spec, diff);
  const bool full = spec.WellFormed();
  ASSERT_EQ(incremental, full) << call.ToString();
  ASSERT_TRUE(full) << call.ToString();
  ASSERT_TRUE(IndexMirrors(index, spec)) << call.ToString();

  // Negative direction: corrupt a copy of this state.
  const Corruption kind = kAllCorruptions[rng.Below(std::size(kAllCorruptions))];
  SpecFs bad = spec;
  GoodAfsIndex bad_index = index;
  auto bad_diff = Corrupt(bad, bad_index, kind, rng);
  if (bad_diff.has_value()) {
    ++cov.injected[kind];
    EXPECT_FALSE(bad.WellFormed()) << Name(kind);
    EXPECT_FALSE(bad_index.Advance(bad, *bad_diff)) << Name(kind);
  }
}

TEST(GoodAfsDifferential, RandomSequencesAgreeWithWellFormed) {
  Coverage cov;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SpecFs spec;
    spec.SetNextInum(kAllocBase);
    GoodAfsIndex index;
    index.Rebuild(spec);
    Rng rng(seed);
    std::vector<Inum> placeholders;
    Inum next_ghost = kGhostInumBase;
    Inum next_concrete = kConcreteBase + seed * 10000;
    for (int i = 0; i < 1000; ++i) {
      ASSERT_NO_FATAL_FAILURE(
          Step(spec, index, rng, placeholders, next_ghost, next_concrete, cov))
          << "seed " << seed << " step " << i;
    }
  }
  for (OpKind k : {OpKind::kMkdir, OpKind::kMknod, OpKind::kUnlink, OpKind::kRmdir,
                   OpKind::kRename, OpKind::kExchange, OpKind::kWrite, OpKind::kTruncate}) {
    EXPECT_GT(cov.ok[k], 50) << "op kind " << static_cast<int>(k) << " rarely succeeded";
  }
  EXPECT_GT(cov.rename_into_self, 50);
  EXPECT_GT(cov.rename_over_victim, 50);
  EXPECT_GT(cov.placeholders_remapped, 50);
  for (Corruption c : kAllCorruptions) {
    EXPECT_GT(cov.injected[c], 100) << Name(c);
  }
}

// Each corruption on one fixed tree, for a readable failure.
TEST(GoodAfsDifferential, EveryCorruptionKindIsRejectedByBothChecks) {
  SpecFs base;
  for (const char* d : {"/a", "/a/b", "/a/b/c", "/d"}) {
    ASSERT_TRUE(base.Mkdir(d).ok());
  }
  for (const char* f : {"/a/f", "/a/b/g", "/d/h"}) {
    ASSERT_TRUE(base.Mknod(f).ok());
  }
  GoodAfsIndex base_index;
  base_index.Rebuild(base);
  Rng rng(42);
  for (Corruption kind : kAllCorruptions) {
    for (int trial = 0; trial < 20; ++trial) {
      SpecFs spec = base;
      GoodAfsIndex index = base_index;
      auto diff = Corrupt(spec, index, kind, rng);
      ASSERT_TRUE(diff.has_value()) << Name(kind);
      EXPECT_FALSE(spec.WellFormed()) << Name(kind);
      EXPECT_FALSE(index.Advance(spec, *diff)) << Name(kind);
    }
  }
}

TEST(GoodAfsIndex, RemapFixesTheOneParentLinkAndTheChildren) {
  SpecFs spec;
  GoodAfsIndex index;
  index.Rebuild(spec);
  std::vector<InodeEffect> diff;
  ApplyWithEffects(spec, OpCall::MkdirOf(P("/a")), kGhostInumBase, &diff);
  ASSERT_TRUE(index.Advance(spec, diff));
  ApplyWithEffects(spec, OpCall::MknodOf(P("/a/f")), kGhostInumBase + 1, &diff);
  ASSERT_TRUE(index.Advance(spec, diff));
  EXPECT_EQ(index.Parent(kGhostInumBase + 1), kGhostInumBase);

  RemapInum(spec, kGhostInumBase, 42, index.Parent(kGhostInumBase));
  index.Remap(spec, kGhostInumBase, 42);
  EXPECT_EQ(*spec.Resolve(P("/a")), 42u);
  EXPECT_EQ(index.Parent(42), kRootInum);
  EXPECT_EQ(index.Parent(kGhostInumBase + 1), 42u);
  EXPECT_EQ(index.Parent(kGhostInumBase), kInvalidInum);
  EXPECT_TRUE(spec.WellFormed());
  EXPECT_TRUE(IndexMirrors(index, spec));
}

}  // namespace
}  // namespace atomfs
