#include "src/crlh/rg_check.h"

#include <sstream>

namespace atomfs {
namespace {

// All inums whose content differs between the two states (including
// creations and frees).
std::set<Inum> DiffInums(const SpecFs& before, const SpecFs& after) {
  std::set<Inum> changed;
  for (const auto& [ino, node] : before.imap()) {
    const SpecInode* now = after.Find(ino);
    if (now == nullptr || !(*now == *node)) {
      changed.insert(ino);
    }
  }
  for (const auto& [ino, node] : after.imap()) {
    if (before.Find(ino) == nullptr) {
      changed.insert(ino);
    }
  }
  return changed;
}

// The directory linking to `ino`, in `state` (tree => at most one).
Inum ParentOf(const SpecFs& state, Inum ino) {
  for (const auto& [candidate, node] : state.imap()) {
    for (const auto& [name, child] : node->links) {
      if (child == ino) {
        return candidate;
      }
    }
  }
  return kInvalidInum;
}

}  // namespace

GuaranteeChecker::GuaranteeChecker(const AtomFs* fs, Options options)
    : fs_(fs), opts_(options), prev_(fs->SnapshotSpec()) {}

void GuaranteeChecker::Violation(std::string message) {
  violations_.push_back(std::move(message));
}

bool GuaranteeChecker::ok() const {
  std::lock_guard<std::mutex> lk(mu_);
  return violations_.empty();
}

std::vector<std::string> GuaranteeChecker::violations() const {
  std::lock_guard<std::mutex> lk(mu_);
  return violations_;
}

uint64_t GuaranteeChecker::transitions_checked() const {
  std::lock_guard<std::mutex> lk(mu_);
  return transitions_;
}

bool GuaranteeChecker::Covered(Inum ino, Tid actor, const SpecFs& before,
                               const SpecFs& after) const {
  auto held_by = [this, actor](Inum candidate) {
    if (candidate == kInvalidInum) {
      return false;
    }
    if (opts_.strict_attribution) {
      auto it = held_.find(actor);
      return it != held_.end() && it->second.count(candidate) != 0;
    }
    for (const auto& [tid, inos] : held_) {
      if (inos.count(candidate) != 0) {
        return true;
      }
    }
    return false;
  };
  if (held_by(ino)) {
    return true;
  }
  // Creations and frees are covered by the (locked) parent directory through
  // which the inode is linked or unlinked.
  return held_by(ParentOf(before, ino)) || held_by(ParentOf(after, ino));
}

void GuaranteeChecker::CheckTransition(Tid actor) {
  SpecFs now = fs_->SnapshotSpec();
  ++transitions_;
  for (Inum ino : DiffInums(prev_, now)) {
    if (!Covered(ino, actor, prev_, now)) {
      std::ostringstream os;
      os << "GUARANTEE violated: inode " << ino << " changed outside a Lockedtrans"
         << (opts_.strict_attribution ? " of thread " + std::to_string(actor) : "");
      Violation(os.str());
    }
  }
  prev_ = std::move(now);
}

void GuaranteeChecker::OnOpBegin(Tid tid, const OpCall& call) {
  (void)call;
  std::lock_guard<std::mutex> lk(mu_);
  CheckTransition(tid);
}

void GuaranteeChecker::OnOpEnd(Tid tid, const OpResult& result) {
  (void)result;
  std::lock_guard<std::mutex> lk(mu_);
  CheckTransition(tid);
}

void GuaranteeChecker::OnLockAcquired(Tid tid, Inum ino, LockPathRole role) {
  (void)role;
  std::lock_guard<std::mutex> lk(mu_);
  // The segment leading up to this acquire ran without `ino`'s protection:
  // check first, then record the Lock transition.
  CheckTransition(tid);
  held_[tid].insert(ino);
}

void GuaranteeChecker::OnLockReleased(Tid tid, Inum ino) {
  std::lock_guard<std::mutex> lk(mu_);
  // Mutations before the release were made under the lock: check while it
  // still counts as held, then record the Unlock transition.
  CheckTransition(tid);
  held_[tid].erase(ino);
}

void GuaranteeChecker::OnLp(Tid tid, Inum created_ino) {
  (void)created_ino;
  std::lock_guard<std::mutex> lk(mu_);
  CheckTransition(tid);
}

}  // namespace atomfs
