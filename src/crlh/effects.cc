#include "src/crlh/effects.h"

#include "src/util/check.h"

namespace atomfs {

OpResult ApplyWithEffects(SpecFs& spec, const OpCall& call, Inum forced_ino,
                          std::vector<InodeEffect>* effects) {
  spec.ForceNextInum(forced_ino);
  spec.StartPreImageLog();
  OpResult result = RunOp(spec, call);
  spec.ForceNextInum(kInvalidInum);
  std::vector<InodeEffect> touched = spec.TakePreImageLog();
  if (effects != nullptr) {
    // Drop inodes a mutator touched without changing.
    std::erase_if(touched, [&](const InodeEffect& e) {
      const SpecInode* now = spec.Find(e.ino);
      return e.before.has_value() ? now != nullptr && *now == *e.before : now == nullptr;
    });
    *effects = std::move(touched);
  }
  return result;
}

void RollbackEffects(SpecFs& spec, const std::vector<InodeEffect>& effects) {
  for (auto it = effects.rbegin(); it != effects.rend(); ++it) {
    if (it->before.has_value()) {
      spec.imap_mutable()[it->ino] = *it->before;
    } else {
      spec.imap_mutable().erase(it->ino);
    }
  }
}

void RemapInum(SpecFs& spec, Inum from, Inum to, Inum parent) {
  auto& imap = spec.imap_mutable();
  if (auto node = imap.extract(from)) {
    ATOMFS_CHECK(imap.find(to) == imap.end());
    node.key() = to;
    imap.insert(std::move(node));
  }
  auto relink = [&](SpecInode& dir) {
    bool hit = false;
    for (auto& [name, child] : dir.links) {
      if (child == from) {
        child = to;
        hit = true;
      }
    }
    return hit;
  };
  if (parent != kInvalidInum) {
    auto it = imap.find(parent);
    if (it != imap.end() && relink(it->second)) {
      return;
    }
  }
  for (auto& [ino, node] : imap) {
    relink(node);
  }
}

void RemapInum(std::vector<InodeEffect>& effects, Inum from, Inum to) {
  for (auto& e : effects) {
    if (e.ino == from) {
      e.ino = to;
    }
    if (!e.before.has_value()) {
      continue;
    }
    for (auto& [name, child] : e.before->links) {
      if (child == from) {
        child = to;
      }
    }
  }
}

}  // namespace atomfs
