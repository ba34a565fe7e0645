#include "src/crlh/effects.h"

#include <algorithm>

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
      return e.before ? now != nullptr && *now == *e.before : now == nullptr;
    });
    *effects = std::move(touched);
  }
  return result;
}

void RollbackEffects(SpecFs& spec, const std::vector<InodeEffect>& effects) {
  spec.RestorePreImages(effects);
}

void RemapInum(SpecFs& spec, Inum from, Inum to, Inum parent) {
  if (spec.Find(from) != nullptr) {
    ATOMFS_CHECK(spec.Find(to) == nullptr);
    spec.Put(to, spec.imap().at(from));
    spec.Erase(from);
  }
  // Only a directory that links `from` is written, so no other shared
  // inode is cloned.
  auto relink = [&](Inum dir) {
    const SpecInode* node = spec.Find(dir);
    if (node == nullptr || std::none_of(node->links.begin(), node->links.end(),
                                        [&](const auto& link) { return link.second == from; })) {
      return false;
    }
    for (auto& [name, child] : spec.FindMutable(dir)->links) {
      if (child == from) {
        child = to;
      }
    }
    return true;
  };
  if (parent != kInvalidInum && relink(parent)) {
    return;
  }
  // Writing a value leaves the map's iterators valid.
  for (const auto& [ino, node] : spec.imap()) {
    relink(ino);
  }
}

void RemapInum(std::vector<InodeEffect>& effects, Inum from, Inum to) {
  for (auto& e : effects) {
    if (e.ino == from) {
      e.ino = to;
    }
    if (!e.before) {
      continue;
    }
    const auto& links = e.before->links;
    if (std::none_of(links.begin(), links.end(),
                     [&](const auto& link) { return link.second == from; })) {
      continue;
    }
    for (auto& [name, child] : e.before.Mutable().links) {
      if (child == from) {
        child = to;
      }
    }
  }
}

}  // namespace atomfs
