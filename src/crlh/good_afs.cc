#include "src/crlh/good_afs.h"

#include <map>
#include <string>

namespace atomfs {

void GoodAfsIndex::Rebuild(const SpecFs& spec) {
  parent_.clear();
  for (const auto& [ino, node] : spec.imap()) {
    for (const auto& [name, child] : node->links) {
      parent_[child] = ino;
    }
  }
}

bool GoodAfsIndex::Advance(const SpecFs& post, const std::vector<InodeEffect>& diff) {
  const SpecInode* root = post.Find(kRootInum);
  if (root == nullptr || root->type != FileType::kDir) {
    return false;
  }

  struct Link {
    Inum dir;
    Inum child;
  };
  struct Degree {
    bool touched = false;  // listed in the diff
    bool existed = false;  // meaningful when touched
    int delta = 0;         // in-degree change
  };
  std::vector<Link> removed;
  std::vector<Link> added;
  std::map<Inum, Degree> degrees;
  static const std::map<std::string, Inum> kNoLinks;

  for (const InodeEffect& e : diff) {
    Degree& self = degrees[e.ino];
    self.touched = true;
    self.existed = static_cast<bool>(e.before);
    const SpecInode* now = post.Find(e.ino);
    if (now != nullptr && now->type == FileType::kFile && !now->links.empty()) {
      return false;  // files carry no links
    }
    const auto& was = e.before ? e.before->links : kNoLinks;
    const auto& is = now != nullptr ? now->links : kNoLinks;
    auto remove = [&](Inum child) {
      removed.push_back(Link{e.ino, child});
      --degrees[child].delta;
    };
    auto add = [&](const std::string& name, Inum child) {
      added.push_back(Link{e.ino, child});
      ++degrees[child].delta;
      return ValidateName(name).ok();
    };
    // Merge the two name-sorted link maps.
    auto w = was.begin();
    auto i = is.begin();
    while (w != was.end() || i != is.end()) {
      if (i == is.end() || (w != was.end() && w->first < i->first)) {
        remove(w->second);
        ++w;
      } else if (w == was.end() || i->first < w->first) {
        if (!add(i->first, i->second)) {
          return false;
        }
        ++i;
      } else {
        if (w->second != i->second) {
          remove(w->second);
          add(i->first, i->second);
        }
        ++w;
        ++i;
      }
    }
  }

  // In-degree: 1 for every live non-root inode, 0 for the root and for freed
  // inodes. Inodes outside the diff existed before iff they exist now.
  for (const auto& [ino, d] : degrees) {
    const bool exists = post.Find(ino) != nullptr;
    const bool existed = d.touched ? d.existed : exists;
    const int before = existed && ino != kRootInum ? 1 : 0;
    const int want = exists && ino != kRootInum ? 1 : 0;
    if (before + d.delta != want) {
      return false;
    }
  }

  // Every inode now has one parent, so removing the old links and adding
  // the new ones (in that order: a rename within one directory does both)
  // leaves the index mirroring `post`.
  for (const Link& l : removed) {
    auto it = parent_.find(l.child);
    if (it != parent_.end() && it->second == l.dir) {
      parent_.erase(it);
    }
  }
  for (const Link& l : added) {
    parent_[l.child] = l.dir;
  }

  // Acyclicity: a new cycle passes through an added link dir -> child, so
  // the child is an ancestor of dir. The step bound stops a walk caught in a
  // cycle through some other added link.
  for (const Link& l : added) {
    Inum cur = l.dir;
    for (size_t steps = 0; cur != kRootInum; ++steps) {
      if (cur == l.child || steps > parent_.size()) {
        return false;
      }
      auto it = parent_.find(cur);
      if (it == parent_.end()) {
        return false;
      }
      cur = it->second;
    }
  }
  return true;
}

Inum GoodAfsIndex::Parent(Inum ino) const {
  auto it = parent_.find(ino);
  return it == parent_.end() ? kInvalidInum : it->second;
}

void GoodAfsIndex::Remap(const SpecFs& spec, Inum from, Inum to) {
  if (auto entry = parent_.extract(from)) {
    entry.key() = to;
    parent_.insert(std::move(entry));
  }
  if (const SpecInode* node = spec.Find(to)) {
    for (const auto& [name, child] : node->links) {
      parent_[child] = to;
    }
  }
}

}  // namespace atomfs
