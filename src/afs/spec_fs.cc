#include "src/afs/spec_fs.h"

#include <algorithm>
#include <deque>
#include <set>
#include <utility>

#include "src/util/check.h"

namespace atomfs {
namespace {

// FNV-1a accumulation helpers for SpecFs::Hash().
constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

uint64_t FnvMixBytes(uint64_t h, const void* p, size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

InodeRef::~InodeRef() {
  if (rep_ != nullptr && rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete rep_;
  }
}

SpecInode& InodeRef::Mutable() {
  // A count of 1 cannot rise behind our back: only this handle could be
  // copied, and its SpecFs is single-threaded.
  if (!unique()) {
    *this = InodeRef(rep_->node);
  }
  return rep_->node;
}

SpecFs::SpecFs() {
  SpecInode root;
  root.type = FileType::kDir;
  Put(kRootInum, std::move(root));
}

const SpecInode* SpecFs::Find(Inum ino) const {
  auto it = imap_.find(ino);
  return it == imap_.end() ? nullptr : it->second.get();
}

SpecInode* SpecFs::FindMutable(Inum ino) {
  auto it = imap_.find(ino);
  if (it == imap_.end()) {
    return nullptr;
  }
  LogPreImage(ino);
  return &it->second.Mutable();
}

void SpecFs::StartPreImageLog() {
  log_.clear();
  logging_ = true;
  log_next_inum_ = next_inum_;
}

std::vector<PreImage> SpecFs::TakePreImageLog() {
  logging_ = false;
  return std::move(log_);
}

void SpecFs::RestorePreImages() {
  next_inum_ = log_next_inum_;
  RestorePreImages(TakePreImageLog());
}

void SpecFs::RestorePreImages(const std::vector<PreImage>& images) {
  for (auto it = images.rbegin(); it != images.rend(); ++it) {
    if (it->before) {
      Put(it->ino, it->before);
    } else {
      Erase(it->ino);
    }
  }
}

void SpecFs::LogPreImage(Inum ino) {
  if (!logging_) {
    return;
  }
  // An operation touches at most three inodes, so a linear scan is cheapest.
  for (const PreImage& p : log_) {
    if (p.ino == ino) {
      return;
    }
  }
  auto it = imap_.find(ino);
  if (it == imap_.end()) {
    log_.push_back(PreImage{ino, InodeRef()});
  } else if (it->second.unique()) {
    // The write will go in place, so the log takes a copy. Writing a clone
    // instead would cost the same copy but retire the old inode's memory
    // on whichever thread next replaces it.
    log_.push_back(PreImage{ino, InodeRef(*it->second)});
  } else {
    log_.push_back(PreImage{ino, it->second});  // the write clones
  }
}

void SpecFs::Create(Inum parent, const std::string& name, FileType type) {
  Inum ino = std::exchange(forced_inum_, kInvalidInum);
  if (ino == kInvalidInum) {
    ino = AllocInum();
  } else {
    ATOMFS_CHECK(imap_.count(ino) == 0);
  }
  LogPreImage(ino);
  SpecInode node;
  node.type = type;
  Put(ino, std::move(node));
  FindMutable(parent)->links.emplace(name, ino);
}

void SpecFs::Free(Inum ino) {
  LogPreImage(ino);
  Erase(ino);
}

Result<Inum> SpecFs::Resolve(const Path& path) const {
  Inum cur = kRootInum;
  for (const auto& name : path.parts) {
    const SpecInode* node = Find(cur);
    ATOMFS_CHECK(node != nullptr);
    if (node->type != FileType::kDir) {
      return Errc::kNotDir;
    }
    auto it = node->links.find(name);
    if (it == node->links.end()) {
      return Errc::kNoEnt;
    }
    cur = it->second;
  }
  return cur;
}

Result<Inum> SpecFs::ResolveParent(const Path& path) const {
  ATOMFS_CHECK(!path.IsRoot());
  auto parent = Resolve(path.Dir());
  if (!parent.ok()) {
    return parent;
  }
  if (Find(*parent)->type != FileType::kDir) {
    return Errc::kNotDir;
  }
  return parent;
}

Status SpecFs::Mkdir(const Path& path) {
  if (path.IsRoot()) {
    return Status(Errc::kExist);
  }
  auto parent = ResolveParent(path);
  if (!parent.ok()) {
    return parent.status();
  }
  if (Find(*parent)->links.count(path.Base()) != 0) {
    return Status(Errc::kExist);
  }
  Create(*parent, path.Base(), FileType::kDir);
  return Status::Ok();
}

Status SpecFs::Mknod(const Path& path) {
  if (path.IsRoot()) {
    return Status(Errc::kExist);
  }
  auto parent = ResolveParent(path);
  if (!parent.ok()) {
    return parent.status();
  }
  if (Find(*parent)->links.count(path.Base()) != 0) {
    return Status(Errc::kExist);
  }
  Create(*parent, path.Base(), FileType::kFile);
  return Status::Ok();
}

Status SpecFs::Rmdir(const Path& path) {
  if (path.IsRoot()) {
    return Status(Errc::kBusy);
  }
  auto parent = ResolveParent(path);
  if (!parent.ok()) {
    return parent.status();
  }
  const SpecInode* pnode = Find(*parent);
  auto it = pnode->links.find(path.Base());
  if (it == pnode->links.end()) {
    return Status(Errc::kNoEnt);
  }
  const SpecInode* target = Find(it->second);
  if (target->type != FileType::kDir) {
    return Status(Errc::kNotDir);
  }
  if (!target->links.empty()) {
    return Status(Errc::kNotEmpty);
  }
  Free(it->second);
  // By name: FindMutable may clone the node `it` points into.
  FindMutable(*parent)->links.erase(path.Base());
  return Status::Ok();
}

Status SpecFs::Unlink(const Path& path) {
  if (path.IsRoot()) {
    return Status(Errc::kIsDir);
  }
  auto parent = ResolveParent(path);
  if (!parent.ok()) {
    return parent.status();
  }
  const SpecInode* pnode = Find(*parent);
  auto it = pnode->links.find(path.Base());
  if (it == pnode->links.end()) {
    return Status(Errc::kNoEnt);
  }
  if (Find(it->second)->type == FileType::kDir) {
    return Status(Errc::kIsDir);
  }
  Free(it->second);
  FindMutable(*parent)->links.erase(path.Base());
  return Status::Ok();
}

Status SpecFs::Rename(const Path& src, const Path& dst) {
  if (src.IsRoot() || dst.IsRoot()) {
    return Status(Errc::kBusy);
  }
  if (src.IsPrefixOf(dst) && src != dst) {
    // Moving a directory below itself (e.g. /a -> /a/b/c).
    return Status(Errc::kInval);
  }
  auto sparent = ResolveParent(src);
  if (!sparent.ok()) {
    return sparent.status();
  }
  auto dparent = ResolveParent(dst);
  if (!dparent.ok()) {
    return dparent.status();
  }
  const SpecInode* sdir = Find(*sparent);
  auto sit = sdir->links.find(src.Base());
  if (sit == sdir->links.end()) {
    return Status(Errc::kNoEnt);
  }
  const Inum snode = sit->second;
  if (src == dst) {
    return Status::Ok();
  }
  const SpecInode* ddir = Find(*dparent);
  auto dit = ddir->links.find(dst.Base());
  if (dit != ddir->links.end()) {
    const Inum dnode = dit->second;
    const SpecInode* starget = Find(snode);
    const SpecInode* dtarget = Find(dnode);
    if (starget->type == FileType::kDir && dtarget->type != FileType::kDir) {
      return Status(Errc::kNotDir);
    }
    if (starget->type != FileType::kDir && dtarget->type == FileType::kDir) {
      return Status(Errc::kIsDir);
    }
    if (dtarget->type == FileType::kDir && !dtarget->links.empty()) {
      return Status(Errc::kNotEmpty);
    }
    Free(dnode);
  }
  FindMutable(*sparent)->links.erase(src.Base());
  FindMutable(*dparent)->links[dst.Base()] = snode;
  return Status::Ok();
}

Status SpecFs::Exchange(const Path& a, const Path& b) {
  if (a.IsRoot() || b.IsRoot()) {
    return Status(Errc::kBusy);
  }
  if ((a.IsPrefixOf(b) || b.IsPrefixOf(a)) && a != b) {
    // Exchanging an entry with one of its own descendants would detach a
    // subtree from the root (and create a cycle); refuse up front.
    return Status(Errc::kInval);
  }
  auto aparent = ResolveParent(a);
  if (!aparent.ok()) {
    return aparent.status();
  }
  auto bparent = ResolveParent(b);
  if (!bparent.ok()) {
    return bparent.status();
  }
  if (Find(*aparent)->links.count(a.Base()) == 0) {
    return Status(Errc::kNoEnt);
  }
  if (a == b) {
    return Status::Ok();
  }
  if (Find(*bparent)->links.count(b.Base()) == 0) {
    return Status(Errc::kNoEnt);
  }
  std::swap(FindMutable(*aparent)->links.at(a.Base()), FindMutable(*bparent)->links.at(b.Base()));
  return Status::Ok();
}

Result<Attr> SpecFs::Stat(const Path& path) {
  auto ino = Resolve(path);
  if (!ino.ok()) {
    return ino.status();
  }
  const SpecInode* node = Find(*ino);
  Attr attr;
  attr.ino = *ino;
  attr.type = node->type;
  attr.size = node->type == FileType::kDir ? node->links.size() : node->data.size();
  return attr;
}

Result<std::vector<DirEntry>> SpecFs::ReadDir(const Path& path) {
  auto ino = Resolve(path);
  if (!ino.ok()) {
    return ino.status();
  }
  const SpecInode* node = Find(*ino);
  if (node->type != FileType::kDir) {
    return Errc::kNotDir;
  }
  std::vector<DirEntry> entries;
  entries.reserve(node->links.size());
  for (const auto& [name, child] : node->links) {
    entries.push_back(DirEntry{name, child, Find(child)->type});
  }
  return entries;  // std::map iteration is already name-sorted
}

Result<size_t> SpecFs::Read(const Path& path, uint64_t offset, std::span<std::byte> out) {
  auto ino = Resolve(path);
  if (!ino.ok()) {
    return ino.status();
  }
  const SpecInode* node = Find(*ino);
  if (node->type != FileType::kFile) {
    return Errc::kIsDir;
  }
  if (offset >= node->data.size()) {
    return size_t{0};
  }
  const size_t n = std::min(out.size(), node->data.size() - static_cast<size_t>(offset));
  std::copy_n(node->data.begin() + static_cast<ptrdiff_t>(offset), n, out.begin());
  return n;
}

Result<size_t> SpecFs::Write(const Path& path, uint64_t offset, std::span<const std::byte> data) {
  auto ino = Resolve(path);
  if (!ino.ok()) {
    return ino.status();
  }
  if (Find(*ino)->type != FileType::kFile) {
    return Errc::kIsDir;
  }
  const uint64_t end = offset + data.size();
  if (end > kMaxFileSize) {
    return Errc::kNoSpace;
  }
  SpecInode* node = FindMutable(*ino);
  if (end > node->data.size()) {
    node->data.resize(end);  // zero-fills any hole
  }
  std::copy(data.begin(), data.end(), node->data.begin() + static_cast<ptrdiff_t>(offset));
  return data.size();
}

Status SpecFs::Truncate(const Path& path, uint64_t size) {
  auto ino = Resolve(path);
  if (!ino.ok()) {
    return ino.status();
  }
  if (Find(*ino)->type != FileType::kFile) {
    return Status(Errc::kIsDir);
  }
  if (size > kMaxFileSize) {
    return Status(Errc::kNoSpace);
  }
  FindMutable(*ino)->data.resize(size);  // grow zero-fills, shrink truncates
  return Status::Ok();
}

bool SpecFs::WellFormed() const {
  const SpecInode* root = Find(kRootInum);
  if (root == nullptr || root->type != FileType::kDir) {
    return false;
  }
  std::set<Inum> seen;
  std::deque<Inum> queue;
  seen.insert(kRootInum);
  queue.push_back(kRootInum);
  while (!queue.empty()) {
    const Inum cur = queue.front();
    queue.pop_front();
    const SpecInode* node = Find(cur);
    if (node == nullptr) {
      return false;  // dangling link
    }
    if (node->type == FileType::kFile) {
      if (!node->links.empty()) {
        return false;  // files carry no links
      }
      continue;
    }
    for (const auto& [name, child] : node->links) {
      if (!ValidateName(name).ok()) {
        return false;
      }
      if (!seen.insert(child).second) {
        return false;  // inode reachable twice: not a tree
      }
      queue.push_back(child);
    }
  }
  return seen.size() == imap_.size();  // no unreachable inodes
}

uint64_t SpecFs::Hash() const {
  // Hash the *shape* of the tree, not raw inode numbers: concrete file
  // systems may allocate inums in a different order under concurrency, and
  // the checkers compare trees up to inum renaming. Hash by structural
  // traversal from the root.
  uint64_t h = kFnvOffset;
  // Iterative DFS with explicit ordering by name for determinism.
  struct Frame {
    Inum ino;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{kRootInum});
  while (!stack.empty()) {
    const Inum cur = stack.back().ino;
    stack.pop_back();
    const SpecInode* node = Find(cur);
    ATOMFS_CHECK(node != nullptr);
    h = FnvMix(h, static_cast<uint64_t>(node->type));
    if (node->type == FileType::kFile) {
      h = FnvMix(h, node->data.size());
      h = FnvMixBytes(h, node->data.data(), node->data.size());
      continue;
    }
    h = FnvMix(h, node->links.size());
    // Reverse order so children pop in name order.
    for (auto it = node->links.rbegin(); it != node->links.rend(); ++it) {
      h = FnvMixBytes(h, it->first.data(), it->first.size());
      stack.push_back(Frame{it->second});
    }
  }
  return h;
}

}  // namespace atomfs
