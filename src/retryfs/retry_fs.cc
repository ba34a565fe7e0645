#include "src/retryfs/retry_fs.h"

#include <algorithm>

#include "src/util/check.h"

namespace atomfs {

RetryFs::RetryFs() : RetryFs(Options{}) {}

RetryFs::RetryFs(Options options) : opts_(std::move(options)) {
  root_ = std::make_shared<Node>(kRootInum, FileType::kDir, opts_.executor->CreateLock());
}

RetryFs::NodePtr RetryFs::NewNode(FileType type) {
  opts_.executor->Work(opts_.costs.inode_alloc_ns);
  return std::make_shared<Node>(next_inum_.fetch_add(1, std::memory_order_relaxed), type,
                                opts_.executor->CreateLock());
}

Result<RetryFs::NodePtr> RetryFs::WalkOnce(const std::vector<std::string>& parts, size_t count,
                                           uint64_t seq0, bool* retry) {
  NodePtr cur = root_;
  for (size_t i = 0; i < count; ++i) {
    cur->lock->Lock();
    if (cur->deleted) {
      cur->lock->Unlock();
      *retry = true;
      return Errc::kNoEnt;
    }
    if (cur->type != FileType::kDir) {
      cur->lock->Unlock();
      return Errc::kNotDir;
    }
    opts_.executor->Work(opts_.costs.lookup_ns);
    auto it = cur->entries.find(parts[i]);
    NodePtr child = it == cur->entries.end() ? nullptr : it->second;
    cur->lock->Unlock();
    if (child == nullptr) {
      if (rename_seq_.load(std::memory_order_acquire) != seq0) {
        // The miss may be an artifact of a concurrent rename; revalidate.
        *retry = true;
      }
      return Errc::kNoEnt;
    }
    cur = std::move(child);
  }
  return cur;
}

Result<RetryFs::NodePtr> RetryFs::Walk(const std::vector<std::string>& parts, size_t count,
                                       uint64_t* seq_out) {
  while (true) {
    const uint64_t seq0 = rename_seq_.load(std::memory_order_acquire);
    bool retry = false;
    auto res = WalkOnce(parts, count, seq0, &retry);
    if (!retry) {
      *seq_out = seq0;
      return res;
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
  }
}

// Locks the walked-to node and revalidates (not deleted; no rename since the
// walk began). Retries the whole lookup on interference, then runs fn with
// the node locked. fn returns its op result; kind of result varies, so this
// is a template over the callable.
template <typename Fn>
auto RetryFs::WithTarget(const Path& path, Fn&& fn) {
  using R = decltype(fn(std::declval<Node*>()));
  while (true) {
    uint64_t seq0 = 0;
    auto walked = Walk(path.parts, path.parts.size(), &seq0);
    if (!walked.ok()) {
      return R(walked.status());
    }
    NodePtr node = *walked;
    node->lock->Lock();
    const bool stale =
        node->deleted || rename_seq_.load(std::memory_order_acquire) != seq0;
    if (stale) {
      node->lock->Unlock();
      retries_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    auto result = fn(node.get());
    node->lock->Unlock();
    return result;
  }
}

Status RetryFs::InsertImpl(const Path& path, FileType type) {
  opts_.executor->Work(opts_.costs.op_base_ns);
  if (path.IsRoot()) {
    return Status(Errc::kExist);
  }
  while (true) {
    uint64_t seq0 = 0;
    auto walked = Walk(path.parts, path.parts.size() - 1, &seq0);
    if (!walked.ok()) {
      return walked.status();
    }
    NodePtr parent = *walked;
    parent->lock->Lock();
    if (parent->deleted || rename_seq_.load(std::memory_order_acquire) != seq0) {
      parent->lock->Unlock();
      retries_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (parent->type != FileType::kDir) {
      parent->lock->Unlock();
      return Status(Errc::kNotDir);
    }
    opts_.executor->Work(opts_.costs.lookup_ns);
    if (parent->entries.count(path.Base()) != 0) {
      parent->lock->Unlock();
      return Status(Errc::kExist);
    }
    opts_.executor->Work(opts_.costs.dir_insert_ns);
    parent->entries.emplace(path.Base(), NewNode(type));
    parent->lock->Unlock();
    return Status::Ok();
  }
}

Status RetryFs::DeleteImpl(const Path& path, FileType type) {
  opts_.executor->Work(opts_.costs.op_base_ns);
  if (path.IsRoot()) {
    return Status(type == FileType::kDir ? Errc::kBusy : Errc::kIsDir);
  }
  while (true) {
    uint64_t seq0 = 0;
    auto walked = Walk(path.parts, path.parts.size() - 1, &seq0);
    if (!walked.ok()) {
      return walked.status();
    }
    NodePtr parent = *walked;
    parent->lock->Lock();
    if (parent->deleted || rename_seq_.load(std::memory_order_acquire) != seq0) {
      parent->lock->Unlock();
      retries_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (parent->type != FileType::kDir) {
      parent->lock->Unlock();
      return Status(Errc::kNotDir);
    }
    opts_.executor->Work(opts_.costs.lookup_ns);
    auto it = parent->entries.find(path.Base());
    if (it == parent->entries.end()) {
      parent->lock->Unlock();
      return Status(Errc::kNoEnt);
    }
    NodePtr child = it->second;
    // Every multi-lock acquisition in RetryFs follows address order (Rename
    // locks its sorted parent/victim set that way). Acquiring the child here
    // while holding a higher-addressed parent was a real ABBA deadlock
    // against a concurrent Rename holding the child's lock and waiting on
    // the parent (found by TSan's lock-order detector). When the child
    // cannot extend the order in place, drop the parent and reacquire both
    // sorted, then revalidate — the same optimistic pattern Rename uses.
    if (std::less<Node*>{}(parent.get(), child.get())) {
      child->lock->Lock();
    } else {
      parent->lock->Unlock();
      child->lock->Lock();
      parent->lock->Lock();
      auto it2 = parent->entries.find(path.Base());
      if (parent->deleted || child->deleted ||
          rename_seq_.load(std::memory_order_acquire) != seq0 ||
          it2 == parent->entries.end() || it2->second != child) {
        child->lock->Unlock();
        parent->lock->Unlock();
        retries_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      it = it2;
    }
    Errc err = Errc::kOk;
    if (type == FileType::kDir) {
      if (child->type != FileType::kDir) {
        err = Errc::kNotDir;
      } else if (!child->entries.empty()) {
        err = Errc::kNotEmpty;
      }
    } else if (child->type == FileType::kDir) {
      err = Errc::kIsDir;
    }
    if (err != Errc::kOk) {
      child->lock->Unlock();
      parent->lock->Unlock();
      return Status(err);
    }
    opts_.executor->Work(opts_.costs.dir_remove_ns);
    child->deleted = true;
    parent->entries.erase(it);
    child->lock->Unlock();
    parent->lock->Unlock();
    return Status::Ok();
  }
}

Status RetryFs::Mkdir(const Path& path) { return InsertImpl(path, FileType::kDir); }
Status RetryFs::Mknod(const Path& path) { return InsertImpl(path, FileType::kFile); }
Status RetryFs::Rmdir(const Path& path) { return DeleteImpl(path, FileType::kDir); }
Status RetryFs::Unlink(const Path& path) { return DeleteImpl(path, FileType::kFile); }

Status RetryFs::Rename(const Path& src, const Path& dst) {
  opts_.executor->Work(opts_.costs.op_base_ns);
  if (src.IsRoot() || dst.IsRoot()) {
    return Status(Errc::kBusy);
  }
  if (src.IsPrefixOf(dst) && src != dst) {
    return Status(Errc::kInval);
  }
  const bool dst_above_src = dst.IsPrefixOf(src) && dst != src;
  const Path sparent = src.Dir();
  const Path dparent = dst.Dir();

  while (true) {
    const uint64_t seq0 = rename_seq_.load(std::memory_order_acquire);
    uint64_t walk_seq = 0;
    auto swalk = Walk(sparent.parts, sparent.parts.size(), &walk_seq);
    if (!swalk.ok()) {
      return swalk.status();
    }
    NodePtr p1 = *swalk;
    // Source-parent type precedes destination resolution (spec error order);
    // `type` is immutable, so no lock is needed.
    if (p1->type != FileType::kDir) {
      return Status(Errc::kNotDir);
    }
    auto dwalk = Walk(dparent.parts, dparent.parts.size(), &walk_seq);
    if (!dwalk.ok()) {
      return dwalk.status();
    }
    NodePtr p2 = *dwalk;

    // Lock set management: parents first in address order; if a destination
    // victim must also be locked and is not orderable after the held locks,
    // release everything and reacquire the full sorted set (optimistic
    // multi-lock with revalidation).
    std::vector<Node*> locked;
    auto lock_sorted = [&](std::vector<Node*> nodes) {
      std::sort(nodes.begin(), nodes.end(), std::less<Node*>{});
      nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
      for (Node* n : nodes) {
        n->lock->Lock();
      }
      locked = std::move(nodes);
    };
    auto unlock_all = [&] {
      for (auto it = locked.rbegin(); it != locked.rend(); ++it) {
        (*it)->lock->Unlock();
      }
      locked.clear();
    };
    auto invalid = [&] {
      return p1->deleted || p2->deleted ||
             rename_seq_.load(std::memory_order_acquire) != seq0;
    };

    lock_sorted({p1.get(), p2.get()});
    if (invalid()) {
      unlock_all();
      retries_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (p1->type != FileType::kDir || p2->type != FileType::kDir) {
      unlock_all();
      return Status(Errc::kNotDir);
    }
    opts_.executor->Work(opts_.costs.lookup_ns);
    auto sit = p1->entries.find(src.Base());
    if (sit == p1->entries.end()) {
      unlock_all();
      return Status(Errc::kNoEnt);
    }
    NodePtr snode = sit->second;
    if (src == dst) {
      unlock_all();
      return Status::Ok();
    }
    if (dst_above_src) {
      const Errc err = snode->type == FileType::kFile ? Errc::kIsDir : Errc::kNotEmpty;
      unlock_all();
      return Status(err);
    }
    opts_.executor->Work(opts_.costs.lookup_ns);
    auto dit = p2->entries.find(dst.Base());
    NodePtr dnode = dit == p2->entries.end() ? nullptr : dit->second;
    if (dnode != nullptr) {
      if (snode->type == FileType::kDir && dnode->type != FileType::kDir) {
        unlock_all();
        return Status(Errc::kNotDir);
      }
      if (snode->type != FileType::kDir && dnode->type == FileType::kDir) {
        unlock_all();
        return Status(Errc::kIsDir);
      }
      if (std::less<Node*>{}(locked.back(), dnode.get())) {
        dnode->lock->Lock();
        locked.push_back(dnode.get());
      } else {
        // Cannot extend the address-ordered lock set in place: restart the
        // acquisition with the victim included and revalidate the lookups.
        unlock_all();
        lock_sorted({p1.get(), p2.get(), dnode.get()});
        auto sit2 = p1->entries.find(src.Base());
        auto dit2 = p2->entries.find(dst.Base());
        if (invalid() || sit2 == p1->entries.end() || sit2->second != snode ||
            dit2 == p2->entries.end() || dit2->second != dnode) {
          unlock_all();
          retries_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
      }
      if (dnode->type == FileType::kDir && !dnode->entries.empty()) {
        unlock_all();
        return Status(Errc::kNotEmpty);
      }
    }
    // Publish the rename: bump the sequence first (while holding all locks)
    // so that any concurrent walk that misses our locks revalidates.
    rename_seq_.fetch_add(1, std::memory_order_acq_rel);
    if (dnode != nullptr) {
      opts_.executor->Work(opts_.costs.dir_remove_ns);
      dnode->deleted = true;
      p2->entries.erase(dst.Base());
    }
    opts_.executor->Work(opts_.costs.dir_remove_ns + opts_.costs.dir_insert_ns);
    p1->entries.erase(src.Base());
    p2->entries[dst.Base()] = snode;
    unlock_all();
    return Status::Ok();
  }
}

Status RetryFs::Exchange(const Path& a, const Path& b) {
  opts_.executor->Work(opts_.costs.op_base_ns);
  if (a.IsRoot() || b.IsRoot()) {
    return Status(Errc::kBusy);
  }
  if ((a.IsPrefixOf(b) || b.IsPrefixOf(a)) && a != b) {
    return Status(Errc::kInval);
  }
  const Path aparent = a.Dir();
  const Path bparent = b.Dir();

  while (true) {
    const uint64_t seq0 = rename_seq_.load(std::memory_order_acquire);
    uint64_t walk_seq = 0;
    auto awalk = Walk(aparent.parts, aparent.parts.size(), &walk_seq);
    if (!awalk.ok()) {
      return awalk.status();
    }
    NodePtr p1 = *awalk;
    if (p1->type != FileType::kDir) {
      return Status(Errc::kNotDir);
    }
    auto bwalk = Walk(bparent.parts, bparent.parts.size(), &walk_seq);
    if (!bwalk.ok()) {
      return bwalk.status();
    }
    NodePtr p2 = *bwalk;

    std::vector<Node*> locked{p1.get(), p2.get()};
    std::sort(locked.begin(), locked.end(), std::less<Node*>{});
    locked.erase(std::unique(locked.begin(), locked.end()), locked.end());
    for (Node* n : locked) {
      n->lock->Lock();
    }
    auto unlock_all = [&] {
      for (auto it = locked.rbegin(); it != locked.rend(); ++it) {
        (*it)->lock->Unlock();
      }
    };
    if (p1->deleted || p2->deleted ||
        rename_seq_.load(std::memory_order_acquire) != seq0) {
      unlock_all();
      retries_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (p2->type != FileType::kDir) {
      unlock_all();
      return Status(Errc::kNotDir);
    }
    opts_.executor->Work(opts_.costs.lookup_ns);
    auto ait = p1->entries.find(a.Base());
    if (ait == p1->entries.end()) {
      unlock_all();
      return Status(Errc::kNoEnt);
    }
    if (a == b) {
      unlock_all();
      return Status::Ok();
    }
    opts_.executor->Work(opts_.costs.lookup_ns);
    auto bit = p2->entries.find(b.Base());
    if (bit == p2->entries.end()) {
      unlock_all();
      return Status(Errc::kNoEnt);
    }
    // Publish: exchange breaks two traversed paths, so bump the rename
    // sequence before swapping (while holding both parent locks).
    rename_seq_.fetch_add(1, std::memory_order_acq_rel);
    opts_.executor->Work(2 * (opts_.costs.dir_remove_ns + opts_.costs.dir_insert_ns));
    std::swap(ait->second, bit->second);
    unlock_all();
    return Status::Ok();
  }
}

Result<Attr> RetryFs::Stat(const Path& path) {
  opts_.executor->Work(opts_.costs.op_base_ns);
  return WithTarget(path, [this](Node* node) -> Result<Attr> {
    opts_.executor->Work(opts_.costs.stat_ns);
    Attr attr;
    attr.ino = node->ino;
    attr.type = node->type;
    attr.size = node->type == FileType::kDir ? node->entries.size() : node->data.size();
    return attr;
  });
}

Result<std::vector<DirEntry>> RetryFs::ReadDir(const Path& path) {
  opts_.executor->Work(opts_.costs.op_base_ns);
  return WithTarget(path, [this](Node* node) -> Result<std::vector<DirEntry>> {
    if (node->type != FileType::kDir) {
      return Errc::kNotDir;
    }
    std::vector<DirEntry> entries;
    entries.reserve(node->entries.size());
    for (const auto& [name, child] : node->entries) {
      entries.push_back(DirEntry{name, child->ino, child->type});
    }
    opts_.executor->Work(opts_.costs.readdir_entry_ns * (entries.size() + 1));
    return entries;
  });
}

Result<size_t> RetryFs::Read(const Path& path, uint64_t offset, std::span<std::byte> out) {
  opts_.executor->Work(opts_.costs.op_base_ns);
  return WithTarget(path, [&](Node* node) -> Result<size_t> {
    if (node->type != FileType::kFile) {
      return Errc::kIsDir;
    }
    const size_t n = node->data.Read(offset, out);
    opts_.executor->Work(opts_.costs.block_copy_ns * (FileData::BlocksSpanned(offset, n) + 1));
    return n;
  });
}

Result<size_t> RetryFs::Write(const Path& path, uint64_t offset,
                              std::span<const std::byte> data) {
  opts_.executor->Work(opts_.costs.op_base_ns);
  return WithTarget(path, [&](Node* node) -> Result<size_t> {
    if (node->type != FileType::kFile) {
      return Errc::kIsDir;
    }
    opts_.executor->Work(opts_.costs.block_copy_ns *
                         (FileData::BlocksSpanned(offset, data.size()) + 1));
    return node->data.Write(offset, data);
  });
}

Status RetryFs::Truncate(const Path& path, uint64_t size) {
  opts_.executor->Work(opts_.costs.op_base_ns);
  return WithTarget(path, [&](Node* node) -> Status {
    if (node->type != FileType::kFile) {
      return Status(Errc::kIsDir);
    }
    opts_.executor->Work(opts_.costs.block_copy_ns);
    return node->data.Truncate(size);
  });
}

// --- handle-based interface ---------------------------------------------------

Result<RetryFs::HandleRef> RetryFs::OpenHandle(const Path& path) {
  opts_.executor->Work(opts_.costs.op_base_ns);
  while (true) {
    uint64_t seq0 = 0;
    auto walked = Walk(path.parts, path.parts.size(), &seq0);
    if (!walked.ok()) {
      return walked.status();
    }
    NodePtr node = *walked;
    node->lock->Lock();
    const bool stale =
        node->deleted || rename_seq_.load(std::memory_order_acquire) != seq0;
    node->lock->Unlock();
    if (stale) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // The shared_ptr itself is the reference count that keeps the inode
    // alive past a later unlink.
    return HandleRef(std::move(node));
  }
}

Result<Attr> RetryFs::HandleStat(const HandleRef& handle) {
  auto node = std::static_pointer_cast<Node>(handle);
  if (node == nullptr) {
    return Errc::kBadFd;
  }
  node->lock->Lock();
  opts_.executor->Work(opts_.costs.stat_ns);
  Attr attr;
  attr.ino = node->ino;
  attr.type = node->type;
  attr.size = node->type == FileType::kDir ? node->entries.size() : node->data.size();
  node->lock->Unlock();
  return attr;
}

Result<std::vector<DirEntry>> RetryFs::HandleReadDir(const HandleRef& handle) {
  auto node = std::static_pointer_cast<Node>(handle);
  if (node == nullptr) {
    return Errc::kBadFd;
  }
  node->lock->Lock();
  if (node->type != FileType::kDir) {
    node->lock->Unlock();
    return Errc::kNotDir;
  }
  std::vector<DirEntry> entries;
  entries.reserve(node->entries.size());
  for (const auto& [name, child] : node->entries) {
    entries.push_back(DirEntry{name, child->ino, child->type});
  }
  opts_.executor->Work(opts_.costs.readdir_entry_ns * (entries.size() + 1));
  node->lock->Unlock();
  return entries;
}

Result<size_t> RetryFs::HandleRead(const HandleRef& handle, uint64_t offset,
                                   std::span<std::byte> out) {
  auto node = std::static_pointer_cast<Node>(handle);
  if (node == nullptr) {
    return Errc::kBadFd;
  }
  node->lock->Lock();
  if (node->type != FileType::kFile) {
    node->lock->Unlock();
    return Errc::kIsDir;
  }
  const size_t n = node->data.Read(offset, out);
  opts_.executor->Work(opts_.costs.block_copy_ns * (FileData::BlocksSpanned(offset, n) + 1));
  node->lock->Unlock();
  return n;
}

Result<size_t> RetryFs::HandleWrite(const HandleRef& handle, uint64_t offset,
                                    std::span<const std::byte> data) {
  auto node = std::static_pointer_cast<Node>(handle);
  if (node == nullptr) {
    return Errc::kBadFd;
  }
  node->lock->Lock();
  if (node->type != FileType::kFile) {
    node->lock->Unlock();
    return Errc::kIsDir;
  }
  opts_.executor->Work(opts_.costs.block_copy_ns *
                       (FileData::BlocksSpanned(offset, data.size()) + 1));
  auto written = node->data.Write(offset, data);
  node->lock->Unlock();
  return written;
}

Status RetryFs::HandleTruncate(const HandleRef& handle, uint64_t size) {
  auto node = std::static_pointer_cast<Node>(handle);
  if (node == nullptr) {
    return Status(Errc::kBadFd);
  }
  node->lock->Lock();
  if (node->type != FileType::kFile) {
    node->lock->Unlock();
    return Status(Errc::kIsDir);
  }
  opts_.executor->Work(opts_.costs.block_copy_ns);
  Status st = node->data.Truncate(size);
  node->lock->Unlock();
  return st;
}

SpecFs RetryFs::SnapshotSpec() const {
  SpecFs out;  // the walk replaces its root
  // Quiescent-only: walk without locks.
  struct Frame {
    const Node* node;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{root_.get()});
  while (!stack.empty()) {
    const Node* node = stack.back().node;
    stack.pop_back();
    SpecInode spec;
    spec.type = node->type;
    if (node->type == FileType::kFile) {
      spec.data = node->data.ToBytes();
    } else {
      for (const auto& [name, child] : node->entries) {
        spec.links.emplace(name, child->ino);
        stack.push_back(Frame{child.get()});
      }
    }
    out.Put(node->ino, std::move(spec));
  }
  // Placing inodes does not move the allocator; see AtomFs::SnapshotSpec.
  out.SetNextInum(out.imap().rbegin()->first + 1);
  return out;
}

}  // namespace atomfs
