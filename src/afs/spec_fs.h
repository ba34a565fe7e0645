// SpecFs: the executable abstract file system specification (the paper's AFS,
// Figure 6).
//
// The abstract state is a map from inode numbers to abstract inodes, where a
// directory maps names to inode numbers and a file is a byte sequence, plus
// the root inode number. Every abstract operation (the paper's "Aops") is an
// atomic transition on this state and doubles as the reference semantics for
// all concrete file systems in this repository: the CRL-H refinement checkers
// replay concurrent histories against SpecFs and compare results.
//
// SpecFs is deliberately sequential and unsynchronized; callers that share an
// instance across threads must serialize access themselves. Copies of one
// instance share their inodes (see InodeRef) and may live on different
// threads: each copy is still single-threaded, and no shared inode is ever
// written — a writer clones it first.

#ifndef ATOMFS_SRC_AFS_SPEC_FS_H_
#define ATOMFS_SRC_AFS_SPEC_FS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/util/status.h"
#include "src/vfs/filesystem.h"
#include "src/vfs/limits.h"
#include "src/vfs/path.h"

namespace atomfs {

// Abstract inode: Dir(Links) | File(bytes).
struct SpecInode {
  FileType type = FileType::kFile;
  std::map<std::string, Inum> links;  // meaningful when type == kDir
  std::vector<std::byte> data;        // meaningful when type == kFile

  friend bool operator==(const SpecInode& a, const SpecInode& b) {
    return a.type == b.type && a.links == b.links && a.data == b.data;
  }
};

// A reference-counted, shared SpecInode: copying an InodeRef copies a
// pointer. The inode is immutable while shared; Mutable() hands out a
// writable inode, cloning it first unless this handle is the only one left.
// Handles of one inode may be copied and dropped on different threads.
class InodeRef {
 public:
  InodeRef() = default;
  explicit InodeRef(SpecInode node) : rep_(new Rep(std::move(node))) {}
  InodeRef(const InodeRef& other) noexcept : rep_(other.rep_) {
    if (rep_ != nullptr) {
      rep_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  InodeRef(InodeRef&& other) noexcept : rep_(std::exchange(other.rep_, nullptr)) {}
  InodeRef& operator=(InodeRef other) noexcept {
    std::swap(rep_, other.rep_);
    return *this;
  }
  ~InodeRef();

  explicit operator bool() const { return rep_ != nullptr; }
  const SpecInode& operator*() const { return rep_->node; }
  const SpecInode* operator->() const { return &rep_->node; }
  const SpecInode* get() const { return rep_ == nullptr ? nullptr : &rep_->node; }

  // True when this is the only handle. The acquire load pairs with the
  // acq_rel decrement of every dropped handle, so reads made through handles
  // released on other threads happen before a write that follows.
  bool unique() const { return rep_->refs.load(std::memory_order_acquire) == 1; }

  // The inode, writable: in place when unique(), else a clone.
  SpecInode& Mutable();

  // Content equality; two handles of one inode are equal without a compare.
  friend bool operator==(const InodeRef& a, const InodeRef& b) {
    if (a.rep_ == b.rep_) {
      return true;
    }
    return a.rep_ != nullptr && b.rep_ != nullptr && a.rep_->node == b.rep_->node;
  }

 private:
  struct Rep {
    explicit Rep(SpecInode n) : node(std::move(n)) {}
    std::atomic<uint32_t> refs{1};
    SpecInode node;
  };
  Rep* rep_ = nullptr;
};

// An inode's content before the first logged mutation of it (see
// SpecFs::StartPreImageLog); a null `before` means the mutation created it.
// A shared inode's `before` is the state's own handle (the write clones
// the inode anyway); an unshared one's is a copy, and the write goes in
// place.
struct PreImage {
  Inum ino = kInvalidInum;
  InodeRef before;
};

class SpecFs : public FileSystem {
 public:
  // Starts with an empty root directory (inode kRootInum).
  SpecFs();

  // Copies share every inode and cost one map of pointers, so checkers can
  // branch states during search and TxnManager can hand out snapshots; the
  // first write to a shared inode on either side clones that inode alone.
  SpecFs(const SpecFs&) = default;
  SpecFs& operator=(const SpecFs&) = default;

  // FileSystem interface; pure sequential semantics.
  Status Mkdir(const Path& path) override;
  Status Mknod(const Path& path) override;
  Status Rmdir(const Path& path) override;
  Status Unlink(const Path& path) override;
  Status Rename(const Path& src, const Path& dst) override;
  Status Exchange(const Path& a, const Path& b) override;
  Result<Attr> Stat(const Path& path) override;
  Result<std::vector<DirEntry>> ReadDir(const Path& path) override;
  Result<size_t> Read(const Path& path, uint64_t offset, std::span<std::byte> out) override;
  Result<size_t> Write(const Path& path, uint64_t offset,
                       std::span<const std::byte> data) override;
  Status Truncate(const Path& path, uint64_t size) override;
  using FileSystem::Mkdir;
  using FileSystem::Mknod;
  using FileSystem::Read;
  using FileSystem::ReadDir;
  using FileSystem::Exchange;
  using FileSystem::Rename;
  using FileSystem::Rmdir;
  using FileSystem::Stat;
  using FileSystem::Truncate;
  using FileSystem::Unlink;
  using FileSystem::Write;

  // --- Structural access for checkers -------------------------------------

  // Follows the component list from the root. kNoEnt when a link is missing,
  // kNotDir when a non-final component is not a directory.
  Result<Inum> Resolve(const Path& path) const;

  const SpecInode* Find(Inum ino) const;
  // Logs `ino`'s pre-image and returns it writable (cloned first when a
  // copy shares it). The pointer lives until the next mutation of `ino`.
  SpecInode* FindMutable(Inum ino);
  const std::map<Inum, InodeRef>& imap() const { return imap_; }

  // Unlogged edits of the inode map, for states assembled node by node (a
  // file system's SnapshotSpec) and for checkers: Put inserts or replaces.
  void Put(Inum ino, SpecInode node) { Put(ino, InodeRef(std::move(node))); }
  void Put(Inum ino, InodeRef node) { imap_.insert_or_assign(ino, std::move(node)); }
  void Erase(Inum ino) { imap_.erase(ino); }

  // The paper's GoodAFS invariant: the inode map forms a tree rooted at the
  // root inode — every inode is reachable from the root exactly once, all
  // links point to existing inodes, and files carry no links.
  bool WellFormed() const;

  // Structure-sensitive hash used for memoization by the Wing&Gong checker.
  uint64_t Hash() const;

  friend bool operator==(const SpecFs& a, const SpecFs& b) { return a.imap_ == b.imap_; }

  // Allocates a fresh inode number (used by checkers replaying effects).
  Inum AllocInum() { return next_inum_++; }

  // Moves the internal allocator. The CRL-H monitor points its ghost copy at
  // a reserved scratch range so spec-allocated numbers can never collide
  // with the concrete inums it forces in (see crlh/effects.h). A state
  // assembled through Put() (a file system's SnapshotSpec) must
  // move it past the inums it placed before it creates anything.
  void SetNextInum(Inum next) { next_inum_ = next; }

  // The next creation takes inode number `ino` instead of the allocator's;
  // kInvalidInum cancels. A forced number that is already in use fails
  // ATOMFS_CHECK at the creation.
  void ForceNextInum(Inum ino) { forced_inum_ = ino; }

  // Pre-image log: from StartPreImageLog until TakePreImageLog, the first
  // mutation of each inode (through FindMutable, a creation or a free)
  // records its prior content, so an operation's diff costs O(touched
  // inodes). An entry can repeat the inode's current content when a
  // mutator touched it without changing it. Put() and Erase() are not
  // logged.
  void StartPreImageLog();
  std::vector<PreImage> TakePreImageLog();
  // Ends the log and undoes it: every logged inode gets its pre-image back
  // and the allocator its value at StartPreImageLog.
  void RestorePreImages();
  // Undoes `images` (a taken log, or several back to back), last entry
  // first. The allocator is left alone.
  void RestorePreImages(const std::vector<PreImage>& images);

 private:
  // Resolves path.Dir() to the parent directory. Shared by the mutating ops.
  Result<Inum> ResolveParent(const Path& path) const;
  // Logs `ino`'s pre-image if logging is on and it is not logged yet.
  void LogPreImage(Inum ino);
  // Creates an empty inode of `type` linked as `name` in directory `parent`.
  void Create(Inum parent, const std::string& name, FileType type);
  // Frees `ino`; the caller removes the link to it.
  void Free(Inum ino);

  std::map<Inum, InodeRef> imap_;
  Inum next_inum_ = kRootInum + 1;
  Inum forced_inum_ = kInvalidInum;
  bool logging_ = false;
  Inum log_next_inum_ = kInvalidInum;  // next_inum_ at StartPreImageLog
  std::vector<PreImage> log_;
};

}  // namespace atomfs

#endif  // ATOMFS_SRC_AFS_SPEC_FS_H_
