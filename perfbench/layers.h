// Decorators the benchmark hands to the system so it can time each layer
// from outside: a FileSystem that records a span around every call into the
// wrapped one, the same for the server's transaction hook and for an
// FsObserver, and a gate that forwards observer events only for operations
// that began while spans were enabled (so a traced run can switch the
// lock-coupling profiler on and off between slices).

#ifndef ATOMFS_PERFBENCH_LAYERS_H_
#define ATOMFS_PERFBENCH_LAYERS_H_

#include <array>

#include "perfbench/measure.h"
#include "src/core/observer.h"
#include "src/server/txn_host.h"
#include "src/vfs/filesystem.h"

namespace perfbench {

inline constexpr size_t kOpKinds = 11;

// "<prefix>.<op kind>" span names with static storage duration.
class KindNames {
 public:
  explicit KindNames(const char* prefix);
  const char* operator[](atomfs::OpKind kind) const {
    return names_[static_cast<size_t>(kind)];
  }

 private:
  std::array<const char*, kOpKinds> names_{};
};

bool IsReadKind(atomfs::OpKind kind);

// Times every call into `inner` as a span "<prefix>.<kind>".
class TimingFs : public atomfs::FileSystem {
 public:
  TimingFs(atomfs::FileSystem* inner, const char* prefix) : inner_(inner), names_(prefix) {}

  uint32_t Capabilities() const override { return inner_->Capabilities(); }
  atomfs::FsOpResult Dispatch(const atomfs::FsOp& op) override;

  atomfs::Status Mkdir(const atomfs::Path& path) override;
  atomfs::Status Mknod(const atomfs::Path& path) override;
  atomfs::Status Rmdir(const atomfs::Path& path) override;
  atomfs::Status Unlink(const atomfs::Path& path) override;
  atomfs::Status Rename(const atomfs::Path& src, const atomfs::Path& dst) override;
  atomfs::Status Exchange(const atomfs::Path& a, const atomfs::Path& b) override;
  atomfs::Result<atomfs::Attr> Stat(const atomfs::Path& path) override;
  atomfs::Result<std::vector<atomfs::DirEntry>> ReadDir(const atomfs::Path& path) override;
  atomfs::Result<size_t> Read(const atomfs::Path& path, uint64_t offset,
                              std::span<std::byte> out) override;
  atomfs::Result<size_t> Write(const atomfs::Path& path, uint64_t offset,
                               std::span<const std::byte> data) override;
  atomfs::Status Truncate(const atomfs::Path& path, uint64_t size) override;
  using FileSystem::Exchange;
  using FileSystem::Mkdir;
  using FileSystem::Mknod;
  using FileSystem::Read;
  using FileSystem::ReadDir;
  using FileSystem::Rename;
  using FileSystem::Rmdir;
  using FileSystem::Stat;
  using FileSystem::Truncate;
  using FileSystem::Unlink;
  using FileSystem::Write;

 private:
  atomfs::FileSystem* inner_;
  KindNames names_;
};

// Times the server's transaction hook: txn.begin / txn.apply / txn.commit /
// txn.abort spans.
class TimingTxnHost : public atomfs::TxnHost {
 public:
  explicit TimingTxnHost(atomfs::TxnHost* inner) : inner_(inner) {}
  atomfs::Result<uint64_t> TxBegin() override;
  atomfs::Status TxCommit(uint64_t txid) override;
  atomfs::Status TxAbort(uint64_t txid) override;
  atomfs::OpResult TxApply(uint64_t txid, const atomfs::OpCall& call) override;
  atomfs::Status TxCheckpoint() override { return inner_->TxCheckpoint(); }

 private:
  atomfs::TxnHost* inner_;
};

// Times every callback into `inner` as a span named `name`.
class TimingObserver : public atomfs::FsObserver {
 public:
  TimingObserver(atomfs::FsObserver* inner, const char* name) : inner_(inner), name_(name) {}
  void OnOpBegin(atomfs::Tid tid, const atomfs::OpCall& call) override;
  void OnOpEnd(atomfs::Tid tid, const atomfs::OpResult& result) override;
  void OnLockAcquired(atomfs::Tid tid, atomfs::Inum ino, atomfs::LockPathRole role) override;
  void OnLockReleased(atomfs::Tid tid, atomfs::Inum ino) override;
  void OnLp(atomfs::Tid tid, atomfs::Inum created_ino) override;
  void OnOptWalkStart(atomfs::Tid tid) override;
  void OnOptWalkValidate(atomfs::Tid tid, atomfs::OptValidation outcome,
                         uint32_t depth) override;
  void OnOptWalkFallback(atomfs::Tid tid) override;

 private:
  atomfs::FsObserver* inner_;
  const char* name_;
};

// Forwards an operation's events to `inner` only if spans were enabled when
// the operation began. The decision is latched per thread at OnOpBegin, so
// `inner` always sees whole operations.
class GateObserver : public atomfs::FsObserver {
 public:
  explicit GateObserver(atomfs::FsObserver* inner) : inner_(inner) {}
  void OnOpBegin(atomfs::Tid tid, const atomfs::OpCall& call) override;
  void OnOpEnd(atomfs::Tid tid, const atomfs::OpResult& result) override;
  void OnLockAcquired(atomfs::Tid tid, atomfs::Inum ino, atomfs::LockPathRole role) override;
  void OnLockReleased(atomfs::Tid tid, atomfs::Inum ino) override;
  void OnLp(atomfs::Tid tid, atomfs::Inum created_ino) override;
  void OnOptWalkStart(atomfs::Tid tid) override;
  void OnOptWalkValidate(atomfs::Tid tid, atomfs::OptValidation outcome,
                         uint32_t depth) override;
  void OnOptWalkFallback(atomfs::Tid tid) override;

 private:
  static bool& Open();
  atomfs::FsObserver* inner_;
};

}  // namespace perfbench

#endif  // ATOMFS_PERFBENCH_LAYERS_H_
