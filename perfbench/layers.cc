#include "perfbench/layers.h"

#include <deque>
#include <mutex>
#include <string>

namespace perfbench {

using atomfs::FsOpResult;
using atomfs::OpKind;
using atomfs::Path;
using atomfs::Result;
using atomfs::Status;

namespace {

const char* Intern(std::string s) {
  static std::mutex mu;
  static auto* pool = new std::deque<std::string>();
  std::lock_guard<std::mutex> lk(mu);
  for (const auto& existing : *pool) {
    if (existing == s) {
      return existing.c_str();
    }
  }
  pool->push_back(std::move(s));
  return pool->back().c_str();
}

}  // namespace

KindNames::KindNames(const char* prefix) {
  for (size_t k = 0; k < kOpKinds; ++k) {
    names_[k] = Intern(std::string(prefix) + "." +
                       std::string(atomfs::OpKindName(static_cast<OpKind>(k))));
  }
}

bool IsReadKind(OpKind kind) {
  return kind == OpKind::kStat || kind == OpKind::kReadDir || kind == OpKind::kRead;
}

// --- TimingFs ------------------------------------------------------------------

FsOpResult TimingFs::Dispatch(const atomfs::FsOp& op) {
  ScopedSpan s(names_[op.kind]);
  return inner_->Dispatch(op);
}

Status TimingFs::Mkdir(const Path& path) {
  ScopedSpan s(names_[OpKind::kMkdir]);
  return inner_->Mkdir(path);
}

Status TimingFs::Mknod(const Path& path) {
  ScopedSpan s(names_[OpKind::kMknod]);
  return inner_->Mknod(path);
}

Status TimingFs::Rmdir(const Path& path) {
  ScopedSpan s(names_[OpKind::kRmdir]);
  return inner_->Rmdir(path);
}

Status TimingFs::Unlink(const Path& path) {
  ScopedSpan s(names_[OpKind::kUnlink]);
  return inner_->Unlink(path);
}

Status TimingFs::Rename(const Path& src, const Path& dst) {
  ScopedSpan s(names_[OpKind::kRename]);
  return inner_->Rename(src, dst);
}

Status TimingFs::Exchange(const Path& a, const Path& b) {
  ScopedSpan s(names_[OpKind::kExchange]);
  return inner_->Exchange(a, b);
}

Result<atomfs::Attr> TimingFs::Stat(const Path& path) {
  ScopedSpan s(names_[OpKind::kStat]);
  return inner_->Stat(path);
}

Result<std::vector<atomfs::DirEntry>> TimingFs::ReadDir(const Path& path) {
  ScopedSpan s(names_[OpKind::kReadDir]);
  return inner_->ReadDir(path);
}

Result<size_t> TimingFs::Read(const Path& path, uint64_t offset, std::span<std::byte> out) {
  ScopedSpan s(names_[OpKind::kRead]);
  return inner_->Read(path, offset, out);
}

Result<size_t> TimingFs::Write(const Path& path, uint64_t offset,
                               std::span<const std::byte> data) {
  ScopedSpan s(names_[OpKind::kWrite]);
  return inner_->Write(path, offset, data);
}

Status TimingFs::Truncate(const Path& path, uint64_t size) {
  ScopedSpan s(names_[OpKind::kTruncate]);
  return inner_->Truncate(path, size);
}

// --- TimingTxnHost ---------------------------------------------------------------

Result<uint64_t> TimingTxnHost::TxBegin() {
  ScopedSpan s("txn.begin");
  return inner_->TxBegin();
}

Status TimingTxnHost::TxCommit(uint64_t txid) {
  ScopedSpan s("txn.commit");
  return inner_->TxCommit(txid);
}

Status TimingTxnHost::TxAbort(uint64_t txid) {
  ScopedSpan s("txn.abort");
  return inner_->TxAbort(txid);
}

atomfs::OpResult TimingTxnHost::TxApply(uint64_t txid, const atomfs::OpCall& call) {
  ScopedSpan s("txn.apply");
  return inner_->TxApply(txid, call);
}

// --- TimingObserver --------------------------------------------------------------

void TimingObserver::OnOpBegin(atomfs::Tid tid, const atomfs::OpCall& call) {
  ScopedSpan s(name_);
  inner_->OnOpBegin(tid, call);
}

void TimingObserver::OnOpEnd(atomfs::Tid tid, const atomfs::OpResult& result) {
  ScopedSpan s(name_);
  inner_->OnOpEnd(tid, result);
}

void TimingObserver::OnLockAcquired(atomfs::Tid tid, atomfs::Inum ino,
                                    atomfs::LockPathRole role) {
  ScopedSpan s(name_);
  inner_->OnLockAcquired(tid, ino, role);
}

void TimingObserver::OnLockReleased(atomfs::Tid tid, atomfs::Inum ino) {
  ScopedSpan s(name_);
  inner_->OnLockReleased(tid, ino);
}

void TimingObserver::OnLp(atomfs::Tid tid, atomfs::Inum created_ino) {
  ScopedSpan s(name_);
  inner_->OnLp(tid, created_ino);
}

void TimingObserver::OnOptWalkStart(atomfs::Tid tid) {
  ScopedSpan s(name_);
  inner_->OnOptWalkStart(tid);
}

void TimingObserver::OnOptWalkValidate(atomfs::Tid tid, atomfs::OptValidation outcome,
                                       uint32_t depth) {
  ScopedSpan s(name_);
  inner_->OnOptWalkValidate(tid, outcome, depth);
}

void TimingObserver::OnOptWalkFallback(atomfs::Tid tid) {
  ScopedSpan s(name_);
  inner_->OnOptWalkFallback(tid);
}

// --- GateObserver ----------------------------------------------------------------

bool& GateObserver::Open() {
  thread_local bool open = false;
  return open;
}

void GateObserver::OnOpBegin(atomfs::Tid tid, const atomfs::OpCall& call) {
  Open() = Spans::enabled();
  if (Open()) {
    inner_->OnOpBegin(tid, call);
  }
}

void GateObserver::OnOpEnd(atomfs::Tid tid, const atomfs::OpResult& result) {
  if (Open()) {
    inner_->OnOpEnd(tid, result);
  }
  Open() = false;
}

void GateObserver::OnLockAcquired(atomfs::Tid tid, atomfs::Inum ino, atomfs::LockPathRole role) {
  if (Open()) {
    inner_->OnLockAcquired(tid, ino, role);
  }
}

void GateObserver::OnLockReleased(atomfs::Tid tid, atomfs::Inum ino) {
  if (Open()) {
    inner_->OnLockReleased(tid, ino);
  }
}

void GateObserver::OnLp(atomfs::Tid tid, atomfs::Inum created_ino) {
  if (Open()) {
    inner_->OnLp(tid, created_ino);
  }
}

void GateObserver::OnOptWalkStart(atomfs::Tid tid) {
  if (Open()) {
    inner_->OnOptWalkStart(tid);
  }
}

void GateObserver::OnOptWalkValidate(atomfs::Tid tid, atomfs::OptValidation outcome,
                                     uint32_t depth) {
  if (Open()) {
    inner_->OnOptWalkValidate(tid, outcome, depth);
  }
}

void GateObserver::OnOptWalkFallback(atomfs::Tid tid) {
  if (Open()) {
    inner_->OnOptWalkFallback(tid);
  }
}

}  // namespace perfbench
