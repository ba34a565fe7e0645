#include "src/journal/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/workload/trace.h"

namespace atomfs {

std::string CheckpointPath(const std::string& wal_path) { return wal_path + ".ckpt"; }
std::string PrevCheckpointPath(const std::string& wal_path) { return wal_path + ".ckpt.prev"; }
std::string TmpCheckpointPath(const std::string& wal_path) { return wal_path + ".ckpt.tmp"; }
std::string PrevWalPath(const std::string& wal_path) { return wal_path + ".prevwal"; }

namespace {

constexpr std::string_view kCheckpointHeader = "# atomfs-checkpoint v1";

// FNV-1a/64 — the whole-file cousin of the WAL's per-record FNV-1a/32.
uint64_t Fnv64(std::string_view bytes) {
  uint64_t h = 14695981039346656037ull;
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Errc::kNoEnt;
  }
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>{});
}

bool FileExists(const std::string& path) { return ::access(path.c_str(), F_OK) == 0; }

// Persists the renames themselves: without a directory fsync, a power loss
// can roll back a rename even though both files' contents were synced.
void FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".") : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

Status WriteFileDurably(const std::string& path, std::string_view bytes) {
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return Status(Errc::kIo);
  }
  const bool ok = WriteFully(fd, bytes).ok() && ::fdatasync(fd) == 0;
  ::close(fd);
  return ok ? Status() : Status(Errc::kIo);
}

}  // namespace

std::string FormatCheckpoint(const Checkpoint& c) {
  std::ostringstream out;
  out << kCheckpointHeader << "\n";
  out << "ckpt " << c.ckpt_id << " " << c.max_txid << " " << c.committed_units << " "
      << c.ops.size() << "\n";
  for (const OpCall& call : c.ops) {
    out << FormatTraceLine(call) << "\n";
  }
  std::string body = out.str();
  char sum[32];
  std::snprintf(sum, sizeof(sum), "sum %016llx\n",
                static_cast<unsigned long long>(Fnv64(body)));
  body += sum;
  return body;
}

Result<Checkpoint> ParseCheckpoint(std::string_view bytes) {
  // The sum line must be the final line; everything before it is covered.
  const size_t sum_at = bytes.rfind("sum ");
  if (sum_at == std::string_view::npos || (sum_at != 0 && bytes[sum_at - 1] != '\n')) {
    return Errc::kInval;
  }
  const std::string_view body = bytes.substr(0, sum_at);
  std::string_view sum_line = bytes.substr(sum_at);
  if (sum_line.size() < 5 || sum_line.back() != '\n') {
    return Errc::kInval;
  }
  sum_line = sum_line.substr(4, sum_line.size() - 5);
  uint64_t want = 0;
  {
    std::istringstream in{std::string(sum_line)};
    in >> std::hex >> want;
    if (in.fail() || !in.eof()) {
      return Errc::kInval;
    }
  }
  if (Fnv64(body) != want) {
    return Errc::kInval;
  }
  std::istringstream in{std::string(body)};
  std::string line;
  if (!std::getline(in, line) || line != kCheckpointHeader) {
    return Errc::kInval;
  }
  if (!std::getline(in, line)) {
    return Errc::kInval;
  }
  Checkpoint c;
  uint64_t nops = 0;
  {
    std::istringstream hdr(line);
    std::string tag;
    hdr >> tag >> c.ckpt_id >> c.max_txid >> c.committed_units >> nops;
    if (hdr.fail() || tag != "ckpt") {
      return Errc::kInval;
    }
  }
  while (std::getline(in, line)) {
    auto call = ParseTraceLine(line);
    if (!call.ok()) {
      return Errc::kInval;
    }
    c.ops.push_back(std::move(*call));
  }
  if (c.ops.size() != nops) {
    return Errc::kInval;
  }
  return c;
}

Checkpoint BuildCheckpoint(const SpecFs& state, uint64_t ckpt_id, uint64_t max_txid,
                           uint64_t committed_units) {
  Checkpoint c;
  c.ckpt_id = ckpt_id;
  c.max_txid = max_txid;
  c.committed_units = committed_units;
  c.ops = ExportAsTrace(state);
  return c;
}

Result<uint64_t> WriteCheckpointFile(const std::string& wal_path, const Checkpoint& c) {
  const std::string tmp = TmpCheckpointPath(wal_path);
  const std::string ckpt = CheckpointPath(wal_path);
  const std::string prev = PrevCheckpointPath(wal_path);
  const std::string body = FormatCheckpoint(c);
  Status s = WriteFileDurably(tmp, body);
  if (!s.ok()) {
    return s;
  }
  // Keep exactly one fallback: the checkpoint being displaced.
  if (FileExists(ckpt) && std::rename(ckpt.c_str(), prev.c_str()) != 0) {
    return Errc::kIo;
  }
  if (std::rename(tmp.c_str(), ckpt.c_str()) != 0) {
    return Errc::kIo;
  }
  FsyncParentDir(wal_path);
  return static_cast<uint64_t>(body.size());
}

namespace {

// One scanned WAL file: its generation (kCkpt head marker id, 0 if none)
// and raw bytes.
struct WalFileState {
  bool exists = false;
  std::string bytes;
  uint64_t head = 0;
  WalScan scan;
};

WalFileState LoadWalFile(const std::string& path) {
  WalFileState st;
  auto bytes = ReadFileBytes(path);
  if (!bytes.ok()) {
    return st;
  }
  st.exists = true;
  st.bytes = std::move(*bytes);
  st.scan = ScanWalBytes(st.bytes);
  if (!st.scan.records.empty() && st.scan.records.front().type == WalRecordType::kCkpt) {
    st.head = st.scan.records.front().txid;
  }
  return st;
}

}  // namespace

Result<JournalRecoveryStats> RecoverJournal(const std::string& wal_path, FileSystem& fs,
                                            bool repair) {
  WalFileState live = LoadWalFile(wal_path);
  WalFileState prevwal = LoadWalFile(PrevWalPath(wal_path));

  // Step 1: newest checkpoint, falling back to the previous on corruption.
  Checkpoint ckpt;
  bool used_checkpoint = false;
  bool fell_back = false;
  bool ckpt_file_present = false;
  {
    auto newest = ReadFileBytes(CheckpointPath(wal_path));
    if (newest.ok()) {
      ckpt_file_present = true;
      auto parsed = ParseCheckpoint(*newest);
      if (parsed.ok()) {
        ckpt = std::move(*parsed);
        used_checkpoint = true;
      }
    }
    if (!used_checkpoint) {
      auto prev = ReadFileBytes(PrevCheckpointPath(wal_path));
      if (prev.ok()) {
        ckpt_file_present = true;
        auto parsed = ParseCheckpoint(*prev);
        if (parsed.ok()) {
          ckpt = std::move(*parsed);
          used_checkpoint = true;
          fell_back = true;
        }
      }
    }
  }

  if (!live.exists && !prevwal.exists && !used_checkpoint) {
    return Errc::kNoEnt;
  }

  const uint64_t want_gen = used_checkpoint ? ckpt.ckpt_id : 0;
  if (!used_checkpoint && (live.head > 0 || prevwal.head > 0 || ckpt_file_present)) {
    // The WAL is a suffix relative to a checkpoint no readable file
    // provides: replaying it alone would silently produce a partial state.
    return Errc::kIo;
  }

  JournalRecoveryStats stats;
  stats.used_checkpoint = used_checkpoint;
  stats.fell_back_to_prev = fell_back;
  stats.generation = std::max({want_gen, live.head, prevwal.head});

  // Step 3: checkpoint ops, then every WAL generation the checkpoint does
  // not cover, oldest first.
  if (used_checkpoint) {
    for (const OpCall& call : ckpt.ops) {
      if (!RunOp(fs, call).status.ok()) {
        return Errc::kIo;  // checksummed checkpoint that cannot re-apply
      }
    }
    stats.checkpoint_ops = ckpt.ops.size();
    stats.max_txid = ckpt.max_txid;
    stats.committed_units = ckpt.committed_units;
  }
  std::vector<const WalFileState*> replay;
  if (prevwal.exists && prevwal.head >= want_gen) {
    replay.push_back(&prevwal);
  }
  if (live.exists && live.head >= want_gen) {
    replay.push_back(&live);
  }
  if (!replay.empty()) {
    // Contiguity: the oldest replayed file must pick up exactly where the
    // checkpoint left off, and files must be consecutive generations.
    if (replay.front()->head != want_gen ||
        (replay.size() == 2 && replay[1]->head != replay[0]->head + 1)) {
      return Errc::kIo;
    }
  }
  const bool live_replayed = !replay.empty() && replay.back() == &live;
  for (const WalFileState* f : replay) {
    const WalRecoveryStats r = RecoverWalBytes(f->bytes, fs);
    stats.wal.applied_ops += r.applied_ops;
    stats.wal.committed += r.committed;
    stats.wal.aborted += r.aborted;
    stats.wal.discarded += r.discarded;
    stats.wal.max_txid = std::max(stats.wal.max_txid, r.max_txid);
    if (f == &live) {
      stats.wal.clean_bytes = r.clean_bytes;
      stats.wal.torn_tail = r.torn_tail;
    }
    if (r.torn_tail && f != &live) {
      // A torn previous generation means its tail (and everything in the
      // live file) is unreliable; stop at the last good unit.
      stats.wal.torn_tail = true;
      break;
    }
  }
  stats.max_txid = std::max(stats.max_txid, stats.wal.max_txid);
  stats.committed_units += stats.wal.committed;

  if (repair) {
    // Step 4: normalize so an O_APPEND writer continues into a clean log.
    ::unlink(TmpCheckpointPath(wal_path).c_str());
    if (used_checkpoint && (!live.exists || live.head < want_gen)) {
      // Interrupted rotation: the checkpoint covers the whole live file.
      // Complete the rotation it crashed out of.
      if (live.exists &&
          std::rename(wal_path.c_str(), PrevWalPath(wal_path).c_str()) != 0) {
        return Errc::kIo;
      }
      const std::string head = EncodeWalRecord(WalRecordType::kCkpt, want_gen, {});
      Status s = WriteFileDurably(wal_path, head);
      if (!s.ok()) {
        return Errc::kIo;
      }
      FsyncParentDir(wal_path);
    } else if (live_replayed && live.scan.torn_tail) {
      // Appending after torn bytes would make every later record
      // unreadable (the scan stops at the torn prefix); cut them off.
      if (::truncate(wal_path.c_str(), static_cast<off_t>(live.scan.clean_bytes)) != 0) {
        return Errc::kIo;
      }
    }
  }
  return stats;
}

}  // namespace atomfs
