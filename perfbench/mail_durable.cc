// mail-durable: a varmail-style mail store (64 directories, 4,000 messages)
// served over the wire by an in-process atomfsd as `atomfsd --journal
// FILE --checkpoint-bytes 16777216` runs it: every mutation goes through the
// TxnManager, is appended to the WAL, and a checkpoint + WAL rotation is
// taken whenever the live WAL passes 16 MiB. fsync is off, as is the
// daemon's default. Four connections make synchronous depth-1 calls.
//
// Traffic: every loop iteration is the varmail loop of journaled direct ops
// (unlink, create, append, two whole-message reads), except every 64th
// iteration of each connection, which is instead one transaction:
// TXBEGIN, mknod a temp file, write it, rename it into a mailbox, TXCOMMIT.
// Half of the transactions deliver into the one shared mailbox, so
// concurrent commits conflict there (OCC, ETXCONFLICT).
//
// After the load the journal the run produced is recovered into a fresh
// AtomFs, three times; the recovered tree must equal the live one.
//
// Why: every mutation takes the commit lock and a WAL append, and every
// transaction copies the committed mirror, so txn and journal dominate,
// with writes beside reads in one layer; checkpoints show as p99 spikes.

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/wire_conn.h"
#include "perfbench/workload.h"
#include "src/afs/op.h"
#include "src/core/atom_fs.h"
#include "src/journal/checkpoint.h"
#include "src/obs/tracer.h"
#include "src/txn/txn.h"

namespace perfbench {

namespace {

constexpr uint64_t kCheckpointBytes = 16u << 20;
constexpr uint64_t kTxnEvery = 64;  // one transaction per 64 loop iterations
constexpr int kConnections = 4;

struct Shape {
  uint32_t boxes;  // private mailboxes; one more is the shared mailbox
  uint32_t files;
  uint64_t min_bytes;
  uint64_t max_bytes;
  uint32_t io_bytes;
};

std::string BoxPath(const Shape& shape, uint64_t box) {
  return box == shape.boxes ? "/mail/shared" : "/mail/b" + std::to_string(box);
}

std::string MsgPath(const Shape& shape, uint64_t idx) {
  return BoxPath(shape, idx % (shape.boxes + 1)) + "/m" + std::to_string(idx);
}

struct System {
  std::string wal;
  atomfs::MetricsRegistry registry;
  atomfs::TraceRing ring{1 << 16};
  atomfs::TracingObserver tracer{&registry, &ring};
  std::unique_ptr<atomfs::AtomFs> fs;
  std::unique_ptr<TimingFs> core;
  std::unique_ptr<atomfs::TxnManager> txn;
  std::unique_ptr<TimingFs> server_fs;
  std::unique_ptr<TimingTxnHost> host;
  ServedFs served;
};

std::unique_ptr<System> Build(const Shape& shape, uint64_t seed, const std::string& dir,
                              const std::string& sock) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  auto sys = std::make_unique<System>();
  sys->wal = dir + "/mail.wal";
  atomfs::AtomFs::Options o;
  o.observer = &sys->tracer;
  sys->fs = std::make_unique<atomfs::AtomFs>(std::move(o));
  sys->core = std::make_unique<TimingFs>(sys->fs.get(), "core");
  // A fresh journal: recovery finds nothing, exactly as the daemon's start.
  auto recovered = atomfs::RecoverJournal(sys->wal, *sys->core, /*repair=*/true);
  if (recovered.ok() || recovered.status().code() != atomfs::Errc::kNoEnt) {
    return nullptr;
  }
  atomfs::TxnManager::Options t;
  t.inner = sys->core.get();
  t.wal_path = sys->wal;
  t.metrics = &sys->registry;
  t.trace_ring = &sys->ring;
  t.initial = sys->fs->SnapshotSpec();
  t.checkpoint_bytes = kCheckpointBytes;
  sys->txn = std::make_unique<atomfs::TxnManager>(std::move(t));
  sys->server_fs = std::make_unique<TimingFs>(sys->txn.get(), "server.fs");
  sys->host = std::make_unique<TimingTxnHost>(sys->txn.get());

  atomfs::Rng rng(seed);
  atomfs::TxnManager& fs = *sys->txn;
  bool ok = fs.Mkdir("/mail").ok();
  for (uint32_t b = 0; b <= shape.boxes; ++b) {
    ok = ok && fs.Mkdir(BoxPath(shape, b)).ok();
  }
  for (int w = 0; w < kConnections; ++w) {
    ok = ok && fs.Mkdir("/mail/tmp" + std::to_string(w)).ok();
  }
  for (uint32_t f = 0; f < shape.files; ++f) {
    const std::string path = MsgPath(shape, f);
    const uint64_t bytes = rng.Between(shape.min_bytes, shape.max_bytes);
    ok = ok && fs.Mknod(path).ok() && fs.Write(path, 0, PatternAt(0, bytes)).ok();
  }
  auto served = Serve(sys->server_fs.get(), sys->host.get(), &sys->registry, &sys->ring, sock,
                      kConnections);
  if (!ok || !served.ok()) {
    return nullptr;
  }
  sys->served = std::move(*served);
  return sys;
}

// Payload bytes held in the files of `tree`.
uint64_t PayloadBytes(atomfs::SpecFs& tree, const std::string& dir) {
  uint64_t total = 0;
  auto entries = tree.ReadDir(dir);
  if (!entries.ok()) {
    return 0;
  }
  for (const auto& e : *entries) {
    const std::string path = (dir == "/" ? "" : dir) + "/" + e.name;
    if (e.type == atomfs::FileType::kDir) {
      total += PayloadBytes(tree, path);
    } else if (auto attr = tree.Stat(path); attr.ok()) {
      total += attr->size;
    }
  }
  return total;
}

uint64_t JournalBytesOnDisk(const std::string& wal) {
  uint64_t total = 0;
  for (const std::string& p : {wal, atomfs::PrevWalPath(wal), atomfs::CheckpointPath(wal),
                               atomfs::PrevCheckpointPath(wal)}) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(p, ec);
    if (!ec) {
      total += size;
    }
  }
  return total;
}

}  // namespace

Report RunMailDurable(const RunConfig& cfg) {
  const Shape shape = cfg.smoke ? Shape{3, 40, 1024, 2048, 2048}
                                : Shape{59, 4000, 1024, 2048, 2048};
  const std::string sock = cfg.work_dir + "/mail.sock";
  Report r;
  r.notes.push_back("namespace: " + std::to_string(shape.boxes) +
                    " mailboxes + 1 shared mailbox + 4 temp dirs, " +
                    std::to_string(shape.files) + " messages of 1-2 KiB; 2 KiB I/O");
  r.notes.push_back("journal: TxnManager + WAL, checkpoint every " +
                    std::to_string(kCheckpointBytes >> 20) + " MiB of WAL, fsync off");
  r.notes.push_back("mix: 1 in " + std::to_string(kTxnEvery) +
                    " loop iterations is a 5-call transaction, half into the shared mailbox; "
                    "the rest are unlink/create/append/2 reads");

  std::unique_ptr<System> sys;
  int build = 0;
  const double setup_s = MedianSetupSeconds(kSetupReps, [&] { sys.reset(); }, [&] {
    sys = Build(shape, cfg.seed, cfg.work_dir + "/mail" + std::to_string(build++), sock);
  });
  AddSetupMetrics(r, setup_s, "journaled populate + start server + connect");
  r.Check("journaled server starts and clients connect", sys != nullptr);
  if (sys == nullptr) {
    return r;
  }

  Workers workers = MakeWorkers(kConnections, cfg.seed);
  std::vector<WireConn> conns;
  for (auto& c : sys->served.clients) {
    conns.emplace_back(&c->session());
  }
  std::vector<uint64_t> iterations(kConnections, 0);
  const Allowed none{};
  const Allowed noent{.noent = true};
  const Allowed exist{.exist = true};
  const Allowed conflict{.conflict = true};
  auto iteration = [&](Worker& w) {
    WireConn& conn = conns[static_cast<size_t>(w.idx)];
    auto pick = [&] { return MsgPath(shape, w.rng.Below(shape.files)); };
    const uint32_t io = shape.io_bytes;
    if (++iterations[static_cast<size_t>(w.idx)] % kTxnEvery == 0) {
      const std::string tmp = "/mail/tmp" + std::to_string(w.idx) + "/t";
      // Half of the deliveries replace a message of the shared mailbox.
      const uint64_t per_box = shape.files / (shape.boxes + 1);
      const std::string dst =
          w.rng.Chance(1, 2)
              ? MsgPath(shape, shape.boxes + (shape.boxes + 1) * w.rng.Below(per_box))
              : pick();
      const uint64_t t0 = NowNs();
      auto id = TimedCall(w, w.update, [&] { return conn.TxBegin(); });
      if (w.tally.Note("txbegin", id.status().code(), none) != Outcome::kOk) {
        return;
      }
      w.tally.Note("tx.mknod", TimedCall(w, w.update, [&] { return conn.Mknod(tmp); }).code(),
                   none);
      auto wrote = TimedCall(w, w.update, [&] { return conn.Write(tmp, 0, PatternAt(0, io)); });
      w.tally.Note("tx.write", wrote.status().code(), none);
      w.tally.Note("tx.rename",
                   TimedCall(w, w.update, [&] { return conn.Rename(tmp, dst); }).code(), none);
      auto committed = TimedCall(w, w.update, [&] { return conn.TxCommit(); });
      if (Measuring()) {
        w.commit.Record(NowNs() - t0);
      }
      w.tally.Note("txcommit", committed.code(), conflict);
      return;
    }
    const std::string msg = pick();
    w.tally.Note("unlink", TimedCall(w, w.update, [&] { return conn.Unlink(msg); }).code(),
                 noent);
    w.tally.Note("mknod", TimedCall(w, w.update, [&] { return conn.Mknod(msg); }).code(), exist);
    auto wrote = TimedCall(w, w.update, [&] { return conn.Write(msg, 0, PatternAt(0, io)); });
    w.tally.Note("append", wrote.status().code(), noent);
    for (int i = 0; i < 2; ++i) {
      const std::string p = pick();
      auto data = TimedCall(w, w.read, [&] { return conn.Read(p, 0, io); });
      if (w.tally.Note("read", data.status().code(), noent) == Outcome::kOk &&
          !MatchesPattern(*data, 0)) {
        w.tally.Fail("read", "bytes differ from what was written");
      }
    }
  };
  LoopStats loop = RunClosedLoop(workers, cfg, iteration, &sys->registry);
  AddLoopMetrics(r, workers, loop);
  LatencyHist commit;
  for (const auto& w : workers) {
    commit.Merge(w->commit);
  }
  AddLatency(r, "commit", commit);

  sys->served.Stop();
  atomfs::SpecFs live = sys->fs->SnapshotSpec();
  r.Check("quiesced tree is WellFormed", live.WellFormed());
  r.Check("journal is not fail-stopped", !sys->txn->journal_failed());
  const uint64_t payload = PayloadBytes(live, "/");
  const uint64_t stored = JournalBytesOnDisk(sys->wal);
  r.Add("stored_bytes_per_user_byte",
        payload > 0 ? static_cast<double>(stored) / static_cast<double>(payload) : 0.0, "ratio",
        1, "WAL + checkpoint bytes on disk per payload byte in the live tree");
  sys->txn.reset();  // closes the WAL

  std::vector<double> recover_ms;
  uint64_t replayed = 0;
  bool equal = true;
  for (int i = 0; i < 3; ++i) {
    atomfs::AtomFs fresh;
    const uint64_t t0 = NowNs();
    auto stats = atomfs::RecoverJournal(sys->wal, fresh);
    recover_ms.push_back((NowNs() - t0) / 1e6);
    if (!stats.ok()) {
      equal = false;
      break;
    }
    replayed = stats->wal.applied_ops + stats->checkpoint_ops;
    equal = equal && atomfs::StructurallyEqual(fresh.SnapshotSpec(), live);
  }
  r.Check("recovered journal is StructurallyEqual to the live tree", equal);
  r.Add("recover_ms", Median(recover_ms), "ms", recover_ms.size(),
        "median of 3 RecoverJournal runs into a fresh AtomFs");

  if (cfg.trace) {
    const auto spans = Spans::Totals();
    AddWireLayers(r, spans, loop, {"server.fs", "txn"});
    for (const char* step : {"begin", "apply", "commit"}) {
      const SpanTotals t = SumSpans(spans, std::string("txn.") + step);
      r.Add(std::string("txn.") + step + "_us", t.MeanUs(), "us", t.count);
    }
    const KindNames direct("server.fs");
    SpanTotals d;
    for (size_t k = 0; k < kOpKinds; ++k) {
      const auto kind = static_cast<atomfs::OpKind>(k);
      auto it = spans.find(direct[kind]);
      if (!IsReadKind(kind) && it != spans.end()) {
        d.count += it->second.count;
        d.total_ns += it->second.total_ns;
      }
    }
    r.Add("txn.direct_us", d.MeanUs(), "us", d.count, "journaled direct mutation");
    const double conflicts =
        static_cast<double>(CounterDelta(loop.window_start, loop.window_end, "txn.conflicts"));
    const double commits =
        static_cast<double>(CounterDelta(loop.window_start, loop.window_end, "txn.commits"));
    r.Add("txn.conflict_ratio", conflicts + commits > 0 ? conflicts / (conflicts + commits) : 0.0,
          "ratio", static_cast<uint64_t>(conflicts + commits), "conflicts / commit attempts");
    r.Add("journal.checkpoint.count",
          static_cast<double>(
              CounterDelta(loop.window_start, loop.window_end, "journal.checkpoint.count")),
          "count");
    const auto ckpt = HistogramDelta(loop.window_start, loop.window_end, "journal.checkpoint.ms");
    r.Add("journal.checkpoint.ms", ckpt.second > 0 ? ckpt.first / ckpt.second : 0.0, "ms",
          static_cast<uint64_t>(ckpt.second));
    r.Add("journal.recover.ops_replayed", static_cast<double>(replayed), "count");
    AddCoreLayers(r, spans);
    AddLockLayers(r, loop);
    AddTracingOverhead(r, loop);
  }
  return r;
}

}  // namespace perfbench
