// fileserver-wire: the paper's Fileserver personality (§7.3: 526
// directories, 10,000 files) served over the wire protocol by an in-process
// atomfsd in its default configuration — AtomFs backend, TracingObserver
// with a 65,536-event trace ring, no monitor, no journal — to 4 connections
// making synchronous depth-1 calls.
//
// Why: with thousands of distinct inodes lock coupling rarely waits, and a
// call costs tens of microseconds on the wire against about one inside
// AtomFs, so client / net / server do almost all of the work.

#include <memory>
#include <string>

#include "perfbench/layers.h"
#include "perfbench/wire_conn.h"
#include "perfbench/workload.h"
#include "src/core/atom_fs.h"
#include "src/obs/tracer.h"

namespace perfbench {

namespace {

struct Shape {
  uint32_t dirs;
  uint32_t files;
  uint64_t min_bytes;
  uint64_t max_bytes;
  uint32_t io_bytes;
};

std::string FilePath(const Shape& shape, uint64_t idx) {
  return "/fs/d" + std::to_string(idx % shape.dirs) + "/f" + std::to_string(idx);
}

// The daemon in its default configuration, populated.
struct System {
  atomfs::MetricsRegistry registry;
  atomfs::TraceRing ring{1 << 16};
  atomfs::TracingObserver tracer{&registry, &ring};
  std::unique_ptr<atomfs::AtomFs> fs;
  std::unique_ptr<TimingFs> core;
  ServedFs served;
};

std::unique_ptr<System> Build(const Shape& shape, uint64_t seed, const std::string& sock,
                              int clients) {
  auto sys = std::make_unique<System>();
  atomfs::AtomFs::Options o;
  o.observer = &sys->tracer;
  sys->fs = std::make_unique<atomfs::AtomFs>(std::move(o));
  sys->core = std::make_unique<TimingFs>(sys->fs.get(), "core");
  atomfs::Rng rng(seed);
  atomfs::AtomFs& fs = *sys->fs;
  bool ok = fs.Mkdir("/fs").ok();
  for (uint32_t d = 0; d < shape.dirs; ++d) {
    ok = ok && fs.Mkdir("/fs/d" + std::to_string(d)).ok();
  }
  for (uint32_t f = 0; f < shape.files; ++f) {
    const std::string path = FilePath(shape, f);
    const uint64_t bytes = rng.Between(shape.min_bytes, shape.max_bytes);
    ok = ok && fs.Mknod(path).ok() && fs.Write(path, 0, PatternAt(0, bytes)).ok();
  }
  auto served = Serve(sys->core.get(), nullptr, &sys->registry, &sys->ring, sock, clients);
  if (!ok || !served.ok()) {
    return nullptr;
  }
  sys->served = std::move(*served);
  return sys;
}

}  // namespace

Report RunFileserverWire(const RunConfig& cfg) {
  const Shape shape = cfg.smoke ? Shape{4, 40, 4096, 8192, 4096}
                                : Shape{526, 10000, 4096, 8192, 4096};
  constexpr int kConnections = 4;
  const std::string sock = cfg.work_dir + "/fileserver.sock";
  Report r;
  r.notes.push_back("namespace: " + std::to_string(shape.dirs) + " dirs, " +
                    std::to_string(shape.files) + " files of 4-8 KiB; 4 KiB I/O");
  r.notes.push_back("4 connections, synchronous depth-1 calls; server: 2 loops, 8 workers");

  std::unique_ptr<System> sys;
  const double setup_s = MedianSetupSeconds(
      kSetupReps, [&] { sys.reset(); },
      [&] { sys = Build(shape, cfg.seed, sock, kConnections); });
  AddSetupMetrics(r, setup_s, "populate + start server + connect");
  r.Check("server starts and clients connect", sys != nullptr);
  if (sys == nullptr) {
    return r;
  }

  Workers workers = MakeWorkers(kConnections, cfg.seed);
  std::vector<WireConn> conns;
  for (auto& c : sys->served.clients) {
    conns.emplace_back(&c->session());
  }
  const Allowed noent{.noent = true};
  const Allowed exist{.exist = true};
  auto iteration = [&](Worker& w) {
    WireConn& conn = conns[static_cast<size_t>(w.idx)];
    auto pick = [&] { return FilePath(shape, w.rng.Below(shape.files)); };
    const uint32_t io = shape.io_bytes;
    // create + write
    std::string p = pick();
    w.tally.Note("mknod", TimedCall(w, w.update, [&] { return conn.Mknod(p); }).code(), exist);
    auto wrote = TimedCall(w, w.update, [&] { return conn.Write(p, 0, PatternAt(0, io)); });
    w.tally.Note("write", wrote.status().code(), noent);
    // stat + append
    p = pick();
    auto attr = TimedCall(w, w.read, [&] { return conn.Stat(p); });
    if (w.tally.Note("stat", attr.status().code(), noent) == Outcome::kOk) {
      const uint64_t off = attr->size + io <= kPatternSpan ? attr->size : 0;
      auto app = TimedCall(w, w.update, [&] { return conn.Write(p, off, PatternAt(off, io)); });
      w.tally.Note("append", app.status().code(), noent);
    }
    // read whole-file prefix and check its bytes
    p = pick();
    auto data = TimedCall(w, w.read, [&] { return conn.Read(p, 0, io); });
    if (w.tally.Note("read", data.status().code(), noent) == Outcome::kOk &&
        !MatchesPattern(*data, 0)) {
      w.tally.Fail("read", "bytes differ from what was written");
    }
    // unlink, stat
    p = pick();
    w.tally.Note("unlink", TimedCall(w, w.update, [&] { return conn.Unlink(p); }).code(), noent);
    p = pick();
    auto st = TimedCall(w, w.read, [&] { return conn.Stat(p); });
    w.tally.Note("stat", st.status().code(), noent);
  };
  LoopStats loop = RunClosedLoop(workers, cfg, iteration, &sys->registry);
  AddLoopMetrics(r, workers, loop);
  sys->served.Stop();
  r.Check("quiesced tree is WellFormed", sys->fs->SnapshotSpec().WellFormed());

  if (cfg.trace) {
    const auto spans = Spans::Totals();
    AddWireLayers(r, spans, loop, {"core"});
    AddCoreLayers(r, spans);
    AddLockLayers(r, loop);
    AddTracingOverhead(r, loop);
  }
  return r;
}

}  // namespace perfbench
