// webproxy-local: the paper's Webproxy personality (2 directories, 10,000
// files) run in-process through Vfs file descriptors over AtomFs — the
// repository's substitute for the paper's FUSE mount (Fig. 11) — by 4
// threads, each with its own descriptor table like a process.
//
// Why: every path crosses one of two directory inodes, so lock coupling in
// core dominates and there is no wire. Ten of the loop's thirteen calls are
// reads, so a read-path gain that costs mutations shows here.
//
// One loop: unlink, create (open O_CREAT|O_EXCL), append (pwrite + close),
// then five times stat and read (open + pread + close). Each of those
// thirteen is one timed call. Untraced runs attach no observer; traced runs
// attach a TracingObserver behind a gate, so only operations that begin in
// traced slices feed the lock-coupling histograms.

#include <memory>
#include <string>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/workload.h"
#include "src/core/atom_fs.h"
#include "src/obs/tracer.h"
#include "src/vfs/vfs.h"

namespace perfbench {

using atomfs::OpenFlags;
using atomfs::Vfs;

namespace {

struct Shape {
  uint32_t dirs;
  uint32_t files;
  uint64_t min_bytes;
  uint64_t max_bytes;
  uint32_t io_bytes;
};

std::string FilePath(const Shape& shape, uint64_t idx) {
  return "/wp/d" + std::to_string(idx % shape.dirs) + "/f" + std::to_string(idx);
}

struct System {
  atomfs::MetricsRegistry registry;
  atomfs::TracingObserver tracer{&registry};
  GateObserver gate{&tracer};
  std::unique_ptr<atomfs::AtomFs> fs;
  std::unique_ptr<TimingFs> core;
  std::vector<std::unique_ptr<Vfs>> vfs;  // one descriptor table per thread
};

std::unique_ptr<System> Build(const Shape& shape, uint64_t seed, bool traced, int threads) {
  auto sys = std::make_unique<System>();
  atomfs::AtomFs::Options o;
  o.observer = traced ? &sys->gate : nullptr;
  sys->fs = std::make_unique<atomfs::AtomFs>(std::move(o));
  sys->core = std::make_unique<TimingFs>(sys->fs.get(), "core");
  for (int i = 0; i < threads; ++i) {
    sys->vfs.push_back(std::make_unique<Vfs>(sys->core.get()));
  }
  atomfs::Rng rng(seed);
  atomfs::AtomFs& fs = *sys->fs;
  bool ok = fs.Mkdir("/wp").ok();
  for (uint32_t d = 0; d < shape.dirs; ++d) {
    ok = ok && fs.Mkdir("/wp/d" + std::to_string(d)).ok();
  }
  for (uint32_t f = 0; f < shape.files; ++f) {
    const std::string path = FilePath(shape, f);
    const uint64_t bytes = rng.Between(shape.min_bytes, shape.max_bytes);
    ok = ok && fs.Mknod(path).ok() && fs.Write(path, 0, PatternAt(0, bytes)).ok();
  }
  return ok ? std::move(sys) : nullptr;
}

}  // namespace

Report RunWebproxyLocal(const RunConfig& cfg) {
  const Shape shape = cfg.smoke ? Shape{2, 40, 2048, 4096, 4096}
                                : Shape{2, 10000, 2048, 4096, 4096};
  constexpr int kThreads = 4;
  Report r;
  r.notes.push_back("namespace: " + std::to_string(shape.dirs) + " dirs, " +
                    std::to_string(shape.files) + " files of 2-4 KiB; 4 KiB I/O");
  r.notes.push_back("4 threads, in-process Vfs descriptors over AtomFs");

  std::unique_ptr<System> sys;
  const double setup_s = MedianSetupSeconds(
      kSetupReps, [&] { sys.reset(); },
      [&] { sys = Build(shape, cfg.seed, cfg.trace, kThreads); });
  AddSetupMetrics(r, setup_s, "populate");
  r.Check("namespace populates", sys != nullptr);
  if (sys == nullptr) {
    return r;
  }

  Workers workers = MakeWorkers(kThreads, cfg.seed);
  const Allowed noent{.noent = true};
  const Allowed exist{.exist = true};
  auto iteration = [&](Worker& w) {
    Vfs& vfs = *sys->vfs[static_cast<size_t>(w.idx)];
    auto pick = [&] { return FilePath(shape, w.rng.Below(shape.files)); };
    const uint32_t io = shape.io_bytes;
    const std::string victim = pick();
    auto st = TimedCall(w, w.update, [&] {
      ScopedSpan s("vfs.call");
      return vfs.Unlink(victim);
    });
    w.tally.Note("unlink", st.code(), noent);
    auto fd = TimedCall(w, w.update, [&] {
      ScopedSpan s("vfs.call");
      return vfs.Open(victim, OpenFlags::kCreate | OpenFlags::kExcl | OpenFlags::kWrite);
    });
    if (w.tally.Note("create", fd.status().code(), exist) == Outcome::kOk) {
      auto wrote = TimedCall(w, w.update, [&] {
        atomfs::Result<size_t> n = atomfs::Errc::kIo;
        {
          ScopedSpan s("vfs.call");
          n = vfs.Pwrite(*fd, 0, PatternAt(0, io));
        }
        ScopedSpan s("vfs.call");
        const atomfs::Status closed = vfs.Close(*fd);
        return n.ok() && !closed.ok() ? atomfs::Result<size_t>(closed) : n;
      });
      w.tally.Note("append", wrote.status().code(), noent);
    }
    std::vector<std::byte> buf(io);
    for (int i = 0; i < 5; ++i) {
      const std::string p = pick();
      auto attr = TimedCall(w, w.read, [&] {
        ScopedSpan s("vfs.call");
        return vfs.Stat(p);
      });
      w.tally.Note("stat", attr.status().code(), noent);
      auto n = TimedCall(w, w.read, [&]() -> atomfs::Result<size_t> {
        atomfs::Result<atomfs::Fd> rfd = atomfs::Errc::kIo;
        {
          ScopedSpan s("vfs.call");
          rfd = vfs.Open(p, OpenFlags::kRead);
        }
        if (!rfd.ok()) {
          return rfd.status();
        }
        atomfs::Result<size_t> got = atomfs::Errc::kIo;
        {
          ScopedSpan s("vfs.call");
          got = vfs.Pread(*rfd, 0, buf);
        }
        ScopedSpan s("vfs.call");
        const atomfs::Status closed = vfs.Close(*rfd);
        return got.ok() && !closed.ok() ? atomfs::Result<size_t>(closed) : got;
      });
      if (w.tally.Note("read", n.status().code(), noent) == Outcome::kOk &&
          !MatchesPattern(std::span<const std::byte>(buf.data(), *n), 0)) {
        w.tally.Fail("read", "bytes differ from what was written");
      }
    }
  };
  LoopStats loop = RunClosedLoop(workers, cfg, iteration, &sys->registry);
  AddLoopMetrics(r, workers, loop);
  size_t open_fds = 0;
  for (const auto& v : sys->vfs) {
    open_fds += v->OpenCount();
  }
  r.Check("every descriptor closed", open_fds == 0);
  r.Check("quiesced tree is WellFormed", sys->fs->SnapshotSpec().WellFormed());

  if (cfg.trace) {
    const auto spans = Spans::Totals();
    const SpanTotals vfs = SumSpans(spans, "vfs.call");
    r.Add("vfs.self_us", vfs.MeanSelfUs(), "us", vfs.count, "Vfs span minus its AtomFs child");
    AddCoreLayers(r, spans);
    AddLockLayers(r, loop);
    AddTracingOverhead(r, loop);
  }
  return r;
}

}  // namespace perfbench
