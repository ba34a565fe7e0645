// verify: CRL-H as its users run it, in two parts.
//
// 1. ExploreSchedules exhausts the paper's Fig. 1, 4(a), 4(b) and 8
//    programs (the bench_explore set): every schedule of the real AtomFs
//    code runs under the monitor, and every program must come back
//    exhausted and linearizable. The program set is fixed, so the counts
//    of executions are exact.
// 2. A CrlhMonitor, configured as `atomfsd --monitor` configures it (the
//    TracingObserver as its sink and teed after it), watches in-process
//    AtomFs while 4 threads run a rename / stat / mkdir / rmdir mix over
//    shared path prefixes (about 1,000 entries), so renames of populated
//    directories break paths other threads are walking and helping fires.
//    The monitor must stay ok() and pass CheckQuiescent at the end.
//
// Why: no other workload runs src/crlh or src/sim; here they do nearly all
// of the work.

#include <memory>
#include <string>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/workload.h"
#include "src/core/atom_fs.h"
#include "src/crlh/explore.h"
#include "src/crlh/monitor.h"
#include "src/obs/tracer.h"

namespace perfbench {

namespace {

atomfs::OpCall Call(atomfs::OpCall (*make)(atomfs::Path), std::string_view p) {
  return make(*atomfs::ParsePath(p));
}

struct Program {
  const char* name;
  atomfs::ConcurrentProgram program;
};

std::vector<Program> ExplorePrograms(bool smoke) {
  using atomfs::OpCall;
  std::vector<Program> out;
  {
    atomfs::ConcurrentProgram p;
    p.setup = [](atomfs::FileSystem& fs) {
      fs.Mkdir("/a");
      fs.Mkdir("/a/b");
    };
    p.threads = {{Call(OpCall::MkdirOf, "/a/b/c")},
                 {OpCall::RenameOf(*atomfs::ParsePath("/a"), *atomfs::ParsePath("/e"))}};
    out.push_back({"fig1", std::move(p)});
  }
  {
    atomfs::ConcurrentProgram p;
    p.setup = [](atomfs::FileSystem& fs) {
      fs.Mkdir("/a");
      fs.Mkdir("/d");
    };
    p.threads = {{Call(OpCall::MkdirOf, "/a/c")}, {Call(OpCall::RmdirOf, "/d")}};
    out.push_back({"fig4a", std::move(p)});
  }
  {
    atomfs::ConcurrentProgram p;
    p.setup = [](atomfs::FileSystem& fs) {
      fs.Mkdir("/a");
      fs.Mkdir("/a/b");
      fs.Mknod("/a/b/f");
    };
    p.threads = {{Call(OpCall::StatOf, "/a/b/f")},
                 {OpCall::RenameOf(*atomfs::ParsePath("/a/b"), *atomfs::ParsePath("/g"))}};
    out.push_back({"fig4b", std::move(p)});
  }
  if (!smoke) {
    atomfs::ConcurrentProgram p;
    p.setup = [](atomfs::FileSystem& fs) {
      fs.Mkdir("/a");
      fs.Mkdir("/a/b");
      fs.Mkdir("/a/b/c");
    };
    p.threads = {{Call(OpCall::MkdirOf, "/a/b/c/d")},
                 {OpCall::RenameOf(*atomfs::ParsePath("/a"), *atomfs::ParsePath("/i")),
                  Call(OpCall::RmdirOf, "/i/b/c")}};
    out.push_back({"fig8", std::move(p)});
  }
  return out;
}

struct Shape {
  uint32_t tops;     // /v/a<i> slots; the first `occupied` hold a subtree
  uint32_t occupied;
  uint32_t subdirs;  // /v/a<i>/b<j> in every subtree
  uint32_t files;    // /v/a<i>/b<j>/c<k>
  uint32_t leaves;   // /v/a<i>/b<j>/d<k> slots, the first half occupied
};

struct System {
  atomfs::MetricsRegistry registry;
  atomfs::TracingObserver tracer{&registry};
  std::unique_ptr<atomfs::CrlhMonitor> monitor;
  std::unique_ptr<TimingObserver> timed_monitor;
  std::unique_ptr<atomfs::TeeObserver> tee;
  std::unique_ptr<atomfs::AtomFs> fs;
  std::unique_ptr<TimingFs> core;
};

std::string Top(uint64_t top) { return "/v/a" + std::to_string(top); }

std::unique_ptr<System> Build(const Shape& shape) {
  auto sys = std::make_unique<System>();
  atomfs::CrlhMonitor::Options m;
  m.obs = &sys->tracer;
  sys->monitor = std::make_unique<atomfs::CrlhMonitor>(m);
  sys->timed_monitor = std::make_unique<TimingObserver>(sys->monitor.get(), "crlh.monitor");
  sys->tee = std::make_unique<atomfs::TeeObserver>(sys->timed_monitor.get(), &sys->tracer);
  atomfs::AtomFs::Options o;
  o.observer = sys->tee.get();
  sys->fs = std::make_unique<atomfs::AtomFs>(std::move(o));
  sys->core = std::make_unique<TimingFs>(sys->fs.get(), "core");
  atomfs::AtomFs& fs = *sys->fs;
  bool ok = fs.Mkdir("/v").ok();
  for (uint32_t a = 0; a < shape.occupied; ++a) {
    ok = ok && fs.Mkdir(Top(a)).ok();
    for (uint32_t b = 0; b < shape.subdirs; ++b) {
      const std::string slot = Top(a) + "/b" + std::to_string(b);
      ok = ok && fs.Mkdir(slot).ok();
      for (uint32_t c = 0; c < shape.files; ++c) {
        ok = ok && fs.Mknod(slot + "/c" + std::to_string(c)).ok();
      }
      for (uint32_t d = 0; d < shape.leaves / 2; ++d) {
        ok = ok && fs.Mkdir(slot + "/d" + std::to_string(d)).ok();
      }
    }
  }
  return ok && sys->monitor->ok() ? std::move(sys) : nullptr;
}

uint64_t InvariantChecks(const atomfs::MetricsSnapshot& s) {
  uint64_t n = 0;
  for (const auto& c : s.counters) {
    if (c.name.rfind("crlh.invariant.", 0) == 0 && c.name.size() > 7 &&
        c.name.compare(c.name.size() - 7, 7, ".checks") == 0) {
      n += c.value;
    }
  }
  return n;
}

}  // namespace

Report RunVerify(const RunConfig& cfg) {
  const Shape shape = cfg.smoke ? Shape{3, 2, 2, 3, 2} : Shape{3, 2, 2, 230, 8};
  constexpr int kThreads = 4;
  Report r;
  const uint64_t entries =
      1 + shape.occupied +
      uint64_t{shape.occupied} * shape.subdirs * (1 + shape.files + shape.leaves / 2);
  r.notes.push_back("explore: fig1, fig4a, fig4b" + std::string(cfg.smoke ? "" : ", fig8") +
                    " exhausted under the monitor");
  r.notes.push_back("monitor phase: " + std::to_string(entries) +
                    " entries in 2 subtrees under 3 top-level slots; 4 threads; 50% stat, "
                    "20% rename of a subtree between top-level slots, 15% mkdir, 15% rmdir");

  // Part 1: exhaustive exploration of the fixed program set.
  uint64_t executions = 0;
  const uint64_t explore_t0 = NowNs();
  for (auto& prog : ExplorePrograms(cfg.smoke)) {
    atomfs::ExploreOptions options;
    options.max_executions = 100000;
    const atomfs::ExploreStats stats = atomfs::ExploreSchedules(prog.program, options);
    executions += stats.executions;
    r.outcomes.Verdict("explore", stats.exhausted && stats.all_ok,
                       std::string(prog.name) + (stats.exhausted ? "" : " not exhausted") +
                           (stats.all_ok ? "" : " not linearizable"));
    r.Check(std::string("explore ") + prog.name + " exhausted and linearizable",
            stats.exhausted && stats.all_ok);
    r.Add(std::string("crlh.explore.executions.") + prog.name,
          static_cast<double>(stats.executions), "count");
  }
  const double explore_s = (NowNs() - explore_t0) / 1e9;
  r.Add("explore_s", explore_s, "s", 1, "wall time to exhaust the program set");
  r.Add("crlh.explore.us_per_execution", executions ? explore_s * 1e6 / executions : 0.0, "us",
        executions);

  // Part 2: the runtime monitor under real threads.
  std::unique_ptr<System> sys;
  const double setup_s =
      MedianSetupSeconds(kSetupReps, [&] { sys.reset(); }, [&] { sys = Build(shape); });
  AddSetupMetrics(r, setup_s, "monitored populate");
  r.Check("monitored namespace populates", sys != nullptr);
  if (sys == nullptr) {
    return r;
  }
  Workers workers = MakeWorkers(kThreads, cfg.seed);
  const Allowed noent{.noent = true};
  const Allowed noent_exist{.noent = true, .exist = true};
  const Allowed rename_ok{.noent = true, .exist = true, .notempty = true};
  auto iteration = [&](Worker& w) {
    atomfs::FileSystem& fs = *sys->core;
    const uint64_t top = w.rng.Below(shape.tops);
    const std::string slot = Top(top) + "/b" + std::to_string(w.rng.Below(shape.subdirs));
    const uint64_t dice = w.rng.Below(100);
    if (dice < 50) {
      const std::string p = slot + "/c" + std::to_string(w.rng.Below(shape.files));
      auto attr = TimedCall(w, w.read, [&] { return fs.Stat(p); });
      w.tally.Note("stat", attr.status().code(), noent);
    } else if (dice < 70) {
      // Moves a whole subtree while other threads walk paths inside it.
      const std::string dst = Top((top + 1 + w.rng.Below(shape.tops - 1)) % shape.tops);
      auto st = TimedCall(w, w.update, [&] { return fs.Rename(Top(top), dst); });
      w.tally.Note("rename", st.code(), rename_ok);
    } else if (dice < 85) {
      const std::string p = slot + "/d" + std::to_string(w.rng.Below(shape.leaves));
      auto st = TimedCall(w, w.update, [&] { return fs.Mkdir(p); });
      w.tally.Note("mkdir", st.code(), noent_exist);
    } else {
      const std::string p = slot + "/d" + std::to_string(w.rng.Below(shape.leaves));
      auto st = TimedCall(w, w.update, [&] { return fs.Rmdir(p); });
      w.tally.Note("rmdir", st.code(), noent);
    }
  };
  LoopStats loop = RunClosedLoop(workers, cfg, iteration, &sys->registry);
  AddLoopMetrics(r, workers, loop);

  const atomfs::SpecFs concrete = sys->fs->SnapshotSpec();
  const bool quiescent = sys->monitor->CheckQuiescent(concrete);
  const bool monitor_ok = sys->monitor->ok();
  const auto violations = sys->monitor->violations();
  r.outcomes.Verdict("monitor", monitor_ok && quiescent,
                     violations.empty() ? "CheckQuiescent failed" : violations.front());
  r.Check("monitor ok()", monitor_ok);
  r.Check("monitor CheckQuiescent", quiescent);
  r.Check("quiesced tree is WellFormed", concrete.WellFormed());

  if (cfg.trace) {
    const auto spans = Spans::Totals();
    const SpanTotals core = SumSpans(spans, "core.");
    const SpanTotals monitor = SumSpans(spans, "crlh.monitor");
    r.Add("crlh.monitor_op_us", core.count ? monitor.total_ns / 1e3 / core.count : 0.0, "us",
          core.count, "monitor callback time per AtomFs call");
    AddCoreLayers(r, spans);
    AddLockLayers(r, loop);
    AddTracingOverhead(r, loop);
  }
  const double calls = static_cast<double>(std::max<uint64_t>(loop.measured_calls, 1));
  r.Add("crlh.invariant_checks_per_op",
        (InvariantChecks(loop.window_end) - InvariantChecks(loop.window_start)) / calls, "count",
        loop.measured_calls);
  r.Add("crlh.helped_ratio",
        CounterDelta(loop.window_start, loop.window_end, "crlh.helped_ops") / calls, "ratio",
        loop.measured_calls, "operations linearized by a helper, per call");
  return r;
}

}  // namespace perfbench
