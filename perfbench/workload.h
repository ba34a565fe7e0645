// The benchmark's workloads and the closed-loop runner they share.
//
// Every workload is a closed loop: each of its generator threads issues one
// call, waits for the reply, and only then issues the next, like a process
// blocked in a file-system call. A run is a warm-up followed by ten equal
// slices. Untraced runs keep spans off throughout; traced runs alternate
// untraced and traced slices, so the tracing overhead is measured on paired
// slices of one run instead of across two runs.

#ifndef ATOMFS_PERFBENCH_WORKLOAD_H_
#define ATOMFS_PERFBENCH_WORKLOAD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/measure.h"
#include "src/obs/metrics.h"
#include "src/util/rand.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Directory (inside the checkout) for sockets, journals and traces.
  std::string work_dir;
  // Shrinks every namespace to a few dozen entries (self-tests only).
  bool smoke = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // samples behind the value; 0 when not sampled
  std::string note;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // namespace sizes, mix shares, ...
  std::vector<std::pair<std::string, bool>> checks;
  OutcomeTally outcomes;

  void Add(std::string name, double value, std::string unit, uint64_t samples = 0,
           std::string note = "");
  void Check(std::string what, bool ok) { checks.emplace_back(std::move(what), ok); }
  const Metric* Find(const std::string& name) const;
  bool Correct() const;
};

// Runs are a warm-up followed by kSlices equal slices.
inline constexpr int kSlices = 10;

// The measured-window slice workers are in; -1 during warm-up and after.
int CurrentSlice();
inline bool Measuring() { return CurrentSlice() >= 0; }

// One latency histogram per slice of the measured window.
struct SlicedHist {
  SlicedHist() : slices(kSlices) {}
  void Record(uint64_t ns) {
    const int s = CurrentSlice();
    if (s >= 0) {
      slices[static_cast<size_t>(s)].Record(ns);
    }
  }
  void Merge(const SlicedHist& other) {
    for (size_t i = 0; i < slices.size(); ++i) {
      slices[i].Merge(other.slices[i]);
    }
  }
  std::vector<LatencyHist> slices;
};

// One generator thread's state.
struct Worker {
  Worker(int index, uint64_t seed) : idx(index), rng(seed) {}
  int idx;
  atomfs::Rng rng;
  SlicedHist read;     // stat / readdir / read calls
  SlicedHist update;   // every other call
  LatencyHist commit;  // TXBEGIN -> TXCOMMIT, whole transactions, whole window
  OutcomeTally tally;
  alignas(64) std::atomic<uint64_t> calls{0};
};

using Workers = std::vector<std::unique_ptr<Worker>>;
Workers MakeWorkers(int n, uint64_t seed);

// Times one call into `hist` (inside the measured window) and counts it.
template <typename Hist, typename Fn>
auto TimedCall(Worker& w, Hist& hist, Fn&& fn) {
  const uint64_t t0 = NowNs();
  auto result = fn();
  if (Measuring()) {
    hist.Record(NowNs() - t0);
  }
  w.calls.fetch_add(1, std::memory_order_relaxed);
  return result;
}

struct LoopStats {
  uint64_t measured_calls = 0;
  double measured_cpu_s = 0;  // process CPU time over the window
  std::vector<double> untraced_rates;  // calls/s per untraced slice
  std::vector<double> traced_rates;    // calls/s per traced slice
  // `registry` snapshots at the start and end of the measured window.
  atomfs::MetricsSnapshot window_start;
  atomfs::MetricsSnapshot window_end;
};

// Runs `iteration` on every worker, each on its own thread, until the run
// ends; returns once every worker thread has been joined.
LoopStats RunClosedLoop(Workers& workers, const RunConfig& cfg,
                        const std::function<void(Worker&)>& iteration,
                        const atomfs::MetricsRegistry* registry = nullptr);

// Set-ups timed per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

// Median of `reps` timed calls of `build`; `teardown` (untimed) runs before
// each, so every build starts from nothing.
double MedianSetupSeconds(int reps, const std::function<void()>& teardown,
                          const std::function<void()>& build);

double Median(std::vector<double> v);

// Peak resident set of the process so far (getrusage ru_maxrss), in MB.
double PeakRssMb();

// setup_s (median of the timed set-ups of `what`) and setup_rss_mb (the
// peak resident set once they are done, before any load): the footprint of
// the populated system, which unlike the whole run's peak does not depend on
// how many calls the run got through.
void AddSetupMetrics(Report& r, double setup_s, const std::string& what);

// Adds <base>_p50_us, <base>_p99_us and <base>_tail_us (the highest
// percentile with ten samples beyond it) for one latency class, over the
// whole window.
void AddLatency(Report& r, const std::string& base, const LatencyHist& h);
// The same from per-slice histograms: p50 and p99 are each the median over
// slices of that slice's value (a slice with fewer than 1,000 samples
// contributes the highest percentile with ten samples beyond it instead of
// its p99), so one disturbed second of a run moves them little; the tail is
// taken over the whole window.
void AddSlicedLatency(Report& r, const std::string& base, const SlicedHist& h);
// ops_per_s, read_*, update_* and the outcome summary, from the workers.
void AddLoopMetrics(Report& r, const Workers& workers, const LoopStats& loop);
// core.lock.hold_ns / core.lock.step_ns: the TracingObserver's per-depth
// lock-coupling histograms, merged over depths, as means over the window.
void AddLockLayers(Report& r, const LoopStats& loop);
// obs.tracing_overhead_pct from paired slices.
void AddTracingOverhead(Report& r, const LoopStats& loop);

// Registry deltas over the measured window.
uint64_t CounterDelta(const atomfs::MetricsSnapshot& a, const atomfs::MetricsSnapshot& b,
                      const std::string& name);
// (sum delta, count delta) of one histogram, or of every histogram whose
// name starts with `prefix` and ends with `suffix`.
std::pair<double, double> HistogramDelta(const atomfs::MetricsSnapshot& a,
                                         const atomfs::MetricsSnapshot& b,
                                         const std::string& prefix,
                                         const std::string& suffix = "");

// Span-derived helpers: (count, total ns, self ns) summed over every span
// whose name starts with `prefix`.
SpanTotals SumSpans(const std::map<std::string, SpanTotals>& spans, const std::string& prefix);
// core.read_us / core.update_us: mean self time of AtomFs calls, i.e. the
// time inside AtomFs minus any monitor callbacks timed under it.
void AddCoreLayers(Report& r, const std::map<std::string, SpanTotals>& spans);

// File contents: the byte at file offset o is a fixed function of o, so a
// read of any concurrent mix of writes and appends is checkable.
std::byte PatternByte(uint64_t offset);
// Workloads keep every file below this size, so their writes are views.
inline constexpr uint64_t kPatternSpan = 1u << 20;
// The pattern bytes [offset, offset + len); offset + len <= kPatternSpan.
std::span<const std::byte> PatternAt(uint64_t offset, size_t len);
// True when every byte matches the pattern at its offset.
bool MatchesPattern(std::span<const std::byte> data, uint64_t offset);

// The workloads.
Report RunFileserverWire(const RunConfig& cfg);
Report RunWebproxyLocal(const RunConfig& cfg);
Report RunMailDurable(const RunConfig& cfg);
Report RunVerify(const RunConfig& cfg);

}  // namespace perfbench

#endif  // ATOMFS_PERFBENCH_WORKLOAD_H_
