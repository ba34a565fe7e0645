#include "perfbench/workload.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "perfbench/layers.h"

namespace perfbench {

namespace {
std::atomic<int> g_slice{-1};

// CPU time (user + system) the whole process has used, in seconds.
double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec / 1e6; };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}
}  // namespace

int CurrentSlice() { return g_slice.load(std::memory_order_relaxed); }

void Report::Add(std::string name, double value, std::string unit, uint64_t samples,
                 std::string note) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit), samples, std::move(note)});
}

const Metric* Report::Find(const std::string& name) const {
  for (const auto& m : metrics) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

bool Report::Correct() const {
  if (outcomes.failed() != 0) {
    return false;
  }
  return std::all_of(checks.begin(), checks.end(), [](const auto& c) { return c.second; });
}

Workers MakeWorkers(int n, uint64_t seed) {
  Workers workers;
  for (int i = 0; i < n; ++i) {
    workers.push_back(std::make_unique<Worker>(i, seed * 1000003 + static_cast<uint64_t>(i)));
  }
  return workers;
}

LoopStats RunClosedLoop(Workers& workers, const RunConfig& cfg,
                        const std::function<void(Worker&)>& iteration,
                        const atomfs::MetricsRegistry* registry) {
  const double warmup = std::min(1.0, cfg.seconds * 0.1);
  const double slice = cfg.seconds / kSlices;

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (auto& w : workers) {
    Worker* wp = w.get();
    threads.emplace_back([&stop, wp, &iteration] {
      while (!stop.load(std::memory_order_relaxed)) {
        iteration(*wp);
      }
    });
  }
  auto total_calls = [&] {
    uint64_t n = 0;
    for (const auto& w : workers) {
      n += w->calls.load(std::memory_order_relaxed);
    }
    return n;
  };
  auto sleep_for = [](double s) {
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
  };

  LoopStats stats;
  Spans::SetEnabled(false);
  sleep_for(warmup);
  if (registry != nullptr) {
    stats.window_start = registry->Snapshot();
  }
  const uint64_t window_calls0 = total_calls();
  const double window_cpu0 = ProcessCpuSeconds();
  for (int s = 0; s < kSlices; ++s) {
    const bool traced = cfg.trace && s % 2 == 1;
    Spans::SetEnabled(traced);
    g_slice.store(s, std::memory_order_relaxed);
    const uint64_t t0 = NowNs();
    const uint64_t c0 = total_calls();
    sleep_for(slice);
    const double rate = static_cast<double>(total_calls() - c0) / ((NowNs() - t0) / 1e9);
    (traced ? stats.traced_rates : stats.untraced_rates).push_back(rate);
  }
  g_slice.store(-1, std::memory_order_relaxed);
  Spans::SetEnabled(false);
  stats.measured_calls = total_calls() - window_calls0;
  stats.measured_cpu_s = ProcessCpuSeconds() - window_cpu0;
  if (registry != nullptr) {
    stats.window_end = registry->Snapshot();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) {
    t.join();
  }
  return stats;
}

double MedianSetupSeconds(int reps, const std::function<void()>& teardown,
                          const std::function<void()>& build) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    teardown();
    const uint64_t t0 = NowNs();
    build();
    times.push_back((NowNs() - t0) / 1e9);
  }
  return Median(times);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void AddSetupMetrics(Report& r, double setup_s, const std::string& what) {
  r.Add("setup_s", setup_s, "s", kSetupReps,
        "median of " + std::to_string(kSetupReps) + " builds: " + what);
  r.Add("setup_rss_mb", PeakRssMb(), "MB", 1, "peak resident set after the set-ups, before load");
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

void AddLatency(Report& r, const std::string& base, const LatencyHist& h) {
  const uint64_t n = h.count();
  const double tail = TailPercentile(n);
  // The p99 slot reports p99 when there are enough samples for it, else the
  // highest percentile that has ten samples beyond it (said in the note).
  const double p99 = std::min(99.0, tail);
  r.Add(base + "_p50_us", h.PercentileNs(50) / 1e3, "us", n);
  r.Add(base + "_p99_us", h.PercentileNs(p99) / 1e3, "us", n, PercentileLabel(p99));
  r.Add(base + "_tail_us", h.PercentileNs(tail) / 1e3, "us", n,
        PercentileLabel(tail) + ", highest with >=10 samples beyond");
}

void AddSlicedLatency(Report& r, const std::string& base, const SlicedHist& h) {
  std::vector<double> p50;
  std::vector<double> p99;
  LatencyHist whole;
  double lowest = 99.0;
  for (const LatencyHist& slice : h.slices) {
    if (slice.count() == 0) {
      continue;
    }
    const double p = std::min(99.0, TailPercentile(slice.count()));
    lowest = std::min(lowest, p);
    p50.push_back(slice.PercentileNs(50));
    p99.push_back(slice.PercentileNs(p));
    whole.Merge(slice);
  }
  auto list = [](const std::vector<double>& values) {
    std::string out;
    for (double v : values) {
      out += ' ';
      out += std::to_string(static_cast<uint64_t>(v / 1e3));
    }
    return out;
  };
  r.notes.push_back(base + " p50 per slice (us):" + list(p50));
  r.notes.push_back(base + " p99 per slice (us):" + list(p99));
  const uint64_t n = whole.count();
  const std::string per_slice = " per slice, median of " + std::to_string(p50.size());
  r.Add(base + "_p50_us", Median(p50) / 1e3, "us", n, "p50" + per_slice);
  r.Add(base + "_p99_us", Median(p99) / 1e3, "us", n,
        (lowest < 99.0 ? PercentileLabel(lowest) + " in some slices, else p99" : "p99") +
            per_slice);
  const double tail = TailPercentile(n);
  r.Add(base + "_tail_us", whole.PercentileNs(tail) / 1e3, "us", n,
        PercentileLabel(tail) + " of the whole window, highest with >=10 samples beyond");
}

void AddLoopMetrics(Report& r, const Workers& workers, const LoopStats& loop) {
  SlicedHist read;
  SlicedHist update;
  for (const auto& w : workers) {
    read.Merge(w->read);
    update.Merge(w->update);
    r.outcomes.Merge(w->tally);
  }
  std::string slices;
  for (double rate : loop.untraced_rates) {
    slices += ' ';
    slices += std::to_string(static_cast<uint64_t>(rate));
  }
  r.Add("ops_per_s", Median(loop.untraced_rates), "1/s", loop.untraced_rates.size(),
        "median of untraced slices; calls in window: " + std::to_string(loop.measured_calls));
  r.notes.push_back("untraced slice rates (calls/s):" + slices);
  AddSlicedLatency(r, "read", read);
  AddSlicedLatency(r, "update", update);
  r.Add("cpu_us_per_op", loop.measured_calls ? loop.measured_cpu_s * 1e6 / loop.measured_calls : 0.0,
        "us", loop.measured_calls, "process CPU time (user + system) per call in the window");
}

void AddLockLayers(Report& r, const LoopStats& loop) {
  for (const char* what : {"hold", "step"}) {
    const auto h = HistogramDelta(loop.window_start, loop.window_end, "lock.depth",
                                  std::string(".") + what + "_ns");
    r.Add(std::string("core.lock.") + what + "_ns", h.second > 0 ? h.first / h.second : 0.0,
          "ns", static_cast<uint64_t>(h.second), "mean over every lock-coupling depth");
  }
}

void AddTracingOverhead(Report& r, const LoopStats& loop) {
  const double off = Median(loop.untraced_rates);
  const double on = Median(loop.traced_rates);
  r.Add("obs.tracing_overhead_pct", off > 0 ? (off - on) / off * 100.0 : 0.0, "%",
        loop.untraced_rates.size() + loop.traced_rates.size(),
        "paired untraced/traced slices of one run");
}

uint64_t CounterDelta(const atomfs::MetricsSnapshot& a, const atomfs::MetricsSnapshot& b,
                      const std::string& name) {
  return b.CounterValue(name) - a.CounterValue(name);
}

std::pair<double, double> HistogramDelta(const atomfs::MetricsSnapshot& a,
                                         const atomfs::MetricsSnapshot& b,
                                         const std::string& prefix, const std::string& suffix) {
  auto sum_of = [&](const atomfs::MetricsSnapshot& s) {
    std::pair<double, double> out{0, 0};
    for (const auto& h : s.histograms) {
      const bool match = h.name.size() >= prefix.size() + suffix.size() &&
                         h.name.compare(0, prefix.size(), prefix) == 0 &&
                         h.name.compare(h.name.size() - suffix.size(), suffix.size(), suffix) == 0;
      if (match) {
        out.first += static_cast<double>(h.sum);
        out.second += static_cast<double>(h.count);
      }
    }
    return out;
  };
  const auto sa = sum_of(a);
  const auto sb = sum_of(b);
  return {sb.first - sa.first, sb.second - sa.second};
}

SpanTotals SumSpans(const std::map<std::string, SpanTotals>& spans, const std::string& prefix) {
  SpanTotals out;
  for (const auto& [name, t] : spans) {
    if (name.compare(0, prefix.size(), prefix) == 0) {
      out.count += t.count;
      out.total_ns += t.total_ns;
      out.self_ns += t.self_ns;
    }
  }
  return out;
}

namespace {

// core.<kind> spans summed over read (or update) kinds.
SpanTotals CoreSpans(const std::map<std::string, SpanTotals>& spans, bool read_kinds) {
  static const KindNames core("core");
  SpanTotals sum;
  for (size_t k = 0; k < kOpKinds; ++k) {
    const auto kind = static_cast<atomfs::OpKind>(k);
    if (IsReadKind(kind) != read_kinds) {
      continue;
    }
    auto it = spans.find(core[kind]);
    if (it != spans.end()) {
      sum.count += it->second.count;
      sum.total_ns += it->second.total_ns;
      sum.self_ns += it->second.self_ns;
    }
  }
  return sum;
}

}  // namespace

void AddCoreLayers(Report& r, const std::map<std::string, SpanTotals>& spans) {
  const SpanTotals read = CoreSpans(spans, true);
  const SpanTotals update = CoreSpans(spans, false);
  r.Add("core.read_us", read.MeanSelfUs(), "us", read.count, "self time of stat/readdir/read");
  r.Add("core.update_us", update.MeanSelfUs(), "us", update.count, "self time of mutations");
}

std::byte PatternByte(uint64_t offset) {
  return static_cast<std::byte>((offset * 131 + (offset >> 8) + 7) & 0xff);
}

std::span<const std::byte> PatternAt(uint64_t offset, size_t len) {
  static const std::vector<std::byte> pattern = [] {
    std::vector<std::byte> p(kPatternSpan);
    for (uint64_t i = 0; i < kPatternSpan; ++i) {
      p[i] = PatternByte(i);
    }
    return p;
  }();
  return std::span<const std::byte>(pattern).subspan(offset, len);
}

bool MatchesPattern(std::span<const std::byte> data, uint64_t offset) {
  for (size_t i = 0; i < data.size(); ++i) {
    if (data[i] != PatternByte(offset + i)) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
