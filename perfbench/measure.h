// Measurement primitives of the atomfs benchmark: latency histograms with
// the "highest percentile that still has ten samples beyond it" rule,
// in-memory spans with self-time accounting, and the classification of
// every call's outcome into success, expected race, or real failure.
//
// Nothing here touches src/: the spans are recorded by the benchmark's own
// code around its calls into each layer (see layers.h).

#ifndef ATOMFS_PERFBENCH_MEASURE_H_
#define ATOMFS_PERFBENCH_MEASURE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace perfbench {

// Monotonic nanoseconds (steady_clock).
uint64_t NowNs();

// --- latency histogram -------------------------------------------------------

// Log-linear histogram: exact below 128 ns, then 128 sub-buckets per power
// of two (under 0.8% relative width). Fixed memory, so recording a sample
// never allocates and the benchmark's own footprint does not grow with
// throughput. Percentiles interpolate linearly inside the bucket, so a
// reported value moves continuously with the data.
class LatencyHist {
 public:
  LatencyHist();
  void Record(uint64_t ns);
  void Merge(const LatencyHist& other);
  uint64_t count() const { return count_; }
  // p in [0, 100]; 0 when empty.
  double PercentileNs(double p) const;

  static size_t BucketOf(uint64_t ns);
  static uint64_t BucketLower(size_t index);
  static uint64_t BucketWidth(size_t index);

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

// The highest percentile of the ladder {50, 90, 99, 99.9, 99.99, 99.999}
// with at least ten of `n` samples strictly beyond its nearest-rank
// position; 0 when even the median has fewer than ten beyond it.
double TailPercentile(uint64_t n);

// "p99.9"-style label of a percentile.
std::string PercentileLabel(double p);

// --- spans -------------------------------------------------------------------

// One recorded interval. `name` must have static storage duration.
struct Span {
  const char* name = nullptr;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 for a root span
  uint32_t thread = 0;
};

struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;  // total minus the time covered by child spans

  double MeanUs() const { return count ? total_ns / 1e3 / count : 0.0; }
  double MeanSelfUs() const { return count ? self_ns / 1e3 / count : 0.0; }
};

// Per-thread span stack. Spans nest strictly on one thread, so a span's
// children never overlap each other and self time is its duration minus
// the sum of its children's durations. Begin/End take explicit timestamps
// so the accounting is testable; ScopedSpan supplies the clock.
class SpanThread {
 public:
  explicit SpanThread(uint32_t thread) : thread_(thread) {}

  void Begin(const char* name, uint64_t now_ns);
  void End(uint64_t now_ns);

  const std::map<const char*, SpanTotals>& totals() const { return totals_; }
  const std::vector<Span>& sample() const { return sample_; }

  // Raw spans kept per thread for the exported trace; aggregation covers
  // every span regardless.
  static constexpr size_t kSampleCap = 4000;

 private:
  struct Open {
    Span span;
    uint64_t child_ns = 0;
  };
  uint32_t thread_;
  uint64_t next_seq_ = 1;
  std::vector<Open> stack_;
  std::map<const char*, SpanTotals> totals_;
  std::vector<Span> sample_;
};

// Process-wide span switch and registry of per-thread recorders (recorders
// outlive their threads, so server worker threads can be joined before the
// totals are read).
class Spans {
 public:
  static void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  // The calling thread's recorder (created on first use).
  static SpanThread& Current();
  // Sum over every thread.
  static std::map<std::string, SpanTotals> Totals();
  // Writes every thread's sampled spans as Chrome trace-event JSON.
  static bool WriteChromeTrace(const std::string& path);

 private:
  static std::atomic<bool> enabled_;
};

// RAII span; records nothing when spans are disabled at construction.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : on_(Spans::enabled()) {
    if (on_) {
      Spans::Current().Begin(name, NowNs());
    }
  }
  ~ScopedSpan() {
    if (on_) {
      Spans::Current().End(NowNs());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool on_;
};

// --- outcome classification ----------------------------------------------------

enum class Outcome : uint8_t {
  kOk,
  kExpectedRace,  // a status the mix allows: another worker got there first
  kFailed,        // anything else: a real failure and a failed output check
};

// The error codes a call of the mix may return besides OK. ENOENT / EEXIST
// / ENOTEMPTY / ETXCONFLICT are the only codes a mix may allow: transport
// and protocol errors (EIO, EPROTO, ETIMEDOUT, EBACKPRESSURE) are always
// failures, whatever the mix says.
struct Allowed {
  bool noent = false;
  bool exist = false;
  bool notempty = false;
  bool conflict = false;
};

Outcome Classify(atomfs::Errc code, Allowed allowed);

// Counts outcomes by (call name, status name); keeps the first few failure
// descriptions for the report.
class OutcomeTally {
 public:
  // Classifies and counts one call; returns the outcome.
  Outcome Note(const char* call, atomfs::Errc code, Allowed allowed);
  // A failure of an already counted call that its status does not show
  // (bytes that do not match what was written).
  void Fail(const char* call, const std::string& what);
  // One attempted check that is not a call (a monitor verdict, an explorer
  // verdict): counted as attempted, and as failed unless `ok`.
  void Verdict(const char* what, bool ok, const std::string& detail);
  void Merge(const OutcomeTally& other);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t expected() const { return expected_; }
  // "call status" -> count, for expected races and for failures.
  const std::map<std::string, uint64_t>& races() const { return races_; }
  const std::map<std::string, uint64_t>& failures() const { return failures_; }
  const std::vector<std::string>& first_failures() const { return first_failures_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t expected_ = 0;
  std::map<std::string, uint64_t> races_;
  std::map<std::string, uint64_t> failures_;
  std::vector<std::string> first_failures_;
};

}  // namespace perfbench

#endif  // ATOMFS_PERFBENCH_MEASURE_H_
