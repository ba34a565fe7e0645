#include "perfbench/measure.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// --- latency histogram -------------------------------------------------------

namespace {
constexpr int kSubBits = 7;
constexpr uint64_t kSub = uint64_t{1} << kSubBits;  // sub-buckets per octave
constexpr int kMaxOctave = 44;                       // ~4.9 hours in ns
constexpr size_t kBuckets = static_cast<size_t>(kMaxOctave - kSubBits + 2) * kSub;
}  // namespace

LatencyHist::LatencyHist() : buckets_(kBuckets, 0) {}

size_t LatencyHist::BucketOf(uint64_t ns) {
  if (ns < kSub) {
    return static_cast<size_t>(ns);
  }
  int octave = 63 - __builtin_clzll(ns);
  if (octave > kMaxOctave) {
    return kBuckets - 1;
  }
  const uint64_t sub = (ns >> (octave - kSubBits)) & (kSub - 1);
  return static_cast<size_t>(octave - kSubBits + 1) * kSub + sub;
}

uint64_t LatencyHist::BucketLower(size_t index) {
  if (index < kSub) {
    return index;
  }
  const int octave = static_cast<int>(index / kSub) + kSubBits - 1;
  return (kSub + index % kSub) << (octave - kSubBits);
}

uint64_t LatencyHist::BucketWidth(size_t index) {
  if (index < kSub) {
    return 1;
  }
  const int octave = static_cast<int>(index / kSub) + kSubBits - 1;
  return uint64_t{1} << (octave - kSubBits);
}

void LatencyHist::Record(uint64_t ns) {
  ++buckets_[BucketOf(ns)];
  ++count_;
}

void LatencyHist::Merge(const LatencyHist& other) {
  for (size_t i = 0; i < kBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LatencyHist::PercentileNs(double p) const {
  if (count_ == 0) {
    return 0.0;
  }
  // Rank in [0, count): the sample below which p% of the samples fall.
  const double rank = std::clamp(p / 100.0, 0.0, 1.0) * static_cast<double>(count_ - 1);
  uint64_t before = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    const uint64_t c = buckets_[i];
    if (c == 0) {
      continue;
    }
    if (rank < static_cast<double>(before + c)) {
      // Spread the bucket's samples evenly over its width.
      const double frac = (rank - static_cast<double>(before) + 0.5) / static_cast<double>(c);
      return static_cast<double>(BucketLower(i)) + frac * static_cast<double>(BucketWidth(i));
    }
    before += c;
  }
  return static_cast<double>(BucketLower(kBuckets - 1));
}

double TailPercentile(uint64_t n) {
  // Percentiles in parts per 100000, highest first.
  static constexpr uint64_t kLadder[] = {99999, 99990, 99900, 99000, 90000, 50000};
  for (uint64_t ppk : kLadder) {
    const uint64_t rank = (n * ppk + 99999) / 100000;  // nearest rank, 1-based
    if (n >= rank + 10) {
      return static_cast<double>(ppk) / 1000.0;
    }
  }
  return 0.0;
}

std::string PercentileLabel(double p) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "p%g", p);
  return buf;
}

// --- spans -------------------------------------------------------------------

void SpanThread::Begin(const char* name, uint64_t now_ns) {
  Open open;
  open.span.name = name;
  open.span.start_ns = now_ns;
  open.span.id = (static_cast<uint64_t>(thread_) << 40) | next_seq_++;
  open.span.parent = stack_.empty() ? 0 : stack_.back().span.id;
  open.span.thread = thread_;
  stack_.push_back(open);
}

void SpanThread::End(uint64_t now_ns) {
  if (stack_.empty()) {
    return;
  }
  Open open = stack_.back();
  stack_.pop_back();
  open.span.end_ns = std::max(now_ns, open.span.start_ns);
  const uint64_t dur = open.span.end_ns - open.span.start_ns;
  SpanTotals& t = totals_[open.span.name];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur - std::min(dur, open.child_ns);
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
  }
  if (sample_.size() < kSampleCap) {
    sample_.push_back(open.span);
  }
}

std::atomic<bool> Spans::enabled_{false};

namespace {
std::mutex g_threads_mu;
std::vector<std::unique_ptr<SpanThread>>& AllThreads() {
  static auto* threads = new std::vector<std::unique_ptr<SpanThread>>();
  return *threads;
}
}  // namespace

SpanThread& Spans::Current() {
  thread_local SpanThread* mine = nullptr;
  if (mine == nullptr) {
    std::lock_guard<std::mutex> lk(g_threads_mu);
    auto& all = AllThreads();
    all.push_back(std::make_unique<SpanThread>(static_cast<uint32_t>(all.size() + 1)));
    mine = all.back().get();
  }
  return *mine;
}

std::map<std::string, SpanTotals> Spans::Totals() {
  std::lock_guard<std::mutex> lk(g_threads_mu);
  std::map<std::string, SpanTotals> out;
  for (const auto& t : AllThreads()) {
    for (const auto& [name, totals] : t->totals()) {
      SpanTotals& o = out[name];
      o.count += totals.count;
      o.total_ns += totals.total_ns;
      o.self_ns += totals.self_ns;
    }
  }
  return out;
}

bool Spans::WriteChromeTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lk(g_threads_mu);
  uint64_t origin = UINT64_MAX;
  for (const auto& t : AllThreads()) {
    for (const Span& s : t->sample()) {
      origin = std::min(origin, s.start_ns);
    }
  }
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (const auto& t : AllThreads()) {
    for (const Span& s : t->sample()) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu}}",
                   first ? "" : ",", s.name, s.thread, (s.start_ns - origin) / 1e3,
                   (s.end_ns - s.start_ns) / 1e3, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// --- outcome classification ----------------------------------------------------

Outcome Classify(atomfs::Errc code, Allowed allowed) {
  using atomfs::Errc;
  switch (code) {
    case Errc::kOk:
      return Outcome::kOk;
    case Errc::kNoEnt:
      return allowed.noent ? Outcome::kExpectedRace : Outcome::kFailed;
    case Errc::kExist:
      return allowed.exist ? Outcome::kExpectedRace : Outcome::kFailed;
    case Errc::kNotEmpty:
      return allowed.notempty ? Outcome::kExpectedRace : Outcome::kFailed;
    case Errc::kTxConflict:
      return allowed.conflict ? Outcome::kExpectedRace : Outcome::kFailed;
    default:
      return Outcome::kFailed;
  }
}

Outcome OutcomeTally::Note(const char* call, atomfs::Errc code, Allowed allowed) {
  ++attempted_;
  const Outcome o = Classify(code, allowed);
  if (o == Outcome::kExpectedRace) {
    ++expected_;
    ++races_[std::string(call) + " " + std::string(atomfs::ErrcName(code))];
  } else if (o == Outcome::kFailed) {
    Fail(call, std::string(atomfs::ErrcName(code)));
  }
  return o;
}

void OutcomeTally::Fail(const char* call, const std::string& what) {
  ++failed_;
  ++failures_[std::string(call) + " " + what];
  if (first_failures_.size() < 8) {
    first_failures_.push_back(std::string(call) + ": " + what);
  }
}

void OutcomeTally::Verdict(const char* what, bool ok, const std::string& detail) {
  ++attempted_;
  if (!ok) {
    Fail(what, detail);
  }
}

void OutcomeTally::Merge(const OutcomeTally& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  expected_ += other.expected_;
  for (const auto& [k, v] : other.races_) {
    races_[k] += v;
  }
  for (const auto& [k, v] : other.failures_) {
    failures_[k] += v;
  }
  for (const auto& f : other.first_failures_) {
    if (first_failures_.size() < 8) {
      first_failures_.push_back(f);
    }
  }
}

}  // namespace perfbench
