// Self-tests of the benchmark's own logic: the percentile rule, self-time
// subtraction, failure classification, the metric lists against
// BENCHMARK.json, and a tiny run of every workload with its output checks.

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "perfbench/measure.h"
#include "perfbench/metrics.h"
#include "perfbench/workload.h"

namespace perfbench {
namespace {

using atomfs::Errc;

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(0), 0.0);
  EXPECT_EQ(TailPercentile(19), 0.0);  // median rank 10 leaves 9 beyond
  EXPECT_EQ(TailPercentile(20), 50.0);
  EXPECT_EQ(TailPercentile(99), 50.0);
  EXPECT_EQ(TailPercentile(100), 90.0);  // rank 90 leaves exactly 10
  EXPECT_EQ(TailPercentile(999), 90.0);
  EXPECT_EQ(TailPercentile(1000), 99.0);
  EXPECT_EQ(TailPercentile(9999), 99.0);
  EXPECT_EQ(TailPercentile(10000), 99.9);
  EXPECT_EQ(TailPercentile(100000), 99.99);
  EXPECT_EQ(TailPercentile(1000000), 99.999);
  EXPECT_EQ(PercentileLabel(99.9), "p99.9");
}

TEST(LatencyHist, BucketsCoverEveryValue) {
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 129ull, 1000ull, 65535ull, 123456789ull}) {
    const size_t b = LatencyHist::BucketOf(v);
    EXPECT_LE(LatencyHist::BucketLower(b), v) << v;
    EXPECT_LT(v, LatencyHist::BucketLower(b) + LatencyHist::BucketWidth(b)) << v;
  }
}

TEST(LatencyHist, PercentilesOfUniformSamples) {
  LatencyHist h;
  for (uint64_t v = 1; v <= 100000; ++v) {
    h.Record(v * 10);
  }
  EXPECT_EQ(h.count(), 100000u);
  EXPECT_NEAR(h.PercentileNs(50), 500000.0, 500000.0 * 0.01);
  EXPECT_NEAR(h.PercentileNs(99), 990000.0, 990000.0 * 0.01);
  LatencyHist merged;
  merged.Merge(h);
  merged.Merge(h);
  EXPECT_EQ(merged.count(), 200000u);
  EXPECT_NEAR(merged.PercentileNs(50), h.PercentileNs(50), 1e-9);
}

TEST(SelfTime, ChildrenAreSubtractedFromTheirParentOnly) {
  SpanThread t(7);
  t.Begin("a", 0);
  t.Begin("b", 10);
  t.Begin("d", 12);
  t.End(18);  // d: 6
  t.End(30);  // b: 20, self 14
  t.Begin("c", 40);
  t.End(45);  // c: 5
  t.End(100);  // a: 100, self 100 - 20 - 5
  const auto& totals = t.totals();
  auto get = [&](const char* name) {
    for (const auto& [n, v] : totals) {
      if (std::string(n) == name) {
        return v;
      }
    }
    return SpanTotals{};
  };
  EXPECT_EQ(get("a").total_ns, 100u);
  EXPECT_EQ(get("a").self_ns, 75u);
  EXPECT_EQ(get("b").total_ns, 20u);
  EXPECT_EQ(get("b").self_ns, 14u);
  EXPECT_EQ(get("d").self_ns, 6u);
  EXPECT_EQ(get("c").self_ns, 5u);
  // Parent links: d's parent is b, b's and c's parent is a, a is a root.
  const auto& sample = t.sample();
  ASSERT_EQ(sample.size(), 4u);  // in end order: d, b, c, a
  EXPECT_EQ(sample[0].parent, sample[1].id);
  EXPECT_EQ(sample[1].parent, sample[3].id);
  EXPECT_EQ(sample[2].parent, sample[3].id);
  EXPECT_EQ(sample[3].parent, 0u);
  EXPECT_EQ(sample[3].thread, 7u);
}

TEST(Classification, OnlyAllowedRacesAreNotFailures) {
  const Allowed noent{.noent = true};
  const Allowed all{.noent = true, .exist = true, .notempty = true, .conflict = true};
  EXPECT_EQ(Classify(Errc::kOk, Allowed{}), Outcome::kOk);
  EXPECT_EQ(Classify(Errc::kNoEnt, noent), Outcome::kExpectedRace);
  EXPECT_EQ(Classify(Errc::kNoEnt, Allowed{}), Outcome::kFailed);
  EXPECT_EQ(Classify(Errc::kExist, noent), Outcome::kFailed);
  EXPECT_EQ(Classify(Errc::kTxConflict, all), Outcome::kExpectedRace);
  EXPECT_EQ(Classify(Errc::kNotEmpty, all), Outcome::kExpectedRace);
  // Refused, timed-out and broken calls fail whatever the mix allows.
  for (Errc e : {Errc::kIo, Errc::kProto, Errc::kTimedOut, Errc::kBackpressure, Errc::kInval,
                 Errc::kNoSpace}) {
    EXPECT_EQ(Classify(e, all), Outcome::kFailed) << atomfs::ErrcName(e);
  }
}

TEST(Classification, TallyCountsRacesFailuresAndVerdicts) {
  OutcomeTally t;
  EXPECT_EQ(t.Note("stat", Errc::kNoEnt, Allowed{.noent = true}), Outcome::kExpectedRace);
  EXPECT_EQ(t.Note("stat", Errc::kOk, Allowed{}), Outcome::kOk);
  EXPECT_EQ(t.Note("read", Errc::kIo, Allowed{.noent = true}), Outcome::kFailed);
  t.Fail("read", "bytes differ");
  t.Verdict("explore", true, "");
  t.Verdict("monitor", false, "violation");
  EXPECT_EQ(t.attempted(), 5u);
  EXPECT_EQ(t.expected(), 1u);
  EXPECT_EQ(t.failed(), 3u);
  EXPECT_EQ(t.races().at("stat ENOENT"), 1u);
  EXPECT_EQ(t.failures().at("read EIO"), 1u);
  OutcomeTally sum;
  sum.Merge(t);
  sum.Merge(t);
  EXPECT_EQ(sum.failed(), 6u);
}

TEST(Report, AnyFailureOrFailedCheckMakesTheRunIncorrect) {
  Report ok;
  ok.Check("fine", true);
  EXPECT_TRUE(ok.Correct());
  Report bad_check;
  bad_check.Check("tree WellFormed", false);
  EXPECT_FALSE(bad_check.Correct());
  Report failed_call;
  failed_call.outcomes.Note("read", Errc::kProto, Allowed{});
  EXPECT_FALSE(failed_call.Correct());
}

TEST(Pattern, ReadsAreCheckedAgainstTheirOffset) {
  const auto bytes = PatternAt(4096, 512);
  EXPECT_TRUE(MatchesPattern(bytes, 4096));
  EXPECT_FALSE(MatchesPattern(bytes, 4097));
  EXPECT_FALSE(MatchesPattern(bytes, 4096 + 256));
}

TEST(MetricLists, MatchBenchmarkJson) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in.good()) << PERFBENCH_BENCHMARK_JSON;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  auto declared = [&](const MetricName& m) {
    return json.find("\"name\": \"" + std::string(m.name) + "\", \"unit\": \"" + m.unit + "\"") !=
           std::string::npos;
  };
  for (const auto& m : kEndToEnd) {
    EXPECT_TRUE(declared(m)) << m.name;
  }
  for (const auto& m : kPerLayer) {
    EXPECT_TRUE(declared(m)) << m.name;
  }
  for (const char* w : {"fileserver-wire", "webproxy-local", "mail-durable", "verify"}) {
    EXPECT_NE(json.find(std::string("\"name\": \"") + w + "\""), std::string::npos) << w;
  }
}

// A tiny traced run of every workload: its output checks must pass and
// every declared metric must be produced.
class SmokeRun : public ::testing::TestWithParam<const char*> {};

TEST_P(SmokeRun, PassesItsOutputChecks) {
  RunConfig cfg;
  cfg.workload = GetParam();
  cfg.seed = 3;
  cfg.seconds = 0.5;
  cfg.trace = true;
  cfg.smoke = true;
  cfg.work_dir = std::string(PERFBENCH_TEST_DIR) + "/" + cfg.workload;
  std::filesystem::remove_all(cfg.work_dir);
  std::filesystem::create_directories(cfg.work_dir);
  Report r;
  if (cfg.workload == "fileserver-wire") {
    r = RunFileserverWire(cfg);
  } else if (cfg.workload == "webproxy-local") {
    r = RunWebproxyLocal(cfg);
  } else if (cfg.workload == "mail-durable") {
    r = RunMailDurable(cfg);
  } else {
    r = RunVerify(cfg);
  }
  std::filesystem::remove_all(cfg.work_dir);
  for (const auto& [what, ok] : r.checks) {
    EXPECT_TRUE(ok) << what;
  }
  for (const auto& f : r.outcomes.first_failures()) {
    ADD_FAILURE() << f;
  }
  EXPECT_TRUE(r.Correct());
  EXPECT_GT(r.outcomes.attempted(), 0u);
  for (const auto& m : kEndToEnd) {
    const Metric* got = r.Find(m.name);
    ASSERT_NE(got, nullptr) << m.name;
    EXPECT_GT(got->value, 0) << m.name;
  }
  for (const char* reported : {"ops_per_s", "read_p50_us", "read_p99_us", "update_p50_us",
                                "update_p99_us"}) {
    const Metric* got = r.Find(reported);
    ASSERT_NE(got, nullptr) << reported;
    EXPECT_GT(got->value, 0) << reported;
  }
  EXPECT_NE(r.Find("obs.tracing_overhead_pct"), nullptr);
  EXPECT_NE(r.Find("core.update_us"), nullptr);
}

INSTANTIATE_TEST_SUITE_P(Workloads, SmokeRun,
                         ::testing::Values("fileserver-wire", "webproxy-local", "mail-durable",
                                           "verify"),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::erase(name, '-');
                           return name;
                         });

}  // namespace
}  // namespace perfbench
