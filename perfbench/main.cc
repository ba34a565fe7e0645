// atomfs_perfbench: runs one workload of the repository benchmark and prints
// its report, ending with one JSON result line.
//
//   atomfs_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--out-dir DIR] [--source-id ID]
//
// Workloads: fileserver-wire, webproxy-local, mail-durable, verify (see
// perfbench/README.md). The result line carries every end-to-end metric of
// perfbench/metrics.h with --trace 0 and every per-layer metric with
// --trace 1. The exit code is 0 only when every output check passed.

#include <cpuid.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "perfbench/measure.h"
#include "perfbench/metrics.h"
#include "perfbench/workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Host {
  long nproc = 0;
  std::string cpu;
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string source_id;
  double calibration_s = 0;
};

// A fixed amount of pure integer work; its wall time tells how fast this
// host ran during the run (the same loop varies by tens of percent between
// runs on a shared VM).
double CalibrationSeconds() {
  const uint64_t t0 = NowNs();
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 100'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  asm volatile("" : : "r"(x));
  return (NowNs() - t0) / 1e9;
}

// The CPU brand string, from CPUID (no file outside the checkout is read).
std::string CpuModel() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) {
    return "unknown";
  }
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  }
  std::string brand(reinterpret_cast<const char*>(regs), sizeof regs);
  brand.resize(std::strlen(brand.c_str()));
  const auto first = brand.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : brand.substr(first);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: atomfs_perfbench --workload fileserver-wire|webproxy-local|"
               "mail-durable|verify --seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--source-id ID]\n");
  return 2;
}

}  // namespace

int Main(int argc, char** argv) {
  RunConfig cfg;
  std::string out_dir = ".bench_build/perfbench";
  Host host;
  host.source_id = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    auto arg = [&](const char* name) { return std::strcmp(argv[i], name) == 0 && i + 1 < argc; };
    if (arg("--workload")) {
      cfg.workload = argv[++i];
    } else if (arg("--seed")) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg("--seconds")) {
      cfg.seconds = std::atof(argv[++i]);
    } else if (arg("--trace")) {
      cfg.trace = std::atoi(argv[++i]) != 0;
    } else if (arg("--out-dir")) {
      out_dir = argv[++i];
    } else if (arg("--source-id")) {
      host.source_id = argv[++i];
    } else {
      return Usage();
    }
  }
  Report (*run)(const RunConfig&) = nullptr;
  if (cfg.workload == "fileserver-wire") {
    run = RunFileserverWire;
  } else if (cfg.workload == "webproxy-local") {
    run = RunWebproxyLocal;
  } else if (cfg.workload == "mail-durable") {
    run = RunMailDurable;
  } else if (cfg.workload == "verify") {
    run = RunVerify;
  }
  if (run == nullptr || !have_seed || !(cfg.seconds > 0)) {
    return Usage();
  }

  namespace fs = std::filesystem;
  std::error_code ec;
  cfg.work_dir = out_dir + "/run-" + std::to_string(getpid());
  fs::remove_all(cfg.work_dir, ec);
  fs::create_directories(cfg.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "atomfs_perfbench: cannot create %s\n", cfg.work_dir.c_str());
    return 1;
  }

  host.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  host.cpu = CpuModel();
  host.calibration_s = CalibrationSeconds();
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds, cfg.trace ? 1 : 0);
  std::printf("# host nproc=%ld cpu=\"%s\" build=%s source=%s calibration_s=%.4f\n", host.nproc,
              host.cpu.c_str(), host.build_type.c_str(), host.source_id.c_str(),
              host.calibration_s);
  std::fflush(stdout);

  Report report = run(cfg);
  report.Add("peak_rss_mb", PeakRssMb(), "MB", 1, "getrusage ru_maxrss of the whole run");
  const uint64_t attempted = std::max<uint64_t>(report.outcomes.attempted(), 1);
  report.Add("failed_ratio",
             static_cast<double>(report.outcomes.failed()) / static_cast<double>(attempted),
             "ratio", report.outcomes.attempted(),
             "refused/timed-out calls, EIO/EPROTO, bad bytes, violations, wrong verdicts");
  report.Add("expected_race_ratio",
             static_cast<double>(report.outcomes.expected()) / static_cast<double>(attempted),
             "ratio", report.outcomes.attempted(),
             "ENOENT/EEXIST/ENOTEMPTY/ETXCONFLICT the mix allows; not failures");

  if (cfg.trace) {
    const std::string trace_path = out_dir + "/" + cfg.workload + ".trace.json";
    if (Spans::WriteChromeTrace(trace_path)) {
      std::printf("# spans written to %s (Chrome trace-event JSON)\n", trace_path.c_str());
    }
  }
  fs::remove_all(cfg.work_dir, ec);

  for (const auto& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const auto& m : report.metrics) {
    std::printf("metric %-34s %14.6g %-6s n=%-10llu %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples), m.note.c_str());
  }
  for (const auto& m : kReportedEndToEnd) {
    if (report.Find(m.name) == nullptr) {
      std::printf("metric %-34s %14s %-6s (not measured by this workload)\n", m.name, "n/a",
                  m.unit);
    }
  }
  for (const auto& [what, count] : report.outcomes.races()) {
    std::printf("outcome expected %-30s %llu\n", what.c_str(),
                static_cast<unsigned long long>(count));
  }
  for (const auto& [what, count] : report.outcomes.failures()) {
    std::printf("outcome FAILED   %-30s %llu\n", what.c_str(),
                static_cast<unsigned long long>(count));
  }
  for (const auto& f : report.outcomes.first_failures()) {
    std::printf("# failure: %s\n", f.c_str());
  }

  // The result line: exactly the declared metrics of this kind of run.
  bool correct = report.Correct();
  std::string metrics;
  auto emit = [&](const MetricName& m, double value) {
    metrics += (metrics.empty() ? "" : ", ") + JsonString(m.name) + ": {\"value\": " +
               JsonNumber(value) + ", \"unit\": " + JsonString(m.unit) + "}";
  };
  if (cfg.trace) {
    for (const auto& m : kPerLayer) {
      const Metric* got = report.Find(m.name);
      emit(m, got != nullptr ? got->value : 0.0);
    }
  } else {
    for (const auto& m : kEndToEnd) {
      const Metric* got = report.Find(m.name);
      if (got == nullptr || !(got->value > 0)) {
        report.Check(std::string("end-to-end metric ") + m.name + " measured", false);
        correct = false;
      }
      emit(m, got != nullptr ? got->value : 0.0);
    }
  }
  for (const auto& [what, ok] : report.checks) {
    std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.outcomes.attempted()),
              static_cast<unsigned long long>(report.outcomes.failed()), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
