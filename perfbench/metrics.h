// The benchmark's metric names. BENCHMARK.json at the repository root
// declares the same lists; a self-test keeps the two in step.

#ifndef ATOMFS_PERFBENCH_METRICS_H_
#define ATOMFS_PERFBENCH_METRICS_H_

#include <array>

namespace perfbench {

struct MetricName {
  const char* name;
  const char* unit;
};

// The result line of an untraced run: metrics that exist, nonzero, on every
// workload and stay steady between runs of the same code, so a regression
// gate can hold them to a bound.
inline constexpr std::array<MetricName, 3> kEndToEnd = {{
    {"cpu_us_per_op", "us"},
    {"setup_s", "s"},
    {"setup_rss_mb", "MB"},
}};

// End-to-end metrics printed in every untraced report (by name, unit and
// sample count; "n/a" where the workload has none) but kept out of the
// result line. On a shared VM, wall-clock throughput and latency of the same
// code move by 2-10x between runs, with steal time and lock-holder
// preemption, far past any bound a gate could use; the whole run's peak
// resident set steps with the number of calls a run gets through (history
// and arena growth); the last ones exist on one workload only.
inline constexpr std::array<MetricName, 13> kReportedEndToEnd = {{
    {"peak_rss_mb", "MB"},
    {"ops_per_s", "1/s"},
    {"read_p50_us", "us"},
    {"read_p99_us", "us"},
    {"update_p50_us", "us"},
    {"update_p99_us", "us"},
    {"commit_p50_us", "us"},
    {"commit_p99_us", "us"},
    {"recover_ms", "ms"},
    {"stored_bytes_per_user_byte", "ratio"},
    {"explore_s", "s"},
    {"failed_ratio", "ratio"},
    {"expected_race_ratio", "ratio"},
}};

// Printed in the result line of a traced run, on every workload; a layer
// that the workload does not run reads 0.
inline constexpr std::array<MetricName, 31> kPerLayer = {{
    {"client.flush_us", "us"},
    {"client.wait_us", "us"},
    {"net.encode_ns", "ns"},
    {"net.parse_ns", "ns"},
    {"server.fs_us", "us"},
    {"server.hop_us", "us"},
    {"server.loop.wakeups_per_op", "count"},
    {"server.worker.batch_size", "count"},
    {"vfs.self_us", "us"},
    {"core.read_us", "us"},
    {"core.update_us", "us"},
    {"core.lock.hold_ns", "ns"},
    {"core.lock.step_ns", "ns"},
    {"obs.tracing_overhead_pct", "%"},
    {"txn.begin_us", "us"},
    {"txn.apply_us", "us"},
    {"txn.commit_us", "us"},
    {"txn.direct_us", "us"},
    {"txn.conflict_ratio", "ratio"},
    {"journal.checkpoint.count", "count"},
    {"journal.checkpoint.ms", "ms"},
    {"journal.recover.ops_replayed", "count"},
    {"crlh.monitor_op_us", "us"},
    {"crlh.invariant_checks_per_op", "count"},
    {"crlh.helped_ratio", "ratio"},
    {"crlh.explore.executions.fig1", "count"},
    {"crlh.explore.executions.fig4a", "count"},
    {"crlh.explore.executions.fig4b", "count"},
    {"crlh.explore.executions.fig8", "count"},
    {"crlh.explore.us_per_execution", "us"},
    {"client.call_us", "us"},
}};

}  // namespace perfbench

#endif  // ATOMFS_PERFBENCH_METRICS_H_
