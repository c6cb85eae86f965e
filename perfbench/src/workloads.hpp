// Workload entry points of the benchmark runner and the process-level
// probes (clocks, CPU time, resident memory) they share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_logic.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measuring time budget of the run.
  double seconds = 10.0;
  /// false: end-to-end metrics, untraced.  true: per-layer metrics from a
  /// traced run (plus the untraced passes the overhead is measured against).
  bool trace = false;
  /// Where CSVs and span files are written.
  std::string out_dir;
  /// Directory of the reference CSVs kept with the benchmark.
  std::string reference_dir;
};

struct RunResult {
  /// Every correctness check passed (failed == 0 and nothing threw).
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// sweep_mix and deep_cell.
[[nodiscard]] RunResult run_sim_workload(const RunArgs& args);
/// live_kv.
[[nodiscard]] RunResult run_live_workload(const RunArgs& args);

/// Seconds on the steady clock.
[[nodiscard]] double now_s();
/// CPU seconds consumed by the whole process so far.
[[nodiscard]] double process_cpu_s();
/// CPU seconds consumed by the calling thread so far.
[[nodiscard]] double thread_cpu_s();
/// Peak resident set (VmHWM) in MiB; 0 if unavailable.
[[nodiscard]] double peak_rss_mb();
/// Resets the peak-resident mark to the current resident set; false when
/// the kernel refuses (the peak then covers the whole process so far).
bool reset_peak_rss();

}  // namespace perfbench
