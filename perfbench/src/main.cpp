// Benchmark runner: runs one workload and prints its result as one JSON
// line (the last line of stdout).
//
//   perfbench --workload sweep_mix|deep_cell|live_kv --seed N --seconds S
//             --trace 0|1 --out-dir DIR --reference-dir DIR
//
// --trace 0 prints the end-to-end metrics, measured untraced; --trace 1
// prints the per-layer metrics of a traced run and writes its spans to
// DIR/spans-<workload>.csv.  Every workload prints every metric of the
// selected set; a per-layer metric of a layer the workload does not
// exercise reads 0.  Run it through perfbench/run.py, which builds it and
// adds the cross-checks against reissue_cli.
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::Metric;

struct Declared {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (run.py checks the printed names and
// units against it).
constexpr Declared kEndToEnd[] = {
    {"setup_s", "s"},           {"qps_1t", "1/s"},     {"qps_4t", "1/s"},
    {"cpu_us_per_query", "us"}, {"peak_rss_mb", "MB"},
};

constexpr Declared kPerLayer[] = {
    {"stats.tail_add_ns", "ns"},
    {"core.train_s", "s"},
    {"core.optimize_s", "s"},
    {"sim.evaluate_s", "s"},
    {"sim.ns_per_query", "ns"},
    {"sim.ns_per_event", "ns"},
    {"sim.events_per_query", "count"},
    {"sim.arena_high_water", "count"},
    {"sim.reissue_useful_frac", "ratio"},
    {"exp.setup_s", "s"},
    {"exp.worker_idle_frac", "ratio"},
    {"exp.aggregate_s", "s"},
    {"exp.csv_s", "s"},
    {"exp.sweep_self_s", "s"},
    {"dist.shard_io_s", "s"},
    {"dist.merge_s", "s"},
    {"dist.sharded_qps", "1/s"},
    {"obs.sim_trace_overhead", "ratio"},
    {"obs.live_trace_overhead", "ratio"},
    {"runtime.submit_us.p50", "us"},
    {"runtime.submit_us.p99", "us"},
    {"runtime.pool_wait_us.p50", "us"},
    {"runtime.pool_wait_us.p99", "us"},
    {"runtime.pool_busy_frac", "ratio"},
    {"runtime.on_response_us.p50", "us"},
    {"runtime.on_response_us.p99", "us"},
    {"runtime.reissue_late_us.p50", "us"},
    {"runtime.reissue_late_us.p99", "us"},
    {"runtime.reissue_frac", "ratio"},
    {"runtime.reissue_win_frac", "ratio"},
    {"runtime.lost", "count"},
    {"systems.execute_us.p50", "us"},
    {"systems.execute_us.p99", "us"},
    {"systems.cpu_share", "ratio"},
    {"live.p50_ms.lo", "ms"},
    {"live.p99_ms.lo", "ms"},
    {"live.p50_ms.hi", "ms"},
    {"live.p99_ms.hi", "ms"},
    {"live.max_rate_at_slo", "1/s"},
    {"bench.gen_lag_us.p99", "us"},
    {"bench.invalid_levels", "count"},
    {"bench.self_s", "s"},
    {"exp.self_s", "s"},
    {"core.self_s", "s"},
    {"sim.self_s", "s"},
    {"dist.self_s", "s"},
    {"bench.self_us", "us"},
    {"runtime.self_us", "us"},
    {"systems.self_us", "us"},
};

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::runtime_error("usage: perfbench --workload W --seed N "
                               "--seconds S --trace 0|1 --out-dir DIR "
                               "--reference-dir DIR");
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

std::string require(const std::map<std::string, std::string>& flags,
                    const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) throw std::runtime_error("missing --" + key);
  return it->second;
}

/// Orders the workload's metrics as declared, filling per-layer metrics of
/// idle layers with 0.  End-to-end metrics must all be present and
/// positive; anything undeclared is a bug in the benchmark.
std::vector<Metric> declared_metrics(const std::vector<Metric>& measured,
                                     bool trace, bool& complete) {
  std::map<std::string, double> by_name;
  for (const Metric& m : measured) by_name[m.name] = m.value;
  std::vector<Metric> out;
  std::size_t matched = 0;
  const auto emit = [&](const Declared& d) {
    const auto it = by_name.find(d.name);
    const bool present = it != by_name.end() && std::isfinite(it->second);
    if (it != by_name.end()) ++matched;
    if (!trace && !(present && it->second > 0.0)) complete = false;
    out.push_back(Metric{d.name, present ? it->second : 0.0, d.unit});
  };
  if (trace) {
    for (const Declared& d : kPerLayer) emit(d);
  } else {
    for (const Declared& d : kEndToEnd) emit(d);
  }
  if (matched != by_name.size()) {
    throw std::logic_error("workload reported an undeclared metric");
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto flags = parse_flags(argc, argv);
    perfbench::RunArgs args;
    args.workload = require(flags, "workload");
    args.seed = std::stoull(require(flags, "seed"), nullptr, 0);
    args.seconds = std::stod(require(flags, "seconds"));
    args.trace = require(flags, "trace") == "1";
    args.out_dir = require(flags, "out-dir");
    args.reference_dir = require(flags, "reference-dir");
    if (!(args.seconds > 0.0)) throw std::runtime_error("--seconds must be > 0");
    std::filesystem::create_directories(args.out_dir);

    perfbench::RunResult result;
    if (args.workload == "live_kv") {
      result = perfbench::run_live_workload(args);
    } else {
      result = perfbench::run_sim_workload(args);
    }
    bool complete = true;
    const auto metrics = declared_metrics(result.metrics, args.trace, complete);
    if (!complete) {
      std::cerr << "perfbench: an end-to-end metric was not measured\n";
    }
    const bool correct =
        result.correct && result.failed == 0 && complete &&
        result.attempted > 0;
    std::cout << perfbench::result_json(correct, result.attempted,
                                        result.failed, metrics)
              << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
