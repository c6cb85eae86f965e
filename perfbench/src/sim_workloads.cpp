// sweep_mix and deep_cell: the simulator as a researcher runs it, timed
// from outside by wrapping the public calls of exp and dist.
//
// A round is one 1-thread sweep, one 4-thread sweep and (sweep_mix) one
// 4-shard sweep plus merge, each ending in aggregate + CSV like
// `reissue_cli sweep`.  After one untimed 4-thread sweep (first-touch page
// faults and cold caches land there), rounds repeat until the time budget
// is spent.  Rates are total work over total time across rounds: the
// reference host alternates between fast and slow spells of seconds, and
// the total averages them where a median of passes picks one.  The CSVs of
// every pass must be byte-identical, and a sweep at the reference seed
// must equal the CSV kept in perfbench/reference.
#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "reissue/dist/manifest.hpp"
#include "reissue/dist/merge.hpp"
#include "reissue/dist/worker.hpp"
#include "reissue/exp/aggregate.hpp"
#include "reissue/exp/registry.hpp"
#include "reissue/exp/runner.hpp"
#include "reissue/exp/scenario.hpp"
#include "reissue/obs/counters.hpp"
#include "reissue/sim/sim_observer.hpp"
#include "reissue/stats/tail_summary.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace reissue;

struct SimConfig {
  const char* name;
  const char* scenarios;
  std::size_t queries;    // 0 = the registry's own per-scenario counts
  double percentile;      // 0 = each scenario's own percentile
  const char* policies;   // "" = the registry's policy grids
  std::size_t replications;
  bool sharded;
};

// The equivalent user commands are
//   reissue_cli sweep --scenarios sim-all,fault-matrix --seed S
//   reissue_cli sweep --scenarios queueing-u30 --queries 1000000
//     --percentile 0.999 --policies none,r:30:0.5 --replications 4 --seed S
constexpr SimConfig kSweepMix{"sweep_mix", "sim-all,fault-matrix", 0, 0.0,
                              "", 8, true};
constexpr SimConfig kDeepCell{"deep_cell", "queueing-u30", 1000000, 0.999,
                              "none,r:30:0.5", 4, false};

constexpr std::uint64_t kReferenceSeed = 0x5eed;
constexpr std::size_t kShards = 4;
constexpr std::size_t kWideThreads = 4;
/// The scenario whose latency stream the TailSummary replay uses (a
/// member of both workloads).
constexpr const char* kReplayScenario = "queueing-u30";

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Scenario resolution with the CLI's --queries/--policies semantics.
std::vector<exp::ScenarioSpec> resolve(const SimConfig& config) {
  auto specs = exp::ScenarioRegistry::built_in().resolve(config.scenarios);
  std::vector<exp::PolicySpec> grid;
  for (const auto& token : split_commas(config.policies)) {
    grid.push_back(exp::parse_policy_spec(token));
  }
  for (auto& spec : specs) {
    if (config.queries > 0) {
      spec.queries = config.queries;
      spec.warmup = config.queries / 10;
    }
    if (!grid.empty()) spec.policies = grid;
  }
  return specs;
}

exp::SweepOptions sweep_options(const SimConfig& config, std::uint64_t seed,
                                std::size_t threads) {
  exp::SweepOptions options;
  options.replications = config.replications;
  options.threads = threads;
  options.seed = seed;
  options.percentile = config.percentile;
  return options;
}

/// Simulated queries in the measured runs of one sweep (training runs of
/// optimal:* policies excluded).
double measured_queries(const std::vector<exp::ScenarioSpec>& specs,
                        const exp::SweepOptions& options) {
  double total = 0.0;
  for (const exp::CellRef& cell : exp::enumerate_cells(specs, options)) {
    total += static_cast<double>(specs[cell.scenario].queries) *
             static_cast<double>(options.replications);
  }
  return total;
}

double phase_seconds(const obs::PhaseTimers& timers, const std::string& name) {
  for (const auto& e : timers.entries()) {
    if (e.phase == name) return e.seconds;
  }
  return 0.0;
}

double all_phase_seconds(const obs::PhaseTimers& timers) {
  double total = 0.0;
  for (const auto& e : timers.entries()) total += e.seconds;
  return total;
}

/// What one sweep pass measured.
struct Pass {
  double wall_s = 0.0;     // sweep (or shards + merge) + aggregate + CSV
  double cpu_s = 0.0;      // process CPU over the same interval
  double sweep_s = 0.0;    // run_sweep, or the parallel shards
  double merge_s = 0.0;    // merge_shards (sharded passes)
  double shard_io_s = 0.0; // shard time outside its cells
  double aggregate_s = 0.0;
  double csv_s = 0.0;
  double phases_s = 0.0;   // train + optimize + evaluate (traced passes);
                           // cell time, for sharded passes
  double train_s = 0.0;
  double optimize_s = 0.0;
  double evaluate_s = 0.0;
  std::string csv;
};

/// Optional instrumentation of a pass (trace mode).
struct PassTrace {
  SpanLog* spans = nullptr;
  sim::SimObserver* observer = nullptr;
  std::uint64_t pass_id = 0;
};

/// Records the per-cell spans of a 1-thread pass: cells finish one after
/// another, so each cell spans from the previous completion to its own,
/// and the PhaseTimers deltas between completions are its train/optimize/
/// evaluate time (laid out back to back inside the cell: the durations
/// are exact, the placement is not).
struct CellSpanRecorder {
  struct Cell {
    double start = 0.0;
    double end = 0.0;
    double train = 0.0;
    double optimize = 0.0;
    double evaluate = 0.0;
  };
  std::vector<Cell> cells;
  double last = 0.0;
  double train = 0.0;
  double optimize = 0.0;
  double evaluate = 0.0;

  void on_done(double t, const obs::PhaseTimers& timers) {
    const double tr = phase_seconds(timers, "train");
    const double op = phase_seconds(timers, "optimize");
    const double ev = phase_seconds(timers, "evaluate");
    cells.push_back(Cell{last, t, tr - train, op - optimize, ev - evaluate});
    last = t;
    train = tr;
    optimize = op;
    evaluate = ev;
  }

  void emit(SpanLog& spans, std::int64_t parent, std::uint64_t pass) const {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      const std::uint64_t id = pass * 1000000 + i;
      const auto cell = spans.add("cell", "exp", c.start, c.end, parent, id);
      double t = c.start;
      if (c.train > 0.0) spans.add("train", "core", t, t + c.train, cell, id);
      t += c.train;
      if (c.optimize > 0.0) {
        spans.add("optimize", "core", t, t + c.optimize, cell, id);
      }
      t += c.optimize;
      spans.add("evaluate", "sim", t, t + c.evaluate, cell, id);
    }
  }
};

void finish_pass(const std::vector<exp::CellResult>& results, Pass& pass,
                 double t_sweep_end) {
  const auto cells = exp::aggregate(results);
  const double t_agg = now_s();
  std::ostringstream csv;
  exp::write_csv(csv, cells);
  const double t_csv = now_s();
  pass.aggregate_s = t_agg - t_sweep_end;
  pass.csv_s = t_csv - t_agg;
  pass.csv = csv.str();
}

Pass run_local_pass(const SimConfig& config,
                    const std::vector<exp::ScenarioSpec>& specs,
                    std::uint64_t seed, std::size_t threads,
                    const PassTrace& trace = {}) {
  Pass pass;
  exp::SweepOptions options = sweep_options(config, seed, threads);
  obs::PhaseTimers timers;
  CellSpanRecorder recorder;
  const bool traced = trace.observer != nullptr || trace.spans != nullptr;
  // Only 1-thread passes get spans: cells finish in sequence there, so
  // their spans and phase deltas are exact.
  const bool per_cell = trace.spans != nullptr && threads == 1;
  if (traced) {
    options.timers = &timers;
    options.sim_observer = trace.observer;
  }
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  recorder.last = t0;
  if (per_cell) {
    // One worker: the callbacks run in sequence.
    options.on_cell_done = [&](std::size_t, std::size_t) {
      recorder.on_done(now_s(), timers);
    };
  }
  const auto results = exp::run_sweep(specs, options);
  const double t1 = now_s();
  finish_pass(results, pass, t1);
  pass.cpu_s = process_cpu_s() - cpu0;
  pass.sweep_s = t1 - t0;
  pass.wall_s = pass.sweep_s + pass.aggregate_s + pass.csv_s;
  pass.train_s = phase_seconds(timers, "train");
  pass.optimize_s = phase_seconds(timers, "optimize");
  pass.evaluate_s = phase_seconds(timers, "evaluate");
  pass.phases_s = all_phase_seconds(timers);
  if (per_cell) {
    SpanLog& spans = *trace.spans;
    const auto root = spans.add("pass_1t", "bench", t0,
                                t1 + pass.aggregate_s + pass.csv_s, -1,
                                trace.pass_id);
    const auto sweep =
        spans.add("run_sweep", "exp", t0, t1, root, trace.pass_id);
    recorder.emit(spans, sweep, trace.pass_id);
    spans.add("aggregate", "exp", t1, t1 + pass.aggregate_s, root,
              trace.pass_id);
    spans.add("write_csv", "exp", t1 + pass.aggregate_s,
              t1 + pass.aggregate_s + pass.csv_s, root, trace.pass_id);
  }
  return pass;
}

/// Cell durations from a shard's timings side file
/// ("cell,scenario,policy,seconds" rows).
std::vector<double> shard_cell_seconds(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::vector<double> out;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    out.push_back(std::stod(line.substr(line.rfind(',') + 1)));
  }
  if (out.empty()) throw std::runtime_error("no cell timings in " + path);
  return out;
}

Pass run_sharded_pass(const SimConfig& config,
                      const std::vector<exp::ScenarioSpec>& specs,
                      std::uint64_t seed, const std::string& out_dir,
                      const PassTrace& trace = {}) {
  Pass pass;
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < kShards; ++i) {
    paths.push_back(out_dir + "/shard-" + std::to_string(i) + ".csv");
    for (const auto& p : {paths.back(), dist::manifest_path(paths.back()),
                          dist::journal_path(paths.back()),
                          paths.back() + ".timings"}) {
      std::filesystem::remove(p);
    }
  }
  // Each shard records its cells' wall times in a side file: shard time
  // outside them is the shard's own I/O and planning.
  std::vector<std::string> timing_paths;
  for (const auto& path : paths) timing_paths.push_back(path + ".timings");
  std::vector<double> shard_start(kShards, 0.0);
  std::vector<double> shard_end(kShards, 0.0);
  std::vector<std::exception_ptr> errors(kShards);
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  {
    std::vector<std::thread> workers;
    for (std::size_t i = 0; i < kShards; ++i) {
      workers.emplace_back([&, i] {
        shard_start[i] = now_s();
        try {
          dist::WorkerOptions worker;
          worker.shard = dist::ShardRef{i, kShards};
          worker.raw_output = paths[i];
          worker.sweep = sweep_options(config, seed, 1);
          worker.timings_output = timing_paths[i];
          if (!dist::run_shard(specs, worker).finished) {
            throw std::runtime_error("shard did not finish");
          }
        } catch (...) {
          errors[i] = std::current_exception();
        }
        shard_end[i] = now_s();
      });
    }
    for (auto& w : workers) w.join();
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  const double t1 = now_s();
  const auto report = dist::merge_shards(paths);
  const double t2 = now_s();
  finish_pass(report.cells, pass, t2);
  pass.cpu_s = process_cpu_s() - cpu0;
  pass.sweep_s = t1 - t0;
  pass.merge_s = t2 - t1;
  pass.wall_s = pass.sweep_s + pass.merge_s + pass.aggregate_s + pass.csv_s;
  std::vector<std::vector<double>> cell_seconds;
  for (std::size_t i = 0; i < kShards; ++i) {
    cell_seconds.push_back(shard_cell_seconds(timing_paths[i]));
    double cells = 0.0;
    for (const double c : cell_seconds.back()) cells += c;
    pass.phases_s += cells;
    pass.shard_io_s += std::max(0.0, shard_end[i] - shard_start[i] - cells);
  }
  if (trace.spans != nullptr) {
    SpanLog& spans = *trace.spans;
    const auto root = spans.add("pass_sharded", "bench", t0,
                                t2 + pass.aggregate_s + pass.csv_s, -1,
                                trace.pass_id);
    for (std::size_t i = 0; i < kShards; ++i) {
      const auto shard = spans.add("run_shard", "dist", shard_start[i],
                                   shard_end[i], root, i);
      // A shard runs its cells one after another on one thread; the side
      // file gives each cell's duration, not its start, so the cells are
      // laid out back to back.  Shards have no train/optimize/evaluate
      // split: a cell counts as sim.
      double t = shard_start[i];
      for (const double d : cell_seconds[i]) {
        spans.add("cell", "sim", t, t + d, shard, i);
        t += d;
      }
    }
    spans.add("merge_shards", "dist", t1, t2, root, trace.pass_id);
    spans.add("aggregate", "exp", t2, t2 + pass.aggregate_s, root,
              trace.pass_id);
    spans.add("write_csv", "exp", t2 + pass.aggregate_s,
              t2 + pass.aggregate_s + pass.csv_s, root, trace.pass_id);
  }
  return pass;
}

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) out.push_back(line);
  return out;
}

/// Rows (header included) of `actual` that differ from `expected`, plus
/// rows missing from either side.
std::uint64_t mismatched_rows(const std::string& expected,
                              const std::string& actual) {
  const auto a = lines(expected);
  const auto b = lines(actual);
  std::uint64_t bad = 0;
  const std::size_t n = std::max(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= a.size() || i >= b.size() || a[i] != b[i]) ++bad;
  }
  return bad;
}

std::uint64_t row_count(const std::string& csv) { return lines(csv).size(); }

/// Latency stream of one replication of kReplayScenario.
class LatencyRecorder final : public sim::SimObserver {
 public:
  void on_query_done(double, std::uint64_t, double latency) override {
    latencies.push_back(latency);
  }
  std::vector<double> latencies;
};

/// Host ns per TailSummary::add, replaying one replication's simulated
/// latency stream (median of several replays).  All replays must agree.
double tail_add_ns(const SimConfig& config,
                   const std::vector<exp::ScenarioSpec>& specs,
                   std::uint64_t seed, SpanLog& spans, bool& consistent) {
  std::vector<exp::ScenarioSpec> one;
  for (const auto& spec : specs) {
    if (spec.name == kReplayScenario) one.push_back(spec);
  }
  if (one.empty()) throw std::runtime_error("replay scenario missing");
  one.front().policies.resize(1);
  LatencyRecorder recorder;
  exp::SweepOptions options = sweep_options(config, seed, 1);
  options.replications = 1;
  options.sim_observer = &recorder;
  (void)exp::run_sweep(one, options);
  if (recorder.latencies.empty()) {
    throw std::runtime_error("replay scenario produced no latencies");
  }
  const double p = config.percentile > 0.0 ? config.percentile
                                           : one.front().percentile;
  std::vector<double> per_add;
  double first_quantile = -1.0;
  for (int rep = 0; rep < 7; ++rep) {
    const double t0 = now_s();
    stats::TailSummary summary(p);
    for (const double x : recorder.latencies) summary.add(x);
    const double q = summary.quantile();
    const double t1 = now_s();
    if (rep == 0) spans.add("tail_replay", "stats", t0, t1, -1, 0);
    if (first_quantile < 0.0) first_quantile = q;
    if (q != first_quantile) consistent = false;
    per_add.push_back((t1 - t0) * 1e9 /
                      static_cast<double>(recorder.latencies.size()));
  }
  return median(per_add);
}

const SimConfig& config_for(const std::string& workload) {
  if (workload == kSweepMix.name) return kSweepMix;
  if (workload == kDeepCell.name) return kDeepCell;
  throw std::invalid_argument("not a sim workload: " + workload);
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Median of one field over passes (0 when there are none).
double median_of(const std::vector<Pass>& passes, double Pass::*field) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(p.*field);
  return v.empty() ? 0.0 : median(std::move(v));
}

/// Sum of one field over passes.
double total_of(const std::vector<Pass>& passes, double Pass::*field) {
  double total = 0.0;
  for (const Pass& p : passes) total += p.*field;
  return total;
}

}  // namespace

RunResult run_sim_workload(const RunArgs& args) {
  const SimConfig& config = config_for(args.workload);
  RunResult result;
  // Trace mode: set-up and replay spans, then one span log per round.
  SpanLog spans;
  std::vector<SpanLog> rounds;

  // Set-up: scenario resolution plus construction of every scenario's
  // system, repeated and reported as a median.
  std::vector<double> setups;
  std::vector<exp::ScenarioSpec> specs;
  const double setup_begin = now_s();
  while (setups.size() < 5 ||
         (now_s() - setup_begin < 0.5 && setups.size() < 200)) {
    const double t0 = now_s();
    specs = resolve(config);
    const double t1 = now_s();
    for (const auto& spec : specs) {
      const auto system = exp::make_system(
          spec, exp::construction_seed(args.seed, spec.name));
      if (!system) throw std::runtime_error("make_system returned null");
    }
    const double t2 = now_s();
    setups.push_back(t2 - t0);
    if (args.trace && setups.size() == 1) {
      const auto root = spans.add("setup", "bench", t0, t2, -1, 0);
      spans.add("resolve", "exp", t0, t1, root, 0);
      spans.add("make_system", "exp", t1, t2, root, 0);
    }
  }

  const double queries =
      measured_queries(specs, sweep_options(config, args.seed, 1));
  obs::CountingObserver counting;

  std::vector<Pass> one;
  std::vector<Pass> wide;
  std::vector<Pass> sharded;
  std::vector<Pass> untraced_one;
  std::vector<double> rss;
  const bool rss_resettable = reset_peak_rss();
  (void)run_local_pass(config, specs, args.seed, kWideThreads);
  const double measure_begin = now_s();
  std::uint64_t pass_id = 0;
  while (one.size() < 3 || now_s() - measure_begin < args.seconds) {
    PassTrace trace;
    if (args.trace) {
      rounds.emplace_back();
      // Counters from the 1-thread passes only, so they describe one
      // sweep per round.
      untraced_one.push_back(run_local_pass(config, specs, args.seed, 1));
      trace.observer = &counting;
      trace.spans = &rounds.back();
    }
    trace.pass_id = pass_id++;
    one.push_back(run_local_pass(config, specs, args.seed, 1, trace));
    trace.observer = nullptr;
    trace.pass_id = pass_id++;
    if (rss_resettable) reset_peak_rss();
    wide.push_back(
        run_local_pass(config, specs, args.seed, kWideThreads, trace));
    rss.push_back(peak_rss_mb());
    if (config.sharded) {
      trace.pass_id = pass_id++;
      sharded.push_back(
          run_sharded_pass(config, specs, args.seed, args.out_dir, trace));
    }
  }

  // Correctness: every pass's CSV equals the first 1-thread pass's, and a
  // sweep at the reference seed equals the kept reference CSV.
  const std::string& csv = one.front().csv;
  for (const auto* group : {&one, &wide, &sharded, &untraced_one}) {
    for (const Pass& p : *group) {
      result.attempted += row_count(p.csv);
      result.failed += mismatched_rows(csv, p.csv);
    }
  }
  write_text(args.out_dir + "/" + args.workload + ".csv", csv);
  const std::string reference =
      read_text(args.reference_dir + "/" + args.workload + ".csv");
  const Pass reference_pass =
      run_local_pass(config, specs, kReferenceSeed, kWideThreads);
  result.attempted += row_count(reference_pass.csv);
  const std::uint64_t reference_bad =
      mismatched_rows(reference, reference_pass.csv);
  if (reference_bad > 0) {
    std::cerr << args.workload << ": " << reference_bad
              << " rows differ from the reference CSV\n";
  }
  result.failed += reference_bad;

  for (const auto& [label, passes] :
       {std::pair{"1t", &one}, std::pair{"4t", &wide},
        std::pair{"sharded", &sharded}}) {
    if (passes->empty()) continue;
    std::cerr << args.workload << ": " << label << " pass s";
    for (const Pass& p : *passes) std::cerr << " " << p.wall_s;
    std::cerr << "\n";
  }
  auto& m = result.metrics;
  if (!args.trace) {
    m.push_back({"setup_s", median(setups), "s"});
    const auto rounds_done = static_cast<double>(one.size());
    m.push_back({"qps_1t", queries * rounds_done / total_of(one, &Pass::wall_s),
                 "1/s"});
    m.push_back({"qps_4t",
                 queries * rounds_done / total_of(wide, &Pass::wall_s),
                 "1/s"});
    m.push_back({"cpu_us_per_query",
                 total_of(one, &Pass::cpu_s) / (queries * rounds_done) * 1e6,
                 "us"});
    m.push_back({"peak_rss_mb", rss_resettable ? median(rss) : peak_rss_mb(),
                 "MB"});
    return result;
  }

  bool replay_consistent = true;
  const double add_ns =
      tail_add_ns(config, specs, args.seed, spans, replay_consistent);
  ++result.attempted;
  if (!replay_consistent) ++result.failed;

  const sim::RunCounters c = counting.total();
  const double n_rounds = static_cast<double>(one.size());
  const double arrivals = static_cast<double>(c.arrivals) / n_rounds;
  const double events =
      static_cast<double>(c.heap_pops + c.scan_pops + c.stage_checks) /
      n_rounds;
  const double sim_s = median_of(one, &Pass::train_s) + median_of(one, &Pass::evaluate_s);
  std::vector<double> idle;
  for (const Pass& p : wide) {
    idle.push_back(1.0 - p.phases_s / (static_cast<double>(kWideThreads) *
                                       p.sweep_s));
  }
  m.push_back({"stats.tail_add_ns", add_ns, "ns"});
  m.push_back({"core.train_s", median_of(one, &Pass::train_s), "s"});
  m.push_back({"core.optimize_s", median_of(one, &Pass::optimize_s), "s"});
  m.push_back({"sim.evaluate_s", median_of(one, &Pass::evaluate_s), "s"});
  m.push_back({"sim.ns_per_query", sim_s * 1e9 / arrivals, "ns"});
  m.push_back({"sim.ns_per_event", sim_s * 1e9 / events, "ns"});
  m.push_back({"sim.events_per_query", events / arrivals, "count"});
  m.push_back({"sim.arena_high_water", static_cast<double>(c.arena_slots),
               "count"});
  m.push_back({"sim.reissue_useful_frac",
               c.reissues_issued == 0
                   ? 0.0
                   : 1.0 - static_cast<double>(c.reissues_wasted) /
                               static_cast<double>(c.reissues_issued),
               "ratio"});
  m.push_back({"exp.setup_s", median(setups), "s"});
  m.push_back({"exp.worker_idle_frac", median(idle), "ratio"});
  m.push_back({"exp.aggregate_s", median_of(one, &Pass::aggregate_s), "s"});
  m.push_back({"exp.csv_s", median_of(one, &Pass::csv_s), "s"});
  m.push_back({"exp.sweep_self_s",
               median_of(one, &Pass::sweep_s) - median_of(one, &Pass::phases_s), "s"});
  if (config.sharded) {
    m.push_back({"dist.shard_io_s", median_of(sharded, &Pass::shard_io_s), "s"});
    m.push_back({"dist.merge_s", median_of(sharded, &Pass::merge_s), "s"});
    m.push_back({"dist.sharded_qps", queries / median_of(sharded, &Pass::wall_s),
                 "1/s"});
  }
  m.push_back({"obs.sim_trace_overhead",
               median_of(one, &Pass::wall_s) /
                       median_of(untraced_one, &Pass::wall_s) -
                   1.0,
               "ratio"});
  // Self time per layer, per round (set-up and replay are reported above).
  for (const auto& [layer, seconds] : median_self_time_by_layer(rounds)) {
    m.push_back({layer + ".self_s", seconds, "s"});
  }
  std::ofstream span_file(args.out_dir + "/spans-" + args.workload + ".csv");
  span_file << SpanLog::kCsvHeader;
  spans.write_csv(span_file, "setup");
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    rounds[i].write_csv(span_file, "round" + std::to_string(i));
  }
  return result;
}

}  // namespace perfbench
