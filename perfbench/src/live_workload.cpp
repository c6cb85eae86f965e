// live_kv: the live middleware serving the kvstore backend (paper §6.2's
// heavy-tailed set intersections) under an open-loop Poisson generator.
//
// Path: generator thread -> ReissueClient::submit (policy d:0.25) ->
// dispatch -> 2-worker ThreadPool -> LiveBackend::execute ->
// ReissueClient::on_response.  With the client's reissue thread that is
// four threads, one per hardware thread of the reference machine; the
// generator gets a CPU of its own.
//
// Every request is timed from when it was due, not from when the
// generator got round to submitting it, so a generator stall shows up in
// the latency of every request it delays and separately as generator lag.
// Every execute() result is compared with a value precomputed on one
// thread; a request that was never answered (no response accepted by
// on_response before the settle deadline) counts as failed.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "reissue/core/policy.hpp"
#include "reissue/runtime/clock.hpp"
#include "reissue/runtime/executor.hpp"
#include "reissue/runtime/reissue_client.hpp"
#include "reissue/stats/rng.hpp"
#include "reissue/stats/tail_summary.hpp"
#include "reissue/systems/live_backend.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace reissue;

constexpr double kLoRate = 3000.0;
constexpr double kHiRate = 6000.0;
constexpr std::size_t kWorkers = 2;
/// Policy d:0.25 — SingleD, reissue after 0.25 ms (about p90 of execute).
constexpr double kDelayMs = 0.25;
/// The dataset is part of the workload, fixed across seeds (the seed picks
/// the arrival schedules); loadgen's default seed.
constexpr std::uint64_t kDatasetSeed = 0x10ad;
/// A request unanswered this long after the last one was due is lost.
constexpr double kSettleMs = 10000.0;
/// Rounds per run (see run_live_workload).
constexpr std::size_t kRounds = 8;
/// Workers of the pool the 4-thread capacity runs on (one per hardware
/// thread of the reference machine).
constexpr std::size_t kWideWorkers = 4;
/// Rate search: bisection steps, SLO, and the upper end of the search;
/// with probes capped at kMaxProbeSeconds the outstanding requests stay
/// far below the client's 2^16-entry completion table.
constexpr int kSearchSteps = 5;
constexpr double kSloP99Ms = 5.0;
constexpr double kSearchCeiling = 24000.0;
constexpr double kMaxProbeSeconds = 1.5;

/// Per-request timestamps (ms on the run's clock).  Each field is written
/// by exactly one thread and read only after the level has settled and
/// the pool is idle.
struct Slot {
  double due = 0.0;
  double sent = 0.0;
  double submit_end = 0.0;
  double cb_start = 0.0;  // primary dispatch callback (generator thread)
  double cb_end = 0.0;
  double start = 0.0;  // primary copy on a worker
  double exec_end = 0.0;
  double resp_end = 0.0;
  double r_dispatch = -1.0;  // reissue copy (reissue thread), -1 = none
  double r_start = 0.0;
  double r_exec_end = 0.0;
  double r_resp_end = 0.0;
  double answered = -1.0;
};

struct Live {
  runtime::WallClock clock;
  std::unique_ptr<systems::LiveBackend> backend;
  /// execute(i) for every trace index, computed on one thread.
  std::vector<std::uint64_t> expected;
  std::uint64_t next_id = 0;
};

struct LevelOutcome {
  LevelStats stats;
  std::vector<Slot> slots;
  std::uint64_t wrong = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t reissues = 0;
  std::uint64_t reissue_wins = 0;
  /// Process CPU over the level, the generator's spin-waits excluded.
  double cpu_s = 0.0;
  double wall_ms = 0.0;
  /// CPU time inside LiveBackend::execute (traced levels only).
  double exec_cpu_s = 0.0;

  [[nodiscard]] bool meets_slo() const {
    return wrong == 0 && unanswered == 0 && !stats.backlog_growing &&
           !stats.generator_bound && stats.p99_ms <= kSloP99Ms;
  }
  [[nodiscard]] double cpu_us_per_query() const {
    const auto done = static_cast<double>(stats.answered);
    return done > 0 ? cpu_s * 1e6 / done : 0.0;
  }
};

core::ReissuePolicy policy() {
  return core::ReissuePolicy::single_d(kDelayMs);
}

/// Busy-waits until `due_ms` on `clock` and returns the time it got there,
/// adding the wait to `spun_ms`.  A sleeping generator wakes up to
/// milliseconds late on a virtualised host, which would be charged to
/// every request as generator lag; spinning keeps its CPU awake instead,
/// and the spin is taken out of the program's CPU time.
double wait_until(const runtime::Clock& clock, double due_ms,
                  double& spun_ms) {
  const double begin = clock.now_ms();
  double now = begin;
  while (now < due_ms) now = clock.now_ms();
  spun_ms += now - begin;
  return now;
}

/// Keeps the load generator and the program under test on separate CPUs.
/// While alive, threads the calling thread starts inherit every allowed
/// CPU but the first; after pin_generator() the calling thread (the
/// generator) runs on that first CPU alone.  The destructor restores the
/// original mask.  Does nothing when fewer than two CPUs are allowed.
class GeneratorPinning {
 public:
  GeneratorPinning() {
    active_ = sched_getaffinity(0, sizeof original_, &original_) == 0 &&
              CPU_COUNT(&original_) >= 2;
    if (!active_) return;
    CPU_ZERO(&generator_);
    program_ = original_;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) {
        CPU_SET(cpu, &generator_);
        CPU_CLR(cpu, &program_);
        break;
      }
    }
    sched_setaffinity(0, sizeof program_, &program_);
  }
  GeneratorPinning(const GeneratorPinning&) = delete;
  GeneratorPinning& operator=(const GeneratorPinning&) = delete;
  ~GeneratorPinning() {
    if (active_) sched_setaffinity(0, sizeof original_, &original_);
  }

  void pin_generator() {
    if (active_) sched_setaffinity(0, sizeof generator_, &generator_);
  }

 private:
  cpu_set_t original_{};
  cpu_set_t generator_{};
  cpu_set_t program_{};
  bool active_ = false;
};

/// One open-loop level at `rate` q/s for `seconds`.
LevelOutcome run_level(Live& live, double rate, double seconds,
                       std::uint64_t seed, bool traced) {
  LevelOutcome out;
  // The schedule is fixed before the run: Poisson arrivals from the seed.
  stats::Xoshiro256 rng(seed);
  std::vector<double> offsets;
  for (double t = 0.0;;) {
    t += -std::log(rng.uniform_pos()) * 1000.0 / rate;
    if (t >= seconds * 1000.0) break;
    offsets.push_back(t);
  }
  const std::size_t n = offsets.size();
  out.slots.resize(n);
  const std::uint64_t base = live.next_id;
  live.next_id += n;
  const std::size_t trace_length = live.expected.size();

  std::atomic<std::uint64_t> wrong{0};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> wins{0};
  std::atomic<std::uint64_t> exec_cpu_ns{0};
  const runtime::Clock& clock = live.clock;
  const systems::LiveBackend& backend = *live.backend;
  std::vector<Slot>& slots = out.slots;

  GeneratorPinning pinning;
  runtime::ThreadPool pool(kWorkers);
  // The dispatch function must exist before the client; it reaches the
  // client through this pointer, set before the first submit.
  runtime::ReissueClient* client_ptr = nullptr;
  auto task = [&](std::uint64_t id, bool is_reissue) {
    Slot& s = slots[id - base];
    const double c0 = traced ? thread_cpu_s() : 0.0;
    const double t0 = traced ? clock.now_ms() : 0.0;
    const std::uint64_t ops = backend.execute(id);
    const double t1 = traced ? clock.now_ms() : 0.0;
    if (traced) {
      exec_cpu_ns.fetch_add(
          static_cast<std::uint64_t>((thread_cpu_s() - c0) * 1e9),
          std::memory_order_relaxed);
    }
    if (ops != live.expected[id % trace_length]) {
      wrong.fetch_add(1, std::memory_order_relaxed);
    }
    const bool first = client_ptr->on_response(id, is_reissue);
    const double t2 = clock.now_ms();
    if (first) {
      s.answered = t2;
      if (is_reissue) wins.fetch_add(1, std::memory_order_relaxed);
      answered.fetch_add(1, std::memory_order_release);
    }
    if (traced) {
      (is_reissue ? s.r_start : s.start) = t0;
      (is_reissue ? s.r_exec_end : s.exec_end) = t1;
      (is_reissue ? s.r_resp_end : s.resp_end) = t2;
    }
  };
  runtime::DispatchFn dispatch = [&](std::uint64_t id, bool is_reissue) {
    Slot& s = slots[id - base];
    if (traced) (is_reissue ? s.r_dispatch : s.cb_start) = clock.now_ms();
    pool.submit([&task, id, is_reissue] { task(id, is_reissue); });
    if (traced && !is_reissue) s.cb_end = clock.now_ms();
  };
  runtime::ReissueClientConfig config;
  config.seed = seed ^ 0xc011;
  auto client = std::make_unique<runtime::ReissueClient>(
      clock, std::move(dispatch), policy(), config);
  client_ptr = client.get();
  pinning.pin_generator();

  const double cpu0 = process_cpu_s();
  const double start = clock.now_ms() + 2.0;
  double spun_ms = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    Slot& s = slots[i];
    s.due = start + offsets[i];
    s.sent = wait_until(clock, s.due, spun_ms);
    client->submit(base + i);
    if (traced) s.submit_end = clock.now_ms();
  }
  client->drain();
  pool.wait_idle();
  const double deadline = clock.now_ms() + kSettleMs;
  while (answered.load(std::memory_order_acquire) < n &&
         clock.now_ms() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    pool.wait_idle();
  }
  const runtime::ReissueClientStats client_stats = client->stats();
  client.reset();
  pool.wait_idle();
  out.cpu_s = process_cpu_s() - cpu0 - spun_ms / 1000.0;
  out.wall_ms = clock.now_ms() - start;

  out.exec_cpu_s = static_cast<double>(exec_cpu_ns.load()) * 1e-9;
  out.wrong = wrong.load();
  out.unanswered = n - answered.load(std::memory_order_acquire);
  out.reissues = client_stats.reissues_issued;
  out.reissue_wins = wins.load();
  std::vector<RequestTiming> timing(n);
  for (std::size_t i = 0; i < n; ++i) {
    timing[i] = RequestTiming{slots[i].due, slots[i].sent, slots[i].answered};
  }
  out.stats = summarize_level(timing, std::max(16.0, rate * 0.005));
  return out;
}

/// Runs a level; if the generator's lag rather than the program explains
/// its tail, reruns it once (counted in `invalid`).
LevelOutcome run_valid_level(Live& live, double rate, double seconds,
                             std::uint64_t seed, bool traced,
                             std::uint64_t& invalid) {
  LevelOutcome out = run_level(live, rate, seconds, seed, traced);
  if (out.stats.generator_bound) {
    ++invalid;
    std::cerr << "live_kv: generator-bound level at " << rate
              << " q/s (lag p99 " << out.stats.gen_lag_p99_us
              << " us), rerunning\n";
    out = run_level(live, rate, seconds, seed ^ 0x9e3779b97f4a7c15ull, traced);
  }
  return out;
}

void count(const LevelOutcome& level, RunResult& result) {
  result.attempted += level.slots.size();
  result.failed += level.unanswered + level.wrong;
}

/// Percentile in microseconds of `value(slot)` over the slots `keep`
/// accepts; 0 when none does.
template <class Keep, class Value>
double slot_percentile_us(const std::vector<Slot>& slots, double p, Keep keep,
                          Value value) {
  std::vector<double> v;
  for (const Slot& s : slots) {
    if (keep(s)) v.push_back(value(s) * 1000.0);
  }
  return v.empty() ? 0.0 : percentile(std::move(v), p);
}

/// Per-request spans of a traced level.
SpanLog request_spans(const LevelOutcome& level) {
  SpanLog spans;
  for (std::size_t i = 0; i < level.slots.size(); ++i) {
    const Slot& s = level.slots[i];
    if (s.answered < 0.0) continue;
    const double ms = 1e-3;
    const auto root =
        spans.add("request", "bench", s.due * ms, s.answered * ms, -1, i);
    spans.add("gen_lag", "bench", s.due * ms, s.sent * ms, root, i);
    const auto submit =
        spans.add("submit", "runtime", s.sent * ms, s.submit_end * ms, root, i);
    spans.add("dispatch", "bench", s.cb_start * ms, s.cb_end * ms, submit, i);
    spans.add("pool_wait", "runtime", s.cb_start * ms, s.start * ms, root, i);
    spans.add("execute", "systems", s.start * ms, s.exec_end * ms, root, i);
    spans.add("on_response", "runtime", s.exec_end * ms, s.resp_end * ms,
              root, i);
    if (s.r_dispatch >= 0.0) {
      spans.add("reissue_pool_wait", "runtime", s.r_dispatch * ms,
                s.r_start * ms, root, i);
      spans.add("reissue_execute", "systems", s.r_start * ms,
                s.r_exec_end * ms, root, i);
      spans.add("reissue_on_response", "runtime", s.r_exec_end * ms,
                s.r_resp_end * ms, root, i);
    }
  }
  return spans;
}

/// Per-layer figures of a traced hi level; `plain_cpu_us_per_query` is
/// the same rate's untraced cost, for the tracing overhead.
void add_layer_metrics(const LevelOutcome& hi, double plain_cpu_us_per_query,
                       std::vector<Metric>& m) {
  const auto& slots = hi.slots;
  const auto all = [](const Slot&) { return true; };
  const auto reissued = [](const Slot& s) { return s.r_dispatch >= 0.0; };
  const auto submit = [](const Slot& s) {
    return (s.submit_end - s.sent) - (s.cb_end - s.cb_start);
  };
  const auto wait = [](const Slot& s) { return s.start - s.cb_start; };
  const auto respond = [](const Slot& s) { return s.resp_end - s.exec_end; };
  const auto late = [](const Slot& s) {
    return s.r_dispatch - (s.sent + kDelayMs);
  };
  const auto exec = [](const Slot& s) { return s.exec_end - s.start; };
  double busy_ms = 0.0;
  for (const Slot& s : slots) {
    busy_ms += s.resp_end - s.start;
    if (s.r_dispatch >= 0.0) busy_ms += s.r_resp_end - s.r_start;
  }
  const auto n = static_cast<double>(slots.size());
  m.push_back({"runtime.submit_us.p50", slot_percentile_us(slots, 50, all, submit), "us"});
  m.push_back({"runtime.submit_us.p99", slot_percentile_us(slots, 99, all, submit), "us"});
  m.push_back({"runtime.pool_wait_us.p50", slot_percentile_us(slots, 50, all, wait), "us"});
  m.push_back({"runtime.pool_wait_us.p99", slot_percentile_us(slots, 99, all, wait), "us"});
  m.push_back({"runtime.pool_busy_frac",
               busy_ms / (static_cast<double>(kWorkers) * hi.wall_ms), "ratio"});
  m.push_back({"runtime.on_response_us.p50", slot_percentile_us(slots, 50, all, respond), "us"});
  m.push_back({"runtime.on_response_us.p99", slot_percentile_us(slots, 99, all, respond), "us"});
  m.push_back({"runtime.reissue_late_us.p50", slot_percentile_us(slots, 50, reissued, late), "us"});
  m.push_back({"runtime.reissue_late_us.p99", slot_percentile_us(slots, 99, reissued, late), "us"});
  m.push_back({"runtime.reissue_frac", static_cast<double>(hi.reissues) / n, "ratio"});
  m.push_back({"runtime.reissue_win_frac",
               hi.reissues == 0 ? 0.0
                                : static_cast<double>(hi.reissue_wins) /
                                      static_cast<double>(hi.reissues),
               "ratio"});
  m.push_back({"runtime.lost", static_cast<double>(hi.unanswered), "count"});
  m.push_back({"systems.execute_us.p50", slot_percentile_us(slots, 50, all, exec), "us"});
  m.push_back({"systems.execute_us.p99", slot_percentile_us(slots, 99, all, exec), "us"});
  m.push_back({"systems.cpu_share", hi.exec_cpu_s / hi.cpu_s, "ratio"});
  m.push_back({"bench.gen_lag_us.p99", hi.stats.gen_lag_p99_us, "us"});
  m.push_back({"obs.live_trace_overhead",
               hi.cpu_us_per_query() / plain_cpu_us_per_query - 1.0,
               "ratio"});
  const SpanLog spans = request_spans(hi);
  const auto answered = static_cast<double>(hi.stats.answered);
  for (const auto& [layer, seconds] : self_time_by_layer(spans.spans())) {
    m.push_back({layer + ".self_us", seconds * 1e6 / answered, "us"});
  }
  // TailSummary::add over the live latency stream.
  const std::vector<RequestTiming> timing = [&] {
    std::vector<RequestTiming> t;
    for (const Slot& s : slots) t.push_back({s.due, s.sent, s.answered});
    return t;
  }();
  const std::vector<double> stream = due_latencies(timing);
  std::vector<double> per_add;
  for (int rep = 0; rep < 15; ++rep) {
    const double t0 = now_s();
    stats::TailSummary summary(0.99);
    for (const double x : stream) summary.add(x);
    const double q = summary.quantile();
    const double t1 = now_s();
    if (!(q > 0.0)) throw std::runtime_error("empty live latency stream");
    per_add.push_back((t1 - t0) * 1e9 / static_cast<double>(stream.size()));
  }
  m.push_back({"stats.tail_add_ns", median(per_add), "ns"});
}

}  // namespace

RunResult run_live_workload(const RunArgs& args) {
  RunResult result;
  // Set-up: dataset build plus pool and client start, three times (once
  // in the traced run, which does not report it).
  Live live;
  std::vector<double> setups;
  for (int rep = 0; rep < (args.trace ? 1 : 3); ++rep) {
    const double t0 = now_s();
    systems::LiveBackendOptions options;
    options.seed = kDatasetSeed;
    live.backend = systems::make_live_backend("kvstore", options);
    {
      runtime::ThreadPool pool(kWorkers);
      runtime::ReissueClient client(
          live.clock, [](std::uint64_t, bool) {}, policy());
    }
    setups.push_back(now_s() - t0);
  }

  // Reference results, computed on one thread.
  const std::size_t trace_length = live.backend->trace_length();
  live.expected.resize(trace_length);
  for (std::size_t i = 0; i < trace_length; ++i) {
    live.expected[i] = live.backend->execute(i);
  }
  // The seed drives the arrival schedules; request ids (and so the query
  // mix of each segment) run 0, 1, 2, ... through the trace on every seed.
  stats::Xoshiro256 seeds(args.seed);
  std::uint64_t invalid = 0;
  auto& m = result.metrics;
  const double segment_s = std::max(0.5, 0.4 * args.seconds / kRounds);

  if (!args.trace) {
    // Rounds of: a trace slice executed back to back on one thread, the
    // whole trace as one batch on a kWideWorkers-thread pool (the backend's
    // capacity on one and on all hardware threads; every result re-checked
    // against the reference), and an open-loop segment at the hi rate (CPU
    // per query through the whole serving path).  Rates are total work over
    // total time across rounds, which averages the host's fast and slow
    // spells.
    double one_core_s = 0.0;
    double wide_s = 0.0;
    double hi_cpu_s = 0.0;
    std::size_t hi_answered = 0;
    const std::size_t slice = trace_length / kRounds;
    std::atomic<std::uint64_t> wrong{0};
    const auto check = [&](std::size_t i) {
      if (live.backend->execute(i) != live.expected[i]) {
        wrong.fetch_add(1, std::memory_order_relaxed);
      }
    };
    for (std::size_t round = 0; round < kRounds; ++round) {
      const std::size_t begin = round * slice;
      double t0 = now_s();
      for (std::size_t i = begin; i < begin + slice; ++i) check(i);
      one_core_s += now_s() - t0;
      {
        runtime::ThreadPool pool(kWideWorkers);
        t0 = now_s();
        for (std::size_t i = 0; i < trace_length; ++i) {
          pool.submit([&check, i] { check(i); });
        }
        pool.wait_idle();
        wide_s += now_s() - t0;
      }
      result.attempted += slice + trace_length;
      const LevelOutcome hi =
          run_valid_level(live, kHiRate, segment_s, seeds(), false, invalid);
      count(hi, result);
      hi_cpu_s += hi.cpu_s;
      hi_answered += hi.stats.answered;
      std::cerr << "live_kv: round " << round << " hi "
                << hi.cpu_us_per_query() << " us/query\n";
    }
    result.failed += wrong.load();
    m.push_back({"setup_s", median(setups), "s"});
    const auto rounds = static_cast<double>(kRounds);
    m.push_back({"qps_1t", rounds * static_cast<double>(slice) / one_core_s,
                 "1/s"});
    m.push_back({"qps_4t",
                 rounds * static_cast<double>(trace_length) / wide_s, "1/s"});
    m.push_back({"cpu_us_per_query",
                 hi_cpu_s * 1e6 / static_cast<double>(hi_answered), "us"});
    m.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    result.correct = result.failed == 0;
    return result;
  }

  // Traced run.  First the live latency figures, untraced: rounds of a lo
  // and a hi segment, latencies pooled over rounds.
  std::vector<RequestTiming> lo_all;
  std::vector<RequestTiming> hi_all;
  double hi_cpu_s = 0.0;
  std::size_t hi_answered = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    const LevelOutcome lo =
        run_valid_level(live, kLoRate, segment_s, seeds(), false, invalid);
    const LevelOutcome hi =
        run_valid_level(live, kHiRate, segment_s, seeds(), false, invalid);
    count(lo, result);
    count(hi, result);
    for (const Slot& s : lo.slots) lo_all.push_back({s.due, s.sent, s.answered});
    for (const Slot& s : hi.slots) hi_all.push_back({s.due, s.sent, s.answered});
    hi_cpu_s += hi.cpu_s;
    hi_answered += hi.stats.answered;
  }
  const std::vector<double> lo_latency = due_latencies(lo_all);
  const std::vector<double> hi_latency = due_latencies(hi_all);
  const double hi_p99 = percentile(hi_latency, 99.0);

  // Highest offered rate meeting the SLO, by bisection above kHiRate
  // (or below it, if the hi segments missed the SLO).
  const bool hi_ok = hi_p99 <= kSloP99Ms;
  double pass = hi_ok ? kHiRate : 0.0;
  double fail = hi_ok ? kSearchCeiling : kHiRate;
  const double probe_s = std::min(kMaxProbeSeconds, segment_s);
  for (int step = 0; step < kSearchSteps; ++step) {
    const double rate = 0.5 * (pass + fail);
    const LevelOutcome probe =
        run_valid_level(live, rate, probe_s, seeds(), false, invalid);
    count(probe, result);
    (probe.meets_slo() ? pass : fail) = rate;
  }
  m.push_back({"live.p50_ms.lo", percentile(lo_latency, 50.0), "ms"});
  m.push_back({"live.p99_ms.lo", percentile(lo_latency, 99.0), "ms"});
  m.push_back({"live.p50_ms.hi", percentile(hi_latency, 50.0), "ms"});
  m.push_back({"live.p99_ms.hi", hi_p99, "ms"});
  m.push_back({"live.max_rate_at_slo", pass, "1/s"});

  // Then one traced hi level for the per-layer figures.
  const LevelOutcome traced = run_valid_level(
      live, kHiRate, std::max(1.0, 0.25 * args.seconds), seeds(), true,
      invalid);
  count(traced, result);
  add_layer_metrics(traced,
                    hi_cpu_s * 1e6 / static_cast<double>(hi_answered), m);
  m.push_back({"bench.invalid_levels", static_cast<double>(invalid), "count"});
  std::ofstream span_file(args.out_dir + "/spans-" + args.workload + ".csv");
  span_file << SpanLog::kCsvHeader;
  request_spans(traced).write_csv(span_file, "hi");
  result.correct = result.failed == 0;
  return result;
}

}  // namespace perfbench
