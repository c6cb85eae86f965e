// The benchmark's own bookkeeping, kept free of the repository's libraries
// so its unit tests (tests/selftest.cpp) exercise it in isolation:
//   - spans recorded in memory around each call into a layer, and the
//     self time of a span (its duration minus what its children cover);
//   - nearest-rank percentiles and medians of measured samples;
//   - open-loop request timing from the due time, generator lag, and
//     growing-backlog detection;
//   - the one-line JSON result the benchmark prints.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------------ spans

/// One timed interval.  `parent` indexes the span that caused it (-1 for a
/// root); `id` is the request or cell id shared by the spans of one unit of
/// work.  Times are seconds on one steady clock.
struct Span {
  std::string name;
  std::string layer;
  double start = 0.0;
  double end = 0.0;
  std::int64_t parent = -1;
  std::uint64_t id = 0;
};

/// Spans kept in memory and written out when the benchmark ends.
/// Not thread-safe: each thread records into its own log, or the caller
/// records after the timed work has finished.
class SpanLog {
 public:
  /// Appends a span and returns its index (usable as a child's parent).
  std::int64_t add(std::string name, std::string layer, double start,
                   double end, std::int64_t parent = -1, std::uint64_t id = 0);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// CSV header of write_csv.
  static constexpr const char* kCsvHeader =
      "group,index,name,layer,start_s,end_s,parent,id\n";
  /// Appends one row per span, labelled with `group` (e.g. the round the
  /// log belongs to; indices and parents are local to the log).
  void write_csv(std::ostream& os, const std::string& group) const;

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span (children that overlap each
/// other, as on a worker pool, are not double-counted).  Throws
/// std::invalid_argument on a parent index out of range.
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// Sum of self_times per layer.
[[nodiscard]] std::map<std::string, double> self_time_by_layer(
    const std::vector<Span>& spans);

/// Per layer, the median over `logs` of each log's self time (a layer
/// absent from a log counts 0 there).  Empty when `logs` is empty.
[[nodiscard]] std::map<std::string, double> median_self_time_by_layer(
    const std::vector<SpanLog>& logs);

// ------------------------------------------------------------ percentiles

/// Nearest-rank p-th percentile, p in [0, 100] (the smallest sample with at
/// least p% of the samples at or below it).  Throws std::invalid_argument
/// on an empty sample or p out of range.
[[nodiscard]] double percentile(std::vector<double> values, double p);

[[nodiscard]] double median(std::vector<double> values);

// -------------------------------------------------- open-loop request timing

/// Timing of one open-loop request, milliseconds on one clock.  `due` is
/// when the schedule said to send it, `sent` when the generator actually
/// submitted it, `answered` when its first response arrived (negative =
/// never).
struct RequestTiming {
  double due = 0.0;
  double sent = 0.0;
  double answered = -1.0;
};

/// Summary of one fixed-rate level.
struct LevelStats {
  std::size_t requests = 0;
  std::size_t answered = 0;
  /// Latency from the due time (not from submission), answered requests.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// How late the generator sent, p99 over all requests (microseconds).
  double gen_lag_p99_us = 0.0;
  bool backlog_growing = false;
  /// True when the generator's own lateness, not the program, explains the
  /// tail: lag p99 is at least half the latency p99.
  bool generator_bound = false;
};

/// Latencies from the due time of the answered requests, in request order.
[[nodiscard]] std::vector<double> due_latencies(
    const std::vector<RequestTiming>& requests);

/// Outstanding requests (due but not yet answered) at `samples` evenly
/// spaced instants across [first due, last due].  Unanswered requests stay
/// outstanding forever.
[[nodiscard]] std::vector<double> outstanding_profile(
    const std::vector<RequestTiming>& requests, std::size_t samples);

/// A backlog grows when the mean outstanding count over the last third of
/// the profile exceeds the first third's by more than `slack` requests and
/// by more than half again.
[[nodiscard]] bool backlog_growing(const std::vector<double>& profile,
                                   double slack);

/// Everything above for one level.  `slack` is backlog_growing's.
[[nodiscard]] LevelStats summarize_level(
    const std::vector<RequestTiming>& requests, double slack);

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's result line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":v,"unit":u},...}} with every value printed
/// with all its significant digits.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

}  // namespace perfbench
