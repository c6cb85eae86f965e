#include "bench_logic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::int64_t SpanLog::add(std::string name, std::string layer, double start,
                          double end, std::int64_t parent, std::uint64_t id) {
  spans_.push_back(
      Span{std::move(name), std::move(layer), start, end, parent, id});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::write_csv(std::ostream& os, const std::string& group) const {
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << group << ',' << i << ',' << s.name << ',' << s.layer << ',';
    std::snprintf(buf, sizeof buf, "%.9f,%.9f", s.start, s.end);
    os << buf << ',' << s.parent << ',' << s.id << '\n';
  }
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  const auto n = static_cast<std::int64_t>(spans.size());
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < -1 || s.parent >= n) {
      throw std::invalid_argument("span parent index out of range");
    }
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double run_start = 0.0;
    double run_end = 0.0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, s.start);
      b = std::min(b, s.end);
      if (b <= a) continue;
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = a;
      run_end = b;
      open = true;
    }
    if (open) covered += run_end - run_start;
    out[i] = std::max(0.0, (s.end - s.start) - covered);
  }
  return out;
}

std::map<std::string, double> self_time_by_layer(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].layer] += self[i];
  }
  return out;
}

std::map<std::string, double> median_self_time_by_layer(
    const std::vector<SpanLog>& logs) {
  std::vector<std::map<std::string, double>> per_log;
  std::map<std::string, double> out;
  for (const SpanLog& log : logs) {
    per_log.push_back(self_time_by_layer(log.spans()));
    for (const auto& entry : per_log.back()) out[entry.first] = 0.0;
  }
  for (auto& [layer, value] : out) {
    std::vector<double> samples;
    for (const auto& m : per_log) {
      const auto it = m.find(layer);
      samples.push_back(it == m.end() ? 0.0 : it->second);
    }
    value = median(std::move(samples));
  }
  return out;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    throw std::invalid_argument("percentile of an empty sample");
  }
  if (!(p >= 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile p must be in [0, 100]");
  }
  std::sort(values.begin(), values.end());
  if (p == 0.0) return values.front();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::min(rank, values.size()) - 1];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

std::vector<double> due_latencies(const std::vector<RequestTiming>& requests) {
  std::vector<double> out;
  out.reserve(requests.size());
  for (const RequestTiming& r : requests) {
    if (r.answered >= 0.0) out.push_back(r.answered - r.due);
  }
  return out;
}

std::vector<double> outstanding_profile(
    const std::vector<RequestTiming>& requests, std::size_t samples) {
  std::vector<double> out;
  if (requests.empty() || samples == 0) return out;
  std::vector<double> due;
  std::vector<double> answered;
  due.reserve(requests.size());
  answered.reserve(requests.size());
  for (const RequestTiming& r : requests) {
    due.push_back(r.due);
    if (r.answered >= 0.0) answered.push_back(r.answered);
  }
  std::sort(due.begin(), due.end());
  std::sort(answered.begin(), answered.end());
  const double first = due.front();
  const double last = due.back();
  out.reserve(samples);
  for (std::size_t k = 0; k < samples; ++k) {
    const double t =
        samples == 1
            ? last
            : first + (last - first) * static_cast<double>(k) /
                          static_cast<double>(samples - 1);
    const auto arrived = std::upper_bound(due.begin(), due.end(), t) -
                         due.begin();
    const auto done = std::upper_bound(answered.begin(), answered.end(), t) -
                      answered.begin();
    out.push_back(static_cast<double>(arrived - done));
  }
  return out;
}

bool backlog_growing(const std::vector<double>& profile, double slack) {
  const std::size_t third = profile.size() / 3;
  if (third == 0) return false;
  double first = 0.0;
  double last = 0.0;
  for (std::size_t i = 0; i < third; ++i) {
    first += profile[i];
    last += profile[profile.size() - 1 - i];
  }
  first /= static_cast<double>(third);
  last /= static_cast<double>(third);
  return last > first + slack && last > 1.5 * first;
}

LevelStats summarize_level(const std::vector<RequestTiming>& requests,
                           double slack) {
  LevelStats out;
  out.requests = requests.size();
  const std::vector<double> latency = due_latencies(requests);
  out.answered = latency.size();
  if (!latency.empty()) {
    out.p50_ms = percentile(latency, 50.0);
    out.p99_ms = percentile(latency, 99.0);
  }
  if (!requests.empty()) {
    std::vector<double> lag;
    lag.reserve(requests.size());
    for (const RequestTiming& r : requests) {
      lag.push_back((r.sent - r.due) * 1000.0);
    }
    out.gen_lag_p99_us = percentile(std::move(lag), 99.0);
  }
  out.backlog_growing =
      backlog_growing(outstanding_profile(requests, 60), slack);
  out.generator_bound =
      out.p99_ms > 0.0 && out.gen_lag_p99_us / 1000.0 >= 0.5 * out.p99_ms;
  return out;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // JSON has no NaN or infinity; a metric that could not be measured is
    // reported as 0, which the result checks treat as a failure.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
