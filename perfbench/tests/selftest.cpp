// Unit tests of the benchmark's own logic: span self time, percentiles,
// due-time latency, generator lag and backlog detection, result line.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "bench_logic.hpp"

namespace perfbench {
namespace {

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheParent) {
  SpanLog log;
  const auto root = log.add("request", "bench", 0.0, 10.0);
  // Overlapping children [1,3] and [2,5] cover [1,5]; [8,12] is clipped to
  // [8,10]; the grandchild belongs to its own parent only.
  const auto a = log.add("a", "runtime", 1.0, 3.0, root);
  log.add("b", "systems", 2.0, 5.0, root);
  log.add("c", "runtime", 8.0, 12.0, root);
  log.add("a1", "systems", 1.5, 2.0, a);
  const std::vector<double> self = self_times(log.spans());
  ASSERT_EQ(self.size(), 5u);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 2.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0 - 0.5);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 0.5);

  const auto layers = self_time_by_layer(log.spans());
  EXPECT_DOUBLE_EQ(layers.at("bench"), 4.0);
  EXPECT_DOUBLE_EQ(layers.at("runtime"), 1.5 + 4.0);
  EXPECT_DOUBLE_EQ(layers.at("systems"), 3.0 + 0.5);
}

TEST(SelfTime, ChildCoveringTheWholeParentLeavesZero) {
  SpanLog log;
  const auto root = log.add("pass", "bench", 1.0, 2.0);
  log.add("sweep", "exp", 0.5, 2.5, root);
  EXPECT_DOUBLE_EQ(self_times(log.spans())[0], 0.0);
}

TEST(SelfTime, RejectsADanglingParent) {
  std::vector<Span> spans{Span{"x", "bench", 0.0, 1.0, 3, 0}};
  EXPECT_THROW((void)self_times(spans), std::invalid_argument);
}

TEST(SelfTime, MedianAcrossLogsCountsAbsentLayersAsZero) {
  std::vector<SpanLog> logs(3);
  logs[0].add("x", "exp", 0.0, 1.0);
  logs[1].add("x", "exp", 0.0, 3.0);
  logs[2].add("x", "exp", 0.0, 2.0);
  logs[2].add("y", "dist", 0.0, 5.0);
  const auto medians = median_self_time_by_layer(logs);
  EXPECT_DOUBLE_EQ(medians.at("exp"), 2.0);
  EXPECT_DOUBLE_EQ(medians.at("dist"), 0.0);
}

TEST(SpanLog, WritesOneCsvRowPerSpan) {
  SpanLog log;
  const auto root = log.add("request", "bench", 0.5, 1.5, -1, 7);
  log.add("execute", "systems", 0.75, 1.25, root, 7);
  std::ostringstream os;
  log.write_csv(os, "hi");
  EXPECT_EQ(os.str(),
            "hi,0,request,bench,0.500000000,1.500000000,-1,7\n"
            "hi,1,execute,systems,0.750000000,1.250000000,0,7\n");
}

TEST(Percentile, IsNearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99.5), 100.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
}

TEST(Percentile, RejectsEmptySamplesAndBadRanks) {
  EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, 101.0), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, -1.0), std::invalid_argument);
}

TEST(DueTime, LatencyCountsTheGeneratorStall) {
  // Due at 0 and 1, the generator stalled until 5 and sent both then; each
  // took 2 ms once sent.  From submission both would read 2 ms.
  const std::vector<RequestTiming> requests{{0.0, 5.0, 7.0},
                                            {1.0, 5.0, 7.0},
                                            {2.0, 5.0, -1.0}};
  const std::vector<double> latency = due_latencies(requests);
  ASSERT_EQ(latency.size(), 2u);
  EXPECT_DOUBLE_EQ(latency[0], 7.0);
  EXPECT_DOUBLE_EQ(latency[1], 6.0);
}

TEST(DueTime, LevelSummaryFlagsGeneratorBoundTails) {
  std::vector<RequestTiming> requests;
  for (int i = 0; i < 100; ++i) {
    const double due = i;
    // Sent on time and answered in 0.1 ms, except one request the
    // generator sent 3 ms late.
    const double sent = i == 50 ? due + 3.0 : due;
    requests.push_back({due, sent, sent + 0.1});
  }
  const LevelStats s = summarize_level(requests, 16.0);
  EXPECT_EQ(s.requests, 100u);
  EXPECT_EQ(s.answered, 100u);
  EXPECT_NEAR(s.p50_ms, 0.1, 1e-9);
  EXPECT_NEAR(s.p99_ms, 0.1, 1e-9);
  EXPECT_NEAR(s.gen_lag_p99_us, 0.0, 1e-9);
  EXPECT_FALSE(s.generator_bound);

  // Make the late sends the tail: 5 of 100 requests sent 3 ms late.
  for (int i = 0; i < 5; ++i) {
    requests[i * 20].sent += 3.0;
    requests[i * 20].answered += 3.0;
  }
  const LevelStats late = summarize_level(requests, 16.0);
  EXPECT_NEAR(late.p99_ms, 3.1, 1e-9);
  EXPECT_NEAR(late.gen_lag_p99_us, 3000.0, 1e-6);
  EXPECT_TRUE(late.generator_bound);
}

TEST(Backlog, OutstandingProfileCountsDueButUnanswered) {
  const std::vector<RequestTiming> requests{
      {0.0, 0.0, 0.5}, {1.0, 1.0, 3.5}, {2.0, 2.0, 2.5}, {3.0, 3.0, -1.0}};
  const std::vector<double> profile = outstanding_profile(requests, 4);
  // Instants 0,1,2,3: at 0 one due; at 1 two due, one answered; at 2 three
  // due, one answered; at 3 four due, two answered.
  EXPECT_EQ(profile, (std::vector<double>{1.0, 1.0, 2.0, 2.0}));
}

TEST(Backlog, SteadyServiceIsNotGrowing) {
  std::vector<RequestTiming> requests;
  for (int i = 0; i < 3000; ++i) {
    // Mostly quick, with a periodic slow request.
    const double service = i % 100 == 0 ? 5.0 : 0.2;
    requests.push_back({i * 1.0, i * 1.0, i * 1.0 + service});
  }
  const LevelStats s = summarize_level(requests, 16.0);
  EXPECT_FALSE(s.backlog_growing);
}

TEST(Backlog, OverloadIsGrowing) {
  // Arrivals every 1 ms, a single server needing 1.25 ms each: the queue
  // grows by one request every 5 ms.
  std::vector<RequestTiming> requests;
  double free_at = 0.0;
  for (int i = 0; i < 3000; ++i) {
    const double due = i * 1.0;
    free_at = std::max(free_at, due) + 1.25;
    requests.push_back({due, due, free_at});
  }
  EXPECT_TRUE(summarize_level(requests, 16.0).backlog_growing);
}

TEST(Backlog, LostRequestsAccumulate) {
  std::vector<RequestTiming> requests;
  for (int i = 0; i < 300; ++i) {
    // From the middle on, nothing is answered.
    requests.push_back({i * 1.0, i * 1.0, i < 150 ? i + 0.1 : -1.0});
  }
  EXPECT_TRUE(backlog_growing(outstanding_profile(requests, 60), 16.0));
}

TEST(ResultLine, PrintsEveryDigitAndTheFixedKeys) {
  const std::string line =
      result_json(true, 12, 0, {{"latency_ms", 0.1 + 0.2, "ms"},
                                {"setup_s", 0.5, "s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 0.30000000000000004, "
            "\"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": "
            "\"s\"}}}");
}

}  // namespace
}  // namespace perfbench
