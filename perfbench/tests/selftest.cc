// Self-tests of the benchmark's own machinery: percentiles, the sample-count
// rule, metric names against BENCHMARK.json, self-time attribution, and the
// traced-run digest check. Build and run with `python3 perfbench/run.py
// --self-test`.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include <unistd.h>

#include "harness.h"
#include "measure.h"
#include "obs/json.h"

namespace perfbench {
namespace {

TEST(Percentile, ExactNearestRankOnSmallVectors) {
  std::vector<double> five = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(five, 0), 1);
  EXPECT_EQ(Percentile(five, 20), 1);
  EXPECT_EQ(Percentile(five, 21), 2);
  EXPECT_EQ(Percentile(five, 40), 2);
  EXPECT_EQ(Percentile(five, 50), 3);
  EXPECT_EQ(Percentile(five, 100), 5);
  EXPECT_EQ(Median(five), 3);

  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);
  EXPECT_EQ(Percentile(ten, 50), 5);
  EXPECT_EQ(Percentile(ten, 90), 9);
  EXPECT_EQ(Percentile(ten, 91), 10);
  EXPECT_EQ(Percentile(ten, 10), 1);
  EXPECT_EQ(Percentile({7}, 90), 7);
  EXPECT_EQ(Percentile({}, 50), 0);
}

TEST(Percentile, HighestSupportedLeavesTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(0), 0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50);
  EXPECT_EQ(HighestSupportedPercentile(99), 50);
  EXPECT_EQ(HighestSupportedPercentile(100), 90);
  EXPECT_EQ(HighestSupportedPercentile(999), 90);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99);
  EXPECT_EQ(HighestSupportedPercentile(9999), 99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  // The rule itself, for every n: at least ten samples lie beyond the
  // chosen rank, and the next candidate would leave fewer.
  const std::vector<double> candidates = {50, 90, 99, 99.9};
  for (size_t n = 1; n <= 20000; ++n) {
    double p = HighestSupportedPercentile(n);
    auto beyond = [&](double q) {
      return static_cast<double>(n) -
             std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9);
    };
    if (p > 0) {
      ASSERT_GE(beyond(p), 10) << "n=" << n;
    }
    if (p > 0 && n <= 2000) {
      // Beyond the nearest rank means strictly greater ranks.
      std::vector<double> v(n);
      for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
      double at = Percentile(v, p);
      ASSERT_GE(static_cast<double>(n) - 1 - at, 10) << "n=" << n;
    }
    for (double q : candidates) {
      if (q > p) {
        ASSERT_LT(beyond(q), 10) << "n=" << n << " q=" << q;
        break;
      }
    }
  }
}

TEST(FastestRepeats, TakesEachCallsMinimumOverEpisodes) {
  auto episode = [](std::vector<double> submit, double audit, double setup) {
    E2eStats e;
    e.submit_us = submit;
    e.audit_us = {audit};
    e.call_us = submit;
    e.call_us.push_back(audit);
    e.setup_s = {setup};
    e.verdicts = submit.size();
    return e;
  };
  FastestRepeats repeats;
  EXPECT_TRUE(repeats.fastest().submit_us.empty());
  EXPECT_TRUE(repeats.Add(episode({10, 30}, 5, 0.2)));
  EXPECT_TRUE(repeats.Add(episode({20, 25}, 4, 0.1)));
  EXPECT_TRUE(repeats.Add(episode({15, 40}, 6, 0.3)));
  const E2eStats& fastest = repeats.fastest();
  EXPECT_EQ(fastest.submit_us, (std::vector<double>{10, 25}));
  EXPECT_EQ(fastest.audit_us, (std::vector<double>{4}));
  EXPECT_EQ(fastest.call_us, (std::vector<double>{10, 25, 4}));
  EXPECT_EQ(fastest.setup_s, (std::vector<double>{0.2, 0.1, 0.3}));
  EXPECT_EQ(fastest.verdicts, 2u);
  EXPECT_EQ(fastest.timed_ns, 39000);

  // An episode that made other calls is refused and changes nothing.
  EXPECT_FALSE(repeats.Add(episode({1}, 1, 0.1)));
  EXPECT_EQ(repeats.fastest().timed_ns, 39000);
  EXPECT_EQ(repeats.fastest().setup_s.size(), 3u);
}

TEST(Metrics, NamesAreValidAndMatchBenchmarkJson) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in.good()) << PERFBENCH_BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  auto doc = prever::obs::Json::Parse(text.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  std::set<std::pair<std::string, std::string>> declared[2];
  for (int layer = 0; layer < 2; ++layer) {
    const prever::obs::Json* list =
        doc->Find(layer == 0 ? "end_to_end" : "per_layer");
    ASSERT_NE(list, nullptr);
    for (size_t i = 0; i < list->size(); ++i) {
      const prever::obs::Json& m = list->at(i);
      declared[layer].insert(
          {m.Find("name")->AsString(), m.Find("unit")->AsString()});
    }
  }
  std::set<std::pair<std::string, std::string>> printed[2];
  std::set<std::string> names;
  for (const MetricDef& m : AllMetrics()) {
    EXPECT_TRUE(ValidMetricName(m.name)) << m.name;
    EXPECT_TRUE(names.insert(m.name).second) << "duplicate " << m.name;
    printed[m.per_layer ? 1 : 0].insert({m.name, m.unit});
  }
  EXPECT_EQ(printed[0], declared[0]);
  EXPECT_EQ(printed[1], declared[1]);
  EXPECT_TRUE(names.count("setup_s"));

  const prever::obs::Json* workloads = doc->Find("workloads");
  ASSERT_NE(workloads, nullptr);
  EXPECT_EQ(workloads->size(), 2u);
  for (size_t i = 0; i < workloads->size(); ++i) {
    RunOptions options;
    options.workload = workloads->at(i).Find("name")->AsString();
    EXPECT_NE(MakeWorkload(options), nullptr) << options.workload;
  }

  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName("slash/name"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidMetricName("a.b-c_d9"));
}

TEST(Metrics, ResultLineHasExactlyTheRunKindsMetrics) {
  std::map<std::string, double> values;
  for (const MetricDef& m : AllMetrics()) values[m.name] = 1.5;
  std::string line = ResultLine(true, 3, 1, false, values);
  auto doc = prever::obs::Json::Parse(line);
  ASSERT_TRUE(doc.ok()) << line;
  EXPECT_EQ(doc->members().size(), 4u);
  EXPECT_EQ(doc->Find("attempted")->AsUint64(), 3u);
  EXPECT_EQ(doc->Find("metrics")->size(), 7u);
  values.erase("setup_s");
  EXPECT_EQ(ResultLine(true, 3, 1, false, values), "");
  EXPECT_NE(ResultLine(true, 3, 1, true, values), "");
}

TEST(SpanLog, SelfTimesPartitionTheRootWithoutDoubleCounting) {
  SpanLog log;
  uint32_t root = log.Add(Layer::kSubmit, SpanLog::kNoParent, 0, 100);
  log.Add(Layer::kConstraint, root, 10, 40);
  uint32_t order = log.Add(Layer::kConsensus, root, 50, 90);
  log.Add(Layer::kLedger, order, 60, 70);
  EXPECT_EQ(log.CheckNesting(), "");
  auto self = log.SelfNs();
  EXPECT_EQ(self[static_cast<size_t>(Layer::kSubmit)], 30);
  EXPECT_EQ(self[static_cast<size_t>(Layer::kConstraint)], 30);
  EXPECT_EQ(self[static_cast<size_t>(Layer::kConsensus)], 30);
  EXPECT_EQ(self[static_cast<size_t>(Layer::kLedger)], 10);
  int64_t sum = 0;
  for (int64_t v : self) sum += v;
  EXPECT_EQ(sum, log.RootNs(Layer::kSubmit));

  SpanLog overlap;
  uint32_t r = overlap.Add(Layer::kSubmit, SpanLog::kNoParent, 0, 100);
  overlap.Add(Layer::kConstraint, r, 10, 40);
  overlap.Add(Layer::kStorage, r, 30, 50);
  EXPECT_NE(overlap.CheckNesting(), "");

  SpanLog outside;
  uint32_t o = outside.Add(Layer::kSubmit, SpanLog::kNoParent, 0, 100);
  outside.Add(Layer::kConstraint, o, 90, 110);
  EXPECT_NE(outside.CheckNesting(), "");

  SpanLog live;
  {
    SpanLog::Scope a(live, Layer::kSubmit);
    SpanLog::Scope b(live, Layer::kStorage);
  }
  EXPECT_EQ(live.CheckNesting(), "");
  EXPECT_EQ(live.spans()[1].parent, 0u);
}

RunReport TracedRun(const std::string& workload, uint32_t steps) {
  RunOptions options;
  options.workload = workload;
  options.seed = 3;
  options.seconds = 0.001;  // One episode.
  options.trace = true;
  options.traced_steps = steps;
  // Relative to the working directory, which the runner sets to the build
  // directory.
  options.workdir = "perfbench-selftest-" + std::to_string(::getpid());
  std::filesystem::create_directories(options.workdir);
  std::unique_ptr<Workload> w = MakeWorkload(options);
  RunReport report = RunWorkload(*w, options);
  std::filesystem::remove_all(options.workdir);
  return report;
}

TEST(TracedRun, MatchesTheEngineWithEveryStep) {
  RunReport report = TracedRun("ycsb_upsert", kStepAll);
  EXPECT_TRUE(report.correct);
  EXPECT_EQ(report.digest_mismatches, 0u);
  for (const std::string& e : report.errors) ADD_FAILURE() << e;
}

TEST(TracedRun, DigestCheckFailsWhenOneStepIsLeftOut) {
  for (uint32_t step : {kStepVerify, kStepApply, kStepOrder}) {
    RunReport report = TracedRun("ycsb_upsert", kStepAll & ~step);
    EXPECT_FALSE(report.correct) << "step " << step;
    EXPECT_GT(report.digest_mismatches, 0u) << "step " << step;
  }
  RunReport report = TracedRun("separ_token", kStepAll & ~kStepWithdraw);
  EXPECT_FALSE(report.correct);
  EXPECT_GT(report.digest_mismatches, 0u);
}

}  // namespace
}  // namespace perfbench
