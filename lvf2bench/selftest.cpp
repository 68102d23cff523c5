// Self-tests of the benchmark's own machinery: percentile reporting,
// span self time, request-mix determinism, the result-line schema and
// the agreement of the metric catalog with BENCHMARK.json.
//
//   .bench_build/lvf2bench/lvf2bench_selftest

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "report.h"
#include "request_mix.h"
#include "spans.h"
#include "stats.h"

namespace lvf2bench {
namespace {

using lvf2::obs::JsonValue;

TEST(Percentiles, QuantileInterpolatesBetweenRanks) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 50.5);
  EXPECT_DOUBLE_EQ(median({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

TEST(Percentiles, TailKeepsTenSamplesBeyondIt) {
  EXPECT_DOUBLE_EQ(tail_quantile(1000), 0.99);
  EXPECT_DOUBLE_EQ(tail_quantile(5000), 0.99);
  EXPECT_DOUBLE_EQ(tail_quantile(200), 0.95);
  EXPECT_DOUBLE_EQ(tail_quantile(11), 1.0 - 10.0 / 11.0);
  EXPECT_DOUBLE_EQ(tail_quantile(10), 1.0);  // none qualifies: the max
  EXPECT_DOUBLE_EQ(tail_quantile(1), 1.0);
  for (std::size_t n : {11u, 50u, 200u, 999u, 1000u, 4000u}) {
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i));
    const LatencySummary s = summarize(v);
    EXPECT_EQ(s.count, n);
    std::size_t beyond = 0;
    for (const double x : v) beyond += x > s.tail ? 1 : 0;
    EXPECT_GE(beyond, 9u) << n;  // 10 up to interpolation
    EXPECT_LE(s.tail_q, 0.99);
  }
  const LatencySummary few = summarize({5.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(few.p50, 3.0);
  EXPECT_DOUBLE_EQ(few.tail, 5.0);
  EXPECT_DOUBLE_EQ(few.tail_q, 1.0);
}

TEST(Percentiles, GeometricMeanSkipsNonPositive) {
  EXPECT_NEAR(geometric_mean({1.0, 4.0, 16.0}), 4.0, 1e-12);
  EXPECT_NEAR(geometric_mean({2.0, 0.0, -1.0, 8.0}), 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(geometric_mean({}), 0.0);
}

Span make_span(const char* name, double start_ms, double end_ms, int parent) {
  Span s;
  s.name = name;
  s.start_ns = static_cast<std::int64_t>(start_ms * 1e6);
  s.end_ns = static_cast<std::int64_t>(end_ms * 1e6);
  s.parent = parent;
  return s;
}

TEST(SpanSelfTime, SubtractsTheUnionOfChildIntervals) {
  std::vector<Span> spans = {
      make_span("root", 0, 100, -1),
      make_span("a", 10, 30, 0),
      make_span("b", 20, 50, 0),   // overlaps a (parallel children)
      make_span("c", 60, 70, 0),
      make_span("d", 90, 120, 0),  // runs past the parent: clipped
      make_span("a.inner", 12, 18, 1),
  };
  const std::vector<double> self = self_times_ms(spans);
  EXPECT_NEAR(self[0], 100 - (40 + 10 + 10), 1e-9);
  EXPECT_NEAR(self[1], 20 - 6, 1e-9);
  EXPECT_NEAR(self[2], 30, 1e-9);
  EXPECT_NEAR(self[5], 6, 1e-9);
  const auto r = rollup(spans);
  EXPECT_EQ(r.at("root").count, 1u);
  EXPECT_NEAR(r.at("a").total_ms, 20, 1e-9);
  EXPECT_NEAR(r.at("a").self_ms, 14, 1e-9);
}

TEST(SpanSelfTime, ScopedSpansNestAndRecordOnlyWhenEnabled) {
  SpanRecorder& rec = SpanRecorder::instance();
  rec.clear();
  { ScopedSpan off("ignored"); }
  EXPECT_TRUE(rec.snapshot().empty());
  rec.enable(true);
  int outer_id = -1;
  {
    ScopedSpan outer("outer");
    outer_id = outer.id();
    { ScopedSpan inner("inner"); }
    { ScopedSpan other("explicit", -1); }
    EXPECT_EQ(current_span(), outer_id);
  }
  rec.enable(false);
  const std::vector<Span> spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].parent, outer_id);
  EXPECT_EQ(spans[2].parent, -1);
  EXPECT_EQ(current_span(), -1);
  for (const Span& s : spans) EXPECT_GE(s.end_ns, s.start_ns);
  const auto doc = lvf2::obs::json_parse(chrome_trace_json(spans));
  ASSERT_TRUE(doc.has_value());
  ASSERT_NE(doc->find("traceEvents"), nullptr);
  EXPECT_EQ(doc->find("traceEvents")->array.size(), 3u);
  rec.clear();
}

std::vector<MixRequest> draw(std::uint64_t seed, std::uint64_t stream,
                             std::size_t n) {
  RequestMix mix(seed, stream, 128);
  std::vector<MixRequest> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(mix.next());
  return out;
}

bool same(const std::vector<MixRequest>& a, const std::vector<MixRequest>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].op != b[i].op || a[i].key != b[i].key ||
        a[i].depth != b[i].depth || a[i].sigma != b[i].sigma) {
      return false;
    }
  }
  return true;
}

TEST(RequestMixTest, SameSeedSameStream) {
  EXPECT_TRUE(same(draw(7, 0, 2000), draw(7, 0, 2000)));
  EXPECT_FALSE(same(draw(7, 0, 2000), draw(8, 0, 2000)));
  EXPECT_FALSE(same(draw(7, 0, 2000), draw(7, 1, 2000)));
}

TEST(RequestMixTest, MixSharesAndRanges) {
  const std::vector<MixRequest> reqs = draw(3, 0, 40000);
  std::map<const char*, double> share;
  std::vector<int> key_count(128, 0);
  for (const MixRequest& r : reqs) {
    share[op_group(r.op)] += 1.0 / static_cast<double>(reqs.size());
    ASSERT_LT(r.key, 128u);
    ++key_count[r.key];
    if (r.op == OpKind::kPathSsta) {
      EXPECT_GE(r.depth, 2);
      EXPECT_LE(r.depth, 32);
    }
    if (r.op == OpKind::kYieldHs) {
      EXPECT_TRUE(r.sigma == 3 || r.sigma == 4);
    }
  }
  EXPECT_NEAR(share[op_group(OpKind::kBin)], 0.60, 0.02);
  EXPECT_NEAR(share[op_group(OpKind::kPathSsta)], 0.25, 0.02);
  EXPECT_NEAR(share[op_group(OpKind::kYieldHs)], 0.15, 0.02);
  // Zipf(1) over 128 keys: the hottest key takes ~18 % of requests and
  // is the seed's rank-0 key.
  RequestMix mix(3, 0, 128);
  const std::size_t hottest = mix.key_of_rank(0);
  EXPECT_NEAR(key_count[hottest] / static_cast<double>(reqs.size()), 0.184,
              0.02);
  for (int c : key_count) EXPECT_LE(c, key_count[hottest]);
}

RunResult complete_result() {
  RunResult r;
  r.attempted = 10;
  for (const MetricSpec& m : end_to_end_metrics()) r.set(m.name, 1.5);
  return r;
}

TEST(ResultSchema, ExactKeysAndValueUnitPairs) {
  RunResult r = complete_result();
  const std::string line = result_json(r, end_to_end_metrics());
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const auto doc = lvf2::obs::json_parse(line);
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  std::vector<std::string> keys;
  for (const auto& [k, v] : doc->object) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{"correct", "attempted", "failed",
                                            "metrics"}));
  EXPECT_TRUE(doc->find("correct")->boolean);
  EXPECT_EQ(doc->number_or("attempted", 0), 10);
  const JsonValue* metrics = doc->find("metrics");
  ASSERT_EQ(metrics->object.size(), end_to_end_metrics().size());
  for (const auto& [name, m] : metrics->object) {
    ASSERT_EQ(m.object.size(), 2u) << name;
    EXPECT_EQ(m.number_or("value", 0), 1.5);
    EXPECT_FALSE(m.string_or("unit", "").empty());
  }
}

TEST(ResultSchema, MissingNonFiniteOrUnknownMetricFailsTheRun) {
  RunResult missing = complete_result();
  missing.metrics.erase("setup_s");
  EXPECT_NE(result_json(missing, end_to_end_metrics()).find("\"correct\":false"),
            std::string::npos);
  RunResult nan = complete_result();
  nan.set("p50_ms", std::numeric_limits<double>::quiet_NaN());
  const std::string line = result_json(nan, end_to_end_metrics());
  EXPECT_FALSE(nan.correct);
  EXPECT_TRUE(lvf2::obs::json_parse(line).has_value());
  RunResult extra = complete_result();
  extra.set("made_up", 1.0);
  result_json(extra, end_to_end_metrics());
  EXPECT_FALSE(extra.correct);
  RunResult failed_check = complete_result();
  failed_check.check(false, "something broke");
  result_json(failed_check, end_to_end_metrics());
  EXPECT_FALSE(failed_check.correct);
}

void expect_catalog(const JsonValue& list, const std::vector<MetricSpec>& want,
                    bool bounded) {
  ASSERT_TRUE(list.is_array());
  ASSERT_EQ(list.array.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const JsonValue& m = list.array[i];
    EXPECT_EQ(m.string_or("name", ""), want[i].name);
    EXPECT_EQ(m.string_or("unit", ""), want[i].unit) << want[i].name;
    EXPECT_EQ(m.string_or("better", ""), want[i].better) << want[i].name;
    EXPECT_EQ(m.object.size(), bounded ? 4u : 3u) << want[i].name;
    if (bounded) {
      const double bound = m.number_or("bound", -1.0);
      EXPECT_GT(bound, 0.0);
      EXPECT_LE(bound, 0.25);
    }
  }
}

TEST(ResultSchema, CatalogMatchesBenchmarkJson) {
  std::ifstream in(LVF2BENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in.good()) << LVF2BENCH_BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = lvf2::obs::json_parse(text.str());
  ASSERT_TRUE(doc.has_value());
  expect_catalog(*doc->find("end_to_end"), end_to_end_metrics(), true);
  expect_catalog(*doc->find("per_layer"), per_layer_metrics(), false);
  double setup_bound = 0.0;
  double max_bound = 0.0;
  for (const JsonValue& m : doc->find("end_to_end")->array) {
    max_bound = std::max(max_bound, m.number_or("bound", 0.0));
    if (m.string_or("name", "") == "setup_s") {
      setup_bound = m.number_or("bound", 0.0);
    }
  }
  EXPECT_EQ(setup_bound, max_bound);  // set-up gets the largest bound
  std::set<std::string> workloads;
  for (const JsonValue& w : doc->find("workloads")->array) {
    workloads.insert(w.string_or("name", ""));
  }
  EXPECT_EQ(workloads, (std::set<std::string>{"charlib-cold", "serve-warm",
                                              "path-ssta"}));
}

}  // namespace
}  // namespace lvf2bench
