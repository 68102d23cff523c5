// Observability subsystem: metrics registry semantics, Chrome-trace
// JSON well-formedness (the emitted file must actually parse), log
// level filtering and structured formatting, and the guarantee that
// every sink is a no-op when its environment variable is unset.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/obs.h"

namespace {

using namespace lvf2;

// Member `key` of object `v`. A missing key fails the test and yields a
// null value, so tests can walk nested documents in one expression.
const obs::JsonValue& at(const obs::JsonValue& v, std::string_view key) {
  static const obs::JsonValue null_value;
  const obs::JsonValue* found = v.find(key);
  if (found == nullptr) {
    ADD_FAILURE() << "missing JSON key: " << key;
    return null_value;
  }
  return *found;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

// --- Metrics registry ---

TEST(MetricsRegistry, CounterAccumulatesAndIsStable) {
  obs::Counter& c = obs::counter("test.counter.a");
  const std::uint64_t before = c.value();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), before + 42);
  // Same name -> same instrument (stable address).
  EXPECT_EQ(&c, &obs::counter("test.counter.a"));
  EXPECT_NE(&c, &obs::counter("test.counter.b"));
}

TEST(MetricsRegistry, GaugeLastWriteWins) {
  obs::Gauge& g = obs::gauge("test.gauge");
  g.set(1.5);
  g.set(-2.25);
  EXPECT_DOUBLE_EQ(g.value(), -2.25);
}

TEST(MetricsRegistry, HistogramBucketsAndOverflow) {
  obs::Histogram& h = obs::histogram("test.hist", {1.0, 2.0, 4.0});
  h.observe(0.5);   // bucket 0 (<= 1)
  h.observe(1.0);   // bucket 0 (inclusive upper bound)
  h.observe(3.0);   // bucket 2 (<= 4)
  h.observe(100.0); // overflow bucket
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 finite + overflow
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 104.5);
  // Re-lookup keeps the original bounds.
  obs::Histogram& again = obs::histogram("test.hist", {99.0});
  EXPECT_EQ(&again, &h);
  EXPECT_EQ(again.bounds().size(), 3u);
}

TEST(MetricsRegistry, HistogramEmptyBoundsIsAllOverflow) {
  obs::Histogram& h = obs::histogram("test.hist.empty", {});
  h.observe(-1.0);
  h.observe(0.0);
  h.observe(1e9);
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 1u);  // overflow bucket only
  EXPECT_EQ(counts[0], 3u);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 1e9 - 1.0);
}

TEST(MetricsRegistry, HistogramNegativeValuesAndBounds) {
  obs::Histogram& h = obs::histogram("test.hist.neg", {-2.0, 0.0, 2.0});
  h.observe(-3.0);  // bucket 0 (<= -2)
  h.observe(-1.0);  // bucket 1 (<= 0)
  h.observe(-0.0);  // bucket 1 (inclusive upper bound)
  h.observe(1.5);   // bucket 2 (<= 2)
  h.observe(2.5);   // overflow
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_DOUBLE_EQ(h.sum(), -3.0 - 1.0 + 1.5 + 2.5);
}

TEST(MetricsRegistry, HistogramConcurrentObserveLosesNothing) {
  obs::Histogram& h = obs::histogram("test.hist.mt", {10.0, 20.0});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(static_cast<double>(t * 10));  // buckets 0,0,1,2
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u * kPerThread);  // values 0 and 10
  EXPECT_EQ(counts[1], 1u * kPerThread);  // value 20
  EXPECT_EQ(counts[2], 1u * kPerThread);  // value 30 overflows
  EXPECT_DOUBLE_EQ(h.sum(), (0.0 + 10.0 + 20.0 + 30.0) * kPerThread);
}

TEST(MetricsRegistry, JsonDumpParsesAndContainsInstruments) {
  obs::counter("test.json.counter").add(7);
  obs::gauge("test.json.gauge").set(3.5);
  obs::histogram("test.json.hist", {10.0}).observe(5.0);

  const std::string json =
      obs::json_write(obs::MetricsRegistry::instance().to_json());
  std::string error;
  const std::optional<obs::JsonValue> doc = obs::json_parse(json, &error);
  ASSERT_TRUE(doc.has_value()) << error << "\n" << json;
  const obs::JsonValue& root = *doc;
  ASSERT_EQ(root.type, obs::JsonValue::Type::kObject);
  EXPECT_GE(at(at(root, "counters"), "test.json.counter").number, 7.0);
  EXPECT_DOUBLE_EQ(at(at(root, "gauges"), "test.json.gauge").number, 3.5);
  const obs::JsonValue& hist = at(at(root, "histograms"), "test.json.hist");
  EXPECT_EQ(at(hist, "bounds").array.size(), 1u);
  EXPECT_EQ(at(hist, "counts").array.size(), 2u);
  EXPECT_GE(at(hist, "count").number, 1.0);
}

TEST(MetricsRegistry, DigestInstrumentSnapshotsAndExports) {
  obs::Digest& d = obs::digest("test.digest.latency");
  for (int i = 1; i <= 200; ++i) d.observe(static_cast<double>(i));
  EXPECT_GE(d.count(), 200.0);
  EXPECT_NEAR(d.quantile(0.5), 100.0, 10.0);

  // JSON dump: digests section carries centroids plus the headline
  // pre-computed quantile block.
  const std::string json =
      obs::json_write(obs::MetricsRegistry::instance().to_json());
  std::string error;
  const std::optional<obs::JsonValue> doc = obs::json_parse(json, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const obs::JsonValue& root = *doc;
  const obs::JsonValue& dig = at(at(root, "digests"), "test.digest.latency");
  EXPECT_GE(at(dig, "count").number, 200.0);
  EXPECT_EQ(at(dig, "centroids").type, obs::JsonValue::Type::kArray);
  EXPECT_GT(at(dig, "centroids").array.size(), 0u);
  const obs::JsonValue& q = at(dig, "q");
  EXPECT_NEAR(at(q, "p50").number, 100.0, 10.0);
  EXPECT_GE(at(q, "p99").number, at(q, "p50").number);

  // Prometheus exposition: a summary family with quantile labels and
  // the _sum/_count pair.
  const std::string prom = obs::MetricsRegistry::instance().to_prometheus();
  EXPECT_NE(prom.find("# TYPE lvf2_test_digest_latency summary"),
            std::string::npos);
  EXPECT_NE(prom.find("lvf2_test_digest_latency{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("lvf2_test_digest_latency_count"), std::string::npos);
  EXPECT_NE(prom.find("lvf2_test_digest_latency_sum"), std::string::npos);
}

// Labelled families: one series per label set, one `# TYPE` line per
// family ahead of all of that family's samples, label values escaped,
// and a digest's quantile label merged into the series' own labels.
TEST(MetricsRegistry, LabelledFamiliesRenderAsOneBlockEach) {
  obs::counter("test.family.plain").add(2);
  obs::Counter& ping = obs::counter("test.family.requests", {{"op", "ping"}});
  ping.add(3);
  obs::counter("test.family.requests", {{"op", "x\"y\\z\nw"}}).add(1);
  obs::digest("test.family.latency", {{"op", "ping"}}).observe(1.0);
  obs::digest("test.family.latency", {{"op", "bin"}}).observe(2.0);
  EXPECT_EQ(&ping, &obs::counter("test.family.requests", {{"op", "ping"}}));
  EXPECT_NE(&ping, &obs::counter("test.family.requests"));

  const std::string json =
      obs::json_write(obs::MetricsRegistry::instance().to_json());
  std::string error;
  const std::optional<obs::JsonValue> doc = obs::json_parse(json, &error);
  ASSERT_TRUE(doc.has_value()) << error << "\n" << json;
  const obs::JsonValue& counters = at(*doc, "counters");
  EXPECT_GE(at(counters, "test.family.plain").number, 2.0);
  EXPECT_GE(at(counters, "test.family.requests{op=\"ping\"}").number, 3.0);
  EXPECT_TRUE(at(*doc, "digests").has("test.family.latency{op=\"bin\"}"));

  // A skip prefix leaves out whole families and nothing else.
  const obs::JsonValue skipped =
      obs::MetricsRegistry::instance().to_json("test.family.l");
  EXPECT_FALSE(at(skipped, "digests").has("test.family.latency{op=\"bin\"}"));
  EXPECT_TRUE(at(skipped, "counters").has("test.family.plain"));

  const std::string prom = obs::MetricsRegistry::instance().to_prometheus();
  std::set<std::string> declared;
  std::string current;
  std::istringstream lines(prom);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("# TYPE ", 0) == 0) {
      current = line.substr(7, line.find(' ', 7) - 7);
      EXPECT_TRUE(declared.insert(current).second)
          << current << " declared twice";
      continue;
    }
    // A sample belongs to the family declared right above it; with
    // every family declared once, that also makes them contiguous.
    std::string family = line.substr(0, line.find_first_of("{ "));
    for (const std::string_view suffix : {"_bucket", "_sum", "_count"}) {
      if (family != current && family.ends_with(suffix)) {
        family.resize(family.size() - suffix.size());
      }
    }
    EXPECT_EQ(family, current) << line;
  }
  EXPECT_EQ(declared.count("lvf2_test_family_requests_total"), 1u);
  EXPECT_NE(prom.find("lvf2_test_family_requests_total{op=\"ping\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("lvf2_test_family_requests_total"
                      "{op=\"x\\\"y\\\\z\\nw\"} 1\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(
      prom.find("lvf2_test_family_latency{op=\"bin\",quantile=\"0.5\"} 2"),
      std::string::npos);
  EXPECT_NE(prom.find("lvf2_test_family_latency_count{op=\"ping\"} 1\n"),
            std::string::npos);
}

TEST(MetricsRegistry, WriteJsonRoundTrips) {
  const std::string path = temp_path("lvf2_metrics_test.json");
  obs::counter("test.file.counter").add(1);
  obs::MetricsRegistry::instance().write_json(path);
  std::string error;
  const std::optional<obs::JsonValue> doc =
      obs::json_parse(read_file(path), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const obs::JsonValue& root = *doc;
  EXPECT_TRUE(at(root, "counters").has("test.file.counter"));
  std::remove(path.c_str());
}

// --- Tracer ---

TEST(Tracer, DisabledByDefaultWhenEnvUnset) {
  if (std::getenv("LVF2_TRACE") != nullptr) {
    GTEST_SKIP() << "LVF2_TRACE is set in this environment";
  }
  EXPECT_FALSE(obs::trace_enabled());
}

TEST(Tracer, EmitsParseableChromeTraceJson) {
  if (obs::trace_enabled()) {
    GTEST_SKIP() << "a trace session is already active";
  }
  const std::string path = temp_path("lvf2_trace_test.json");
  obs::Tracer::instance().start(path);
  ASSERT_TRUE(obs::trace_enabled());
  {
    obs::TraceSpan outer("outer", [] {
      return obs::ArgsBuilder()
          .add("cell", "NAND2 \"X1\"")  // exercises escaping
          .add("samples", 123)
          .add("ratio", 0.5)
          .str();
    });
    obs::TraceSpan inner("inner");
    obs::trace_counter("test.counter", -1.5);
  }
  obs::Tracer::instance().stop();
  EXPECT_FALSE(obs::trace_enabled());

  std::string error;
  const std::optional<obs::JsonValue> doc =
      obs::json_parse(read_file(path), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const obs::JsonValue& root = *doc;
  const obs::JsonValue& events = at(root, "traceEvents");
  ASSERT_EQ(events.type, obs::JsonValue::Type::kArray);
  ASSERT_EQ(events.array.size(), 3u);

  int spans = 0, counters = 0;
  for (const obs::JsonValue& e : events.array) {
    ASSERT_EQ(e.type, obs::JsonValue::Type::kObject);
    EXPECT_TRUE(e.has("name"));
    EXPECT_TRUE(e.has("ts"));
    EXPECT_TRUE(e.has("pid"));
    EXPECT_TRUE(e.has("tid"));
    const std::string& ph = at(e, "ph").string;
    if (ph == "X") {
      ++spans;
      EXPECT_GE(at(e, "dur").number, 0.0);
    } else if (ph == "C") {
      ++counters;
      EXPECT_DOUBLE_EQ(at(at(e, "args"), "value").number, -1.5);
    }
  }
  EXPECT_EQ(spans, 2);
  EXPECT_EQ(counters, 1);

  // The outer span's args survived with escaping intact.
  bool found_outer = false;
  for (const obs::JsonValue& e : events.array) {
    if (at(e, "name").string == "outer") {
      found_outer = true;
      EXPECT_EQ(at(at(e, "args"), "cell").string, "NAND2 \"X1\"");
      EXPECT_DOUBLE_EQ(at(at(e, "args"), "samples").number, 123.0);
    }
  }
  EXPECT_TRUE(found_outer);
  std::remove(path.c_str());
}

TEST(Tracer, SpanArgsCallbackNotInvokedWhenDisabled) {
  if (obs::trace_enabled()) {
    GTEST_SKIP() << "a trace session is already active";
  }
  bool invoked = false;
  {
    obs::TraceSpan span("disabled", [&] {
      invoked = true;
      return std::string("{}");
    });
  }
  EXPECT_FALSE(invoked);
}

TEST(Tracer, ArgsBuilderRendersJsonObject) {
  const std::string json =
      obs::ArgsBuilder().add("a", "x").add("b", 2).add("c", 1.5).str();
  std::string error;
  const std::optional<obs::JsonValue> doc = obs::json_parse(json, &error);
  ASSERT_TRUE(doc.has_value()) << error << "\n" << json;
  const obs::JsonValue& root = *doc;
  EXPECT_EQ(at(root, "a").string, "x");
  EXPECT_DOUBLE_EQ(at(root, "b").number, 2.0);
  EXPECT_DOUBLE_EQ(at(root, "c").number, 1.5);
}

// --- Logger ---

// One file per test: ctest runs the Logger tests as parallel
// processes, and a shared path lets one truncate another's capture.
class LogCapture {
 public:
  LogCapture()
      : path_(temp_path("lvf2_log_test_") +
              testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".txt") {
    stream_ = std::fopen(path_.c_str(), "w+");
    obs::set_log_stream(stream_);
  }
  ~LogCapture() {
    obs::set_log_stream(nullptr);
    std::fclose(stream_);
    std::remove(path_.c_str());
  }
  std::string text() {
    std::fflush(stream_);
    return read_file(path_);
  }

 private:
  std::string path_;
  std::FILE* stream_;
};

TEST(Logger, OffByDefaultWhenEnvUnset) {
  if (std::getenv("LVF2_LOG") != nullptr) {
    GTEST_SKIP() << "LVF2_LOG is set in this environment";
  }
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::kError));
}

TEST(Logger, ParseLogLevel) {
  EXPECT_EQ(obs::parse_log_level("debug"), obs::LogLevel::kDebug);
  EXPECT_EQ(obs::parse_log_level("info"), obs::LogLevel::kInfo);
  EXPECT_EQ(obs::parse_log_level("warn"), obs::LogLevel::kWarn);
  EXPECT_EQ(obs::parse_log_level("error"), obs::LogLevel::kError);
  EXPECT_EQ(obs::parse_log_level("bogus"), obs::LogLevel::kOff);
}

TEST(Logger, LevelFiltering) {
  LogCapture capture;
  obs::set_log_level(obs::LogLevel::kWarn);
  obs::log_debug("dropped.debug");
  obs::log_info("dropped.info");
  obs::log_warn("kept.warn");
  obs::log_error("kept.error");
  obs::set_log_level(obs::LogLevel::kOff);

  const std::string text = capture.text();
  EXPECT_EQ(text.find("dropped."), std::string::npos);
  EXPECT_NE(text.find("kept.warn"), std::string::npos);
  EXPECT_NE(text.find("kept.error"), std::string::npos);
}

TEST(Logger, StructuredFieldsAndQuoting) {
  LogCapture capture;
  obs::set_log_level(obs::LogLevel::kInfo);
  obs::log_info("em.fit", {{"cell", "NAND2 X1"},
                           {"arc", "A->Y"},
                           {"iterations", std::size_t{17}},
                           {"converged", true},
                           {"ll", -42.5}});
  obs::set_log_level(obs::LogLevel::kOff);

  const std::string text = capture.text();
  EXPECT_NE(text.find("em.fit"), std::string::npos);
  EXPECT_NE(text.find("cell=\"NAND2 X1\""), std::string::npos);  // quoted
  EXPECT_NE(text.find("arc=A->Y"), std::string::npos);  // no quoting needed
  EXPECT_NE(text.find("iterations=17"), std::string::npos);
  EXPECT_NE(text.find("converged=true"), std::string::npos);
  EXPECT_NE(text.find("info] "), std::string::npos) << text;
}

TEST(Logger, DisabledLevelEmitsNothing) {
  LogCapture capture;
  obs::set_log_level(obs::LogLevel::kOff);
  obs::log_error("should.not.appear");
  EXPECT_TRUE(capture.text().empty());
}

}  // namespace
