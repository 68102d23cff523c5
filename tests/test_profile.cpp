// Tests of the performance-observability layer: LVF2_PROFILE spec
// parsing, folded-stack aggregation (FoldedProfile and the
// lvf2_report parser), stage tagging, an end-to-end sampling session,
// the resource accountant, and the perf-budget differ. The signal
// machinery is cooperative and process-global; each TEST runs as its
// own process (gtest_discover_tests), and every test that starts a
// session stops it before returning.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exec/pool.h"
#include "obs/obs.h"
#include "report.h"

namespace lvf2 {
namespace {

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- LVF2_PROFILE spec parsing -------------------------------------

TEST(ProfileSpec, PathOnlyUsesDefaultRate) {
  const auto options = obs::prof::parse_profile_spec("/tmp/out.folded");
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->path, "/tmp/out.folded");
  EXPECT_EQ(options->hz, 97);
}

TEST(ProfileSpec, ParsesAndClampsRate) {
  auto options = obs::prof::parse_profile_spec("p.folded,hz=250");
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->path, "p.folded");
  EXPECT_EQ(options->hz, 250);

  options = obs::prof::parse_profile_spec("p.folded,hz=99999");
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->hz, 1000);  // clamped to the ceiling
}

TEST(ProfileSpec, RejectsEmptyPathAndGarbageRate) {
  std::string error;
  EXPECT_FALSE(obs::prof::parse_profile_spec(nullptr, &error).has_value());
  EXPECT_FALSE(obs::prof::parse_profile_spec("", &error).has_value());
  EXPECT_FALSE(
      obs::prof::parse_profile_spec(",hz=97", &error).has_value());
  EXPECT_FALSE(
      obs::prof::parse_profile_spec("p,hz=abc", &error).has_value());
  EXPECT_FALSE(error.empty());
  // Only ",hz=" is special; a comma elsewhere is part of the path.
  const auto comma_path = obs::prof::parse_profile_spec("p,bogus=1");
  ASSERT_TRUE(comma_path.has_value());
  EXPECT_EQ(comma_path->path, "p,bogus=1");
}

// --- folded-stack aggregation --------------------------------------

TEST(FoldedProfile, AggregatesIdenticalStacksAndRendersRootFirst) {
  obs::prof::FoldedProfile profile;
  const void* inner = reinterpret_cast<const void*>(0x1001);
  const void* outer = reinterpret_cast<const void*>(0x2002);
  const void* frames[] = {inner, outer};  // innermost first (walk order)
  profile.add("em.fit", frames, 2);
  profile.add("em.fit", frames, 2, 4);
  const void* other[] = {outer};
  profile.add("spice.mc", other, 1);
  profile.add("", other, 1);  // untagged

  EXPECT_EQ(profile.total_samples(), 7u);
  EXPECT_EQ(profile.distinct_stacks(), 3u);

  const std::string folded = profile.render([&](const void* addr) {
    return addr == inner ? std::string("inner_fn") : std::string("outer_fn");
  });
  // Root-first: the stage tag leads, then outer, then inner.
  EXPECT_NE(folded.find("em.fit;outer_fn;inner_fn 5\n"), std::string::npos);
  EXPECT_NE(folded.find("spice.mc;outer_fn 1\n"), std::string::npos);
  EXPECT_NE(folded.find("(untagged);outer_fn 1\n"), std::string::npos);
}

TEST(ReportFolded, ParsesAggregatesAndRejectsMalformedLines) {
  const auto stacks = tools::parse_folded(
      "characterize;run_mc 3\r\nem.fit;solve 2\ncharacterize;run_mc 4\n\n");
  ASSERT_TRUE(stacks.has_value());
  ASSERT_EQ(stacks->size(), 2u);
  std::uint64_t characterize = 0;
  for (const tools::FoldedStack& s : *stacks) {
    if (s.stack == "characterize;run_mc") characterize = s.count;
  }
  EXPECT_EQ(characterize, 7u);

  std::string error;
  EXPECT_FALSE(tools::parse_folded("no_trailing_count", &error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(tools::parse_folded("stack 12x", &error).has_value());
}

TEST(ReportFolded, FlameRollsUpStagesAndRanksStacks) {
  const auto stacks = tools::parse_folded(
      "characterize;a;b 60\ncharacterize;a 30\nem.fit;c 10\n");
  ASSERT_TRUE(stacks.has_value());
  const std::string flame = tools::render_flame(*stacks, 2);
  EXPECT_NE(flame.find("total: 100 samples, 3 distinct stacks"),
            std::string::npos);
  // Stage rollup sums both characterize stacks (90%) above em.fit.
  const std::size_t characterize_pos = flame.find("90.0%) characterize");
  const std::size_t em_pos = flame.find("10.0%) em.fit");
  ASSERT_NE(characterize_pos, std::string::npos);
  ASSERT_NE(em_pos, std::string::npos);
  EXPECT_LT(characterize_pos, em_pos);
  // top 2 keeps the hottest stacks only.
  EXPECT_NE(flame.find("characterize;a;b"), std::string::npos);
  EXPECT_EQ(flame.find("em.fit;c"), std::string::npos);
}

// --- stage tagging --------------------------------------------------

TEST(ProfileStage, PushPopNestsAndTracksInnermost) {
  EXPECT_EQ(obs::prof::current_stage(), "");
  obs::prof::push_stage("characterize");
  EXPECT_EQ(obs::prof::current_stage(), "characterize");
  obs::prof::push_stage("em.fit");
  EXPECT_EQ(obs::prof::current_stage(), "em.fit");
  obs::prof::pop_stage();
  EXPECT_EQ(obs::prof::current_stage(), "characterize");
  obs::prof::pop_stage();
  EXPECT_EQ(obs::prof::current_stage(), "");
  obs::prof::pop_stage();  // underflow is a no-op
  EXPECT_EQ(obs::prof::current_stage(), "");
}

TEST(ProfileStage, DeepNestingKeepsDeepestTaggedStage) {
  for (int i = 0; i < 20; ++i) {
    obs::prof::push_stage("level" + std::to_string(i));
  }
  // Slots beyond the fixed budget are dropped; the deepest tagged
  // stage stays current until its matching pops unwind.
  const std::string deepest = obs::prof::current_stage();
  EXPECT_FALSE(deepest.empty());
  for (int i = 0; i < 20; ++i) obs::prof::pop_stage();
  EXPECT_EQ(obs::prof::current_stage(), "");
}

// --- end-to-end sampling session -----------------------------------

TEST(Profiler, SamplesBusyLoopIntoFoldedFile) {
  obs::prof::Profiler& profiler = obs::prof::Profiler::instance();
  ASSERT_FALSE(profiler.running());
  obs::prof::ProfileOptions options;
  options.path = temp_path("profile_session.folded");
  options.hz = 500;
  if (!profiler.start(options)) {
    GTEST_SKIP() << "platform without profiler support";
  }
  EXPECT_TRUE(profiler.running());
  EXPECT_TRUE(obs::prof::profiler_enabled());
  EXPECT_FALSE(profiler.start(options));  // one session at a time

  volatile double sink = 0.0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(400);
  {
    obs::TraceSpan span("profile.test.busy");
    while (std::chrono::steady_clock::now() < deadline) {
      for (int i = 1; i < 2000; ++i) sink = sink + 1.0 / i;
    }
  }
  profiler.stop();
  EXPECT_FALSE(profiler.running());
  EXPECT_FALSE(obs::prof::profiler_enabled());
  profiler.stop();  // idempotent

  const obs::prof::ProfileStats stats = profiler.stats();
  EXPECT_GT(stats.samples, 0u);
  EXPECT_GE(stats.threads, 1u);

  const std::string folded = read_file(options.path);
  ASSERT_FALSE(folded.empty());
  // Samples taken inside the span carry its stage tag at the root.
  EXPECT_NE(folded.find("profile.test.busy"), std::string::npos);
  // The folded file round-trips through the report parser.
  const auto stacks = tools::parse_folded(folded);
  ASSERT_TRUE(stacks.has_value());
  std::uint64_t total = 0;
  for (const tools::FoldedStack& s : *stacks) total += s.count;
  EXPECT_EQ(total, stats.samples);
  std::remove(options.path.c_str());
}

// Parked pool workers are sampled but not folded: their samples count
// apart as ProfileStats::idle, so the folded file holds only work.
TEST(Profiler, ParkedPoolWorkersCountApart) {
  exec::Pool pool(2);
  // One job first, so both workers have started and gone back to their
  // wait before the session begins.
  pool.run(2, 1, 3, [](std::size_t) {});
  obs::prof::Profiler& profiler = obs::prof::Profiler::instance();
  ASSERT_FALSE(profiler.running());
  obs::prof::ProfileOptions options;
  options.path = temp_path("profile_parked.folded");
  options.hz = 500;
  if (!profiler.start(options)) {
    GTEST_SKIP() << "platform without profiler support";
  }
  volatile double sink = 0.0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  {
    obs::TraceSpan span("profile.test.busy");
    while (std::chrono::steady_clock::now() < deadline) {
      for (int i = 1; i < 2000; ++i) sink = sink + 1.0 / i;
    }
  }
  profiler.stop();

  const obs::prof::ProfileStats stats = profiler.stats();
  EXPECT_GT(stats.idle, 0u);
  EXPECT_GT(stats.samples, 0u);
  const auto stacks = tools::parse_folded(read_file(options.path));
  ASSERT_TRUE(stacks.has_value());
  std::uint64_t total = 0, busy = 0;
  for (const tools::FoldedStack& s : *stacks) {
    total += s.count;
    if (s.stack.rfind("profile.test.busy", 0) == 0) busy += s.count;
  }
  EXPECT_EQ(total, stats.samples);
  // The folded file is the busy main thread's: two parked workers
  // would otherwise hold about two thirds of it. A worker can still be
  // sampled on its way back into the wait, so the bound is not 100 %.
  EXPECT_GE(busy * 10, total * 8) << busy << " of " << total;
  std::remove(options.path.c_str());
}

// --- resource accountant -------------------------------------------

TEST(Resource, UsageReportsPeakRssAndCpu) {
  const obs::ResourceUsage usage = obs::resource_usage();
  EXPECT_GT(usage.peak_rss_kb, 0u);  // the test process is resident
  const std::string json = obs::json_write(obs::resource_section());
  EXPECT_NE(json.find("\"peak_rss_kb\":"), std::string::npos);
  EXPECT_NE(json.find("\"utime_s\":"), std::string::npos);
  EXPECT_NE(json.find("\"alloc\":{\"enabled\":"), std::string::npos);
}

TEST(Resource, AllocCountersTrackNewWhenEnabled) {
  ASSERT_FALSE(obs::alloc_stats_enabled());  // env-off default
  obs::set_alloc_stats(true);
  const obs::AllocSnapshot process_before = obs::process_alloc_totals();
  const obs::AllocSnapshot thread_before = obs::thread_alloc_totals();
  {
    std::vector<char> block(1 << 16);
    block[0] = 1;
    EXPECT_EQ(block[0], 1);
  }
  const obs::AllocSnapshot process_after = obs::process_alloc_totals();
  const obs::AllocSnapshot thread_after = obs::thread_alloc_totals();
  obs::set_alloc_stats(false);
  EXPECT_GT(process_after.count, process_before.count);
  EXPECT_GE(process_after.bytes - process_before.bytes, std::uint64_t{1}
                                                            << 16);
  EXPECT_GT(thread_after.count, thread_before.count);
}

TEST(Resource, StageRollupAppearsInResourceSection) {
  // A closing span adds its allocations to its stage rollup; the
  // resource section lists only the stages that allocated.
  obs::Tracer::instance().enable_rollup();
  obs::set_alloc_stats(true);
  {
    obs::TraceSpan span("test.resource.stage");
    std::vector<char> block(4096);
    block[0] = 1;
    EXPECT_EQ(block[0], 1);
  }
  { obs::TraceSpan quiet("test.quiet"); }
  obs::set_alloc_stats(false);
  const obs::JsonValue doc = obs::resource_section();
  const obs::JsonValue* stages = doc.find("stages");
  ASSERT_NE(stages, nullptr);
  const obs::JsonValue* stage = stages->find("test.resource.stage");
  ASSERT_NE(stage, nullptr);
  EXPECT_GE(stage->number_or("alloc_count", 0.0), 1.0);
  EXPECT_GE(stage->number_or("alloc_bytes", 0.0), 4096.0);
  EXPECT_EQ(stages->find("test.quiet"), nullptr);
}

// --- perf-budget differ --------------------------------------------

obs::JsonValue perf_manifest(double characterize_ms, double rss_kb) {
  std::ostringstream doc;
  doc << "{\"schema_version\":1,\"tool\":\"lvf2\","
      << "\"stages\":{\"characterize\":{\"count\":1,\"wall_ms\":"
      << characterize_ms << ",\"cpu_ms\":" << characterize_ms << "},"
      << "\"em.fit\":{\"count\":4,\"wall_ms\":10.0,\"cpu_ms\":9.0}},"
      << "\"resource\":{\"peak_rss_kb\":" << rss_kb
      << ",\"utime_s\":1.0,\"stime_s\":0.25}}";
  auto parsed = obs::json_parse(doc.str());
  EXPECT_TRUE(parsed.has_value());
  return *parsed;
}

TEST(PerfDiff, WithinBudgetPasses) {
  const obs::JsonValue baseline = perf_manifest(100.0, 50000.0);
  const obs::JsonValue current = perf_manifest(130.0, 55000.0);
  tools::PerfBudget budget;
  budget.pct = 50.0;
  budget.abs_ms = 5.0;
  budget.abs_kb = 1024.0;
  const tools::DiffResult result =
      tools::diff_perf(baseline, current, budget);
  EXPECT_TRUE(result.ok()) << (result.regressions.empty()
                                   ? ""
                                   : result.regressions.front());
}

TEST(PerfDiff, FlagsInflatedStageWallTime) {
  const obs::JsonValue baseline = perf_manifest(100.0, 50000.0);
  const obs::JsonValue current = perf_manifest(100.0 * 100, 50000.0);
  tools::PerfBudget budget;
  budget.pct = 300.0;
  budget.abs_ms = 500.0;
  const tools::DiffResult result =
      tools::diff_perf(baseline, current, budget);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.regressions.front().find("characterize"),
            std::string::npos);
}

TEST(PerfDiff, FlagsRssGrowthBeyondBudget) {
  const obs::JsonValue baseline = perf_manifest(100.0, 50000.0);
  const obs::JsonValue current = perf_manifest(100.0, 500000.0);
  tools::PerfBudget budget;
  budget.pct = 50.0;
  budget.abs_kb = 1024.0;
  const tools::DiffResult result =
      tools::diff_perf(baseline, current, budget);
  ASSERT_FALSE(result.ok());
  bool rss_flagged = false;
  for (const std::string& regression : result.regressions) {
    if (regression.find("peak_rss_kb") != std::string::npos) {
      rss_flagged = true;
    }
  }
  EXPECT_TRUE(rss_flagged);
}

TEST(PerfDiff, ImprovementsAndNewStagesAreNotRegressions) {
  const obs::JsonValue baseline = perf_manifest(100.0, 50000.0);
  auto current = obs::json_parse(
      "{\"schema_version\":1,\"tool\":\"lvf2\","
      "\"stages\":{\"characterize\":{\"count\":1,\"wall_ms\":1.0,"
      "\"cpu_ms\":1.0},"
      "\"ssta.propagate\":{\"count\":1,\"wall_ms\":5.0,\"cpu_ms\":5.0}},"
      "\"resource\":{\"peak_rss_kb\":10000,\"utime_s\":0.1,"
      "\"stime_s\":0.01}}");
  ASSERT_TRUE(current.has_value());
  const tools::DiffResult result = tools::diff_perf(baseline, *current, {});
  EXPECT_TRUE(result.ok());
  bool noted_missing = false;
  bool noted_new = false;
  for (const std::string& note : result.notes) {
    if (note.find("em.fit") != std::string::npos) noted_missing = true;
    if (note.find("ssta.propagate") != std::string::npos) noted_new = true;
  }
  EXPECT_TRUE(noted_missing);
  EXPECT_TRUE(noted_new);
}

// --- diff --sections opt-in ----------------------------------------

TEST(SectionDiff, SkippedByDefaultOptedInWithSections) {
  const auto golden = obs::json_parse(
      "{\"schema_version\":1,\"tool\":\"lvf2\",\"arcs\":[],"
      "\"endpoints\":[],\"resource\":{\"peak_rss_kb\":1000}}");
  const auto current = obs::json_parse(
      "{\"schema_version\":1,\"tool\":\"lvf2\",\"arcs\":[],"
      "\"endpoints\":[],\"resource\":{\"peak_rss_kb\":999999}}");
  ASSERT_TRUE(golden.has_value() && current.has_value());

  // Default: the nondeterministic section is invisible to the gate.
  tools::DiffOptions zero;
  zero.rtol = 0.0;
  zero.atol = 0.0;
  EXPECT_TRUE(tools::diff_manifests(*golden, *current, zero).ok());

  // Opted in: the same drift is a regression.
  zero.sections = {"resource"};
  const tools::DiffResult result =
      tools::diff_manifests(*golden, *current, zero);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.regressions.front().find("resource.peak_rss_kb"),
            std::string::npos);
}

}  // namespace
}  // namespace lvf2
