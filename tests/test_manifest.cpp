// Tests of the QoR run manifest (obs::ManifestRecorder), the shared
// JSON document model, and the lvf2_report reader/differ built on
// top of it. The recorder is a process singleton; each TEST runs as
// its own process (gtest_discover_tests), and every test that arms
// the recorder discards it before returning.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "cells/characterize.h"
#include "circuits/adder.h"
#include "obs/obs.h"
#include "report.h"
#include "simd/simd.h"
#include "ssta/path_analysis.h"

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

bool file_exists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

obs::ArcQor sample_arc(const std::string& cell, double binning) {
  obs::ArcQor arc;
  arc.table = "test";
  arc.cell = cell;
  arc.arc = "A->Y";
  arc.metric = "delay";
  arc.load_idx = 1;
  arc.slew_idx = 2;
  arc.golden_mean = 0.02;
  arc.golden_stddev = 0.003;
  arc.golden_skewness = 0.4;
  arc.em_iterations = 17;
  arc.em_log_likelihood = 123.5;
  arc.em_converged = true;
  obs::ModelQor m;
  m.model = "LVF2";
  m.binning = binning;
  m.yield_3sigma = 1e-4;
  m.cdf_rmse = 2e-3;
  m.x_binning = 10.0;
  m.x_yield_3sigma = 8.0;
  m.x_cdf_rmse = 9.0;
  arc.models.push_back(std::move(m));
  return arc;
}

// Arms the recorder, runs `fill`, writes and reloads the manifest.
obs::JsonValue build_manifest(const char* file,
                              void (*fill)(obs::ManifestRecorder&)) {
  const std::string path = temp_path(file);
  obs::ManifestRecorder& recorder = obs::ManifestRecorder::instance();
  recorder.start(path);
  fill(recorder);
  recorder.stop();
  std::string error;
  auto doc = tools::load_manifest(path, &error);
  EXPECT_TRUE(doc.has_value()) << error;
  std::remove(path.c_str());
  return doc.value_or(obs::JsonValue{});
}

TEST(Manifest, DisabledByDefaultWhenEnvUnset) {
  if (std::getenv("LVF2_MANIFEST") != nullptr) {
    GTEST_SKIP() << "LVF2_MANIFEST is set in this environment";
  }
  EXPECT_FALSE(obs::manifest_enabled());
  // The with_manifest() hook must not invoke its callback.
  bool called = false;
  obs::with_manifest([&](obs::ManifestRecorder&) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Manifest, SchemaVersionAndStableKeyOrder) {
  obs::ManifestRecorder& recorder = obs::ManifestRecorder::instance();
  recorder.start(temp_path("lvf2_manifest_order.json"));
  EXPECT_TRUE(obs::manifest_enabled());
  recorder.set_config("b_second", std::uint64_t{2});
  recorder.set_config("a_first", "one");
  recorder.add_arc(sample_arc("CELL", 0.01));
  const std::string json = recorder.to_json();
  recorder.discard();
  EXPECT_FALSE(obs::manifest_enabled());

  std::string error;
  const auto doc = obs::json_parse(json, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  // Top-level keys in documented order.
  ASSERT_GE(doc->object.size(), 7u);
  EXPECT_EQ(doc->object[0].first, "schema_version");
  EXPECT_EQ(doc->object[1].first, "tool");
  EXPECT_EQ(doc->object[2].first, "config");
  EXPECT_EQ(doc->object[3].first, "stages");
  EXPECT_EQ(doc->object[4].first, "metrics");
  EXPECT_EQ(doc->object[5].first, "arcs");
  EXPECT_EQ(doc->object[6].first, "endpoints");
  EXPECT_EQ(doc->number_or("schema_version", 0.0), obs::kManifestSchemaVersion);
  EXPECT_EQ(doc->string_or("tool", ""), "lvf2");
  // Config preserves insertion order, not alphabetical order.
  const obs::JsonValue* config = doc->find("config");
  ASSERT_NE(config, nullptr);
  ASSERT_EQ(config->object.size(), 2u);
  EXPECT_EQ(config->object[0].first, "b_second");
  EXPECT_EQ(config->object[1].first, "a_first");
  // Arc row keys in documented order (identity first, results last).
  const obs::JsonValue* arcs = doc->find("arcs");
  ASSERT_NE(arcs, nullptr);
  ASSERT_EQ(arcs->array.size(), 1u);
  const obs::JsonValue& arc = arcs->array[0];
  ASSERT_GE(arc.object.size(), 10u);
  EXPECT_EQ(arc.object[0].first, "table");
  EXPECT_EQ(arc.object.back().first, "models");
  EXPECT_EQ(arc.number_or("load_idx", -2.0), 1.0);
  const obs::JsonValue* em = arc.find("em");
  ASSERT_NE(em, nullptr);
  EXPECT_EQ(em->number_or("iterations", 0.0), 17.0);
}

// The recorder-owned text of a manifest: the config member and the
// arcs/endpoints members, then the provider sections after the
// resource member. The stages, metrics and resource members between
// them carry process-wide, run-dependent state.
std::string recorder_owned_text(const std::string& json) {
  const std::size_t config = json.find("\"config\":");
  const std::size_t stages = json.find(",\"stages\":");
  const std::size_t arcs = json.find(",\"arcs\":");
  const std::size_t resource = json.find(",\"resource\":");
  const std::size_t section = json.find(",\"test.section\":");
  if (config == std::string::npos || stages == std::string::npos ||
      arcs == std::string::npos || resource == std::string::npos ||
      section == std::string::npos) {
    return json;
  }
  return json.substr(config, stages - config) +
         json.substr(arcs, resource - arcs) + json.substr(section);
}

constexpr const char* kFixedStateText =
    R"json("config":{"str":"tab\there \"q\"","literal":"lit","dbl":3.25)json"
    R"json(,"tiny":-2.5e-07,"u64":12345678901,"flag":true,"off":false)json"
    R"json(,"test.overridden":"session wins","simd.tier":"scalar")json"
    R"json(,"test.provided":"from provider"},"arcs":[{"table":"test")json"
    R"json(,"cell":"ACELL","arc":"A->Y","metric":"delay","load_idx":1)json"
    R"json(,"slew_idx":2,"status":"ok","golden":{"mean":0.02,"stddev":0.003)json"
    R"json(,"skewness":0.4},"em":{"iterations":17,"log_likelihood":123.5)json"
    R"json(,"converged":true,"degradation":"none"})json"
    R"json(,"models":{"LVF2":{"binning":0.01,"yield_3sigma":0.0001)json"
    R"json(,"cdf_rmse":0.002,"x_binning":10,"x_yield_3sigma":8)json"
    R"json(,"x_cdf_rmse":9}}},{"table":"test","cell":"ZCELL","arc":"A->Y")json"
    R"json(,"metric":"delay","load_idx":1,"slew_idx":2,"status":"em failed")json"
    R"json(,"golden":{"mean":0.02,"stddev":0.003,"skewness":0.4})json"
    R"json(,"em":{"iterations":17,"log_likelihood":123.5,"converged":true)json"
    R"json(,"degradation":"none"},"models":{"LVF2":{"binning":0.02)json"
    R"json(,"yield_3sigma":0.0001,"cdf_rmse":null,"x_binning":10)json"
    R"json(,"x_yield_3sigma":8,"x_cdf_rmse":9}}}])json"
    R"json(,"endpoints":[{"path":"adder.carry","depth":4)json"
    R"json(,"golden":{"mean":0.125,"stddev":0.0123456789,"skewness":-0.5)json"
    R"json(,"yield_3sigma":0.99865},"models":{"LVF2":{"binning":0.03)json"
    R"json(,"yield_3sigma":0.0001,"cdf_rmse":0.002,"x_binning":10)json"
    R"json(,"x_yield_3sigma":8,"x_cdf_rmse":9}}}],"test.section":{"n":3)json"
    R"json(,"list":[1.5,null],"s":"x"}})json";

TEST(Manifest, FixedRecorderStateRendersPinnedBytes) {
  // Pins the tier so the simd.tier provider (registered first) renders
  // the same on every host.
  const simd::Tier previous_tier =
      simd::set_tier_for_testing(simd::Tier::kScalar);
  obs::ManifestRecorder& recorder = obs::ManifestRecorder::instance();
  recorder.start(temp_path("lvf2_manifest_fixed.json"));
  recorder.set_config_provider("test.provided",
                               [] { return std::string("from provider"); });
  recorder.set_config_provider("test.overridden",
                               [] { return std::string("hidden"); });
  recorder.set_config("str", std::string_view("tab\there \"q\""));
  recorder.set_config("literal", "lit");
  recorder.set_config("dbl", 0.1);
  recorder.set_config("tiny", -2.5e-7);
  recorder.set_config("u64", std::uint64_t{12345678901});
  recorder.set_config("flag", true);
  recorder.set_config("off", false);
  recorder.set_config("test.overridden", "session wins");
  recorder.set_config("dbl", 3.25);  // last write wins, first position kept
  obs::ArcQor late = sample_arc("ZCELL", 0.02);
  late.status = "em failed";
  late.models[0].cdf_rmse = std::nan("");
  recorder.add_arc(late);
  recorder.add_arc(sample_arc("ACELL", 0.01));
  obs::EndpointQor endpoint;
  endpoint.path = "adder.carry";
  endpoint.depth = 4;
  endpoint.golden_mean = 0.125;
  endpoint.golden_stddev = 0.0123456789012;
  endpoint.golden_skewness = -0.5;
  endpoint.golden_yield_3sigma = 0.99865;
  endpoint.models = sample_arc("E", 0.03).models;
  recorder.add_endpoint(endpoint);
  recorder.set_section_provider("test.section", [] {
    obs::JsonValue list = obs::json_array();
    list.array.push_back(obs::json_number(1.5));
    list.array.push_back(obs::JsonValue{});  // null
    return obs::json_object({{"n", obs::json_number(3)},
                             {"list", std::move(list)},
                             {"s", obs::json_string("x")}});
  });
  const std::string json = recorder.to_json();
  recorder.discard();
  recorder.clear_section_provider("test.section");
  recorder.set_config_provider("test.provided", {});
  recorder.set_config_provider("test.overridden", {});
  simd::set_tier_for_testing(previous_tier);
  // Captured from the string-concatenating writer this document model
  // replaced: the document path must render the same bytes.
  EXPECT_EQ(recorder_owned_text(json), kFixedStateText);
}

TEST(Manifest, LargeCounterRendersExactly) {
  obs::counter("test.manifest.big").add(5000000000ull);
  obs::ManifestRecorder& recorder = obs::ManifestRecorder::instance();
  recorder.start(temp_path("lvf2_manifest_big_counter.json"));
  const std::string json = recorder.to_json();
  recorder.discard();
  EXPECT_NE(json.find("\"test.manifest.big\":5000000000"), std::string::npos);
}

TEST(Manifest, Uint64ConfigAtOrAbove2To53StaysExact) {
  obs::ManifestRecorder& recorder = obs::ManifestRecorder::instance();
  recorder.start(temp_path("lvf2_manifest_u64.json"));
  recorder.set_config("below", std::uint64_t{9007199254740991});  // 2^53 - 1
  recorder.set_config("at", std::uint64_t{9007199254740992});     // 2^53
  recorder.set_config("seed", std::uint64_t{18446744073709551615u});
  const std::string json = recorder.to_json();
  recorder.discard();
  EXPECT_NE(json.find("\"config\":{\"below\":9007199254740991,"
                      "\"at\":\"9007199254740992\","
                      "\"seed\":\"18446744073709551615\""),
            std::string::npos)
      << json.substr(0, 200);
}

TEST(Manifest, RoundTripsThroughReportParserAndSelfDiffIsClean) {
  const obs::JsonValue doc = build_manifest(
      "lvf2_manifest_roundtrip.json", [](obs::ManifestRecorder& m) {
        m.set_config("samples", std::uint64_t{4000});
        m.add_arc(sample_arc("INV", 0.01));
        m.add_arc(sample_arc("NAND", 0.02));
      });
  ASSERT_TRUE(doc.is_object());
  // Serialize -> parse -> serialize is byte-stable (key order kept).
  const std::string once = obs::json_write(doc);
  const auto reparsed = obs::json_parse(once);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(obs::json_write(*reparsed), once);
  // A manifest never drifts against itself.
  const tools::DiffResult diff = tools::diff_manifests(doc, doc);
  EXPECT_TRUE(diff.ok());
  EXPECT_TRUE(diff.notes.empty());
}

TEST(Manifest, DiffFlagsDriftMissingArcAndStatusFlips) {
  const obs::JsonValue golden = build_manifest(
      "lvf2_manifest_ref.json", [](obs::ManifestRecorder& m) {
        m.add_arc(sample_arc("INV", 0.010));
        m.add_arc(sample_arc("NAND", 0.020));
      });
  const obs::JsonValue current = build_manifest(
      "lvf2_manifest_cur.json", [](obs::ManifestRecorder& m) {
        m.add_arc(sample_arc("INV", 0.013));  // +30% > 10% tolerance
        obs::ArcQor extra = sample_arc("XOR", 0.020);
        m.add_arc(std::move(extra));
      });

  const tools::DiffResult diff = tools::diff_manifests(golden, current);
  EXPECT_FALSE(diff.ok());
  ASSERT_EQ(diff.regressions.size(), 2u) << diff.regressions.size();
  EXPECT_NE(diff.regressions[0].find("binning"), std::string::npos);
  EXPECT_NE(diff.regressions[1].find("missing"), std::string::npos);
  // The extra XOR arc is a note, never a regression.
  ASSERT_EQ(diff.notes.size(), 1u);
  EXPECT_NE(diff.notes[0].find("XOR"), std::string::npos);

  // Within tolerance the same drift passes.
  tools::DiffOptions loose;
  loose.rtol = 0.5;
  const tools::DiffResult ok =
      tools::diff_manifests(golden, current, loose);
  EXPECT_EQ(ok.regressions.size(), 1u);  // only the missing NAND arc
}

TEST(Manifest, DiffFlagsDegradationAndConvergenceFlips) {
  const obs::JsonValue golden = build_manifest(
      "lvf2_manifest_em_ref.json", [](obs::ManifestRecorder& m) {
        m.add_arc(sample_arc("INV", 0.01));
      });
  const obs::JsonValue current = build_manifest(
      "lvf2_manifest_em_cur.json", [](obs::ManifestRecorder& m) {
        obs::ArcQor arc = sample_arc("INV", 0.01);
        arc.em_converged = false;
        arc.em_iterations = 80;
        arc.degradation = "single_sn";
        m.add_arc(std::move(arc));
      });
  const tools::DiffResult diff = tools::diff_manifests(golden, current);
  ASSERT_EQ(diff.regressions.size(), 2u);
  EXPECT_NE(diff.regressions[0].find("degradation"), std::string::npos);
  EXPECT_NE(diff.regressions[1].find("converged"), std::string::npos);
  // Iteration-count drift alone is informational.
  ASSERT_EQ(diff.notes.size(), 1u);
  EXPECT_NE(diff.notes[0].find("iterations"), std::string::npos);
}

TEST(Manifest, DiffYieldHsSectionPresenceAndEmptyRows) {
  const obs::JsonValue golden = *obs::json_parse(
      R"({"arcs":[],"yield_hs":{"rows":[)"
      R"({"label":"2 Peaks","sigma":3,"p_fail":0.00055,"ess":4100}]}})");
  const obs::JsonValue without = *obs::json_parse(R"({"arcs":[]})");
  tools::DiffOptions opts;
  opts.sections.push_back("yield_hs");

  // Losing the whole section is a regression, not a silent skip.
  const tools::DiffResult missing =
      tools::diff_manifests(golden, without, opts);
  EXPECT_FALSE(missing.ok());
  ASSERT_EQ(missing.regressions.size(), 1u);
  EXPECT_NE(missing.regressions[0].find("disappeared"), std::string::npos);

  // Absent from both sides is informational only.
  const tools::DiffResult both_absent =
      tools::diff_manifests(without, without, opts);
  EXPECT_TRUE(both_absent.ok());
  ASSERT_EQ(both_absent.notes.size(), 1u);
  EXPECT_NE(both_absent.notes[0].find("absent"), std::string::npos);

  // An emptied row array diffs as an explicit size change — and an
  // empty `arcs` table on both sides must not trip anything.
  const obs::JsonValue empty_rows =
      *obs::json_parse(R"({"arcs":[],"yield_hs":{"rows":[]}})");
  const tools::DiffResult rows =
      tools::diff_manifests(golden, empty_rows, opts);
  EXPECT_FALSE(rows.ok());
  ASSERT_EQ(rows.regressions.size(), 1u);
  EXPECT_NE(rows.regressions[0].find("array size"), std::string::npos);

  // Identical sections agree even at zero tolerance.
  tools::DiffOptions zero;
  zero.rtol = 0.0;
  zero.atol = 0.0;
  zero.sections.push_back("yield_hs");
  EXPECT_TRUE(tools::diff_manifests(golden, golden, zero).ok());
}

TEST(Manifest, DiffNanFieldsAreExplicitDriftNotSilentlyEqual) {
  // Non-finite values render as JSON null (the precision-17 writer).
  // In an arc row, null vs number must surface as drift — the old
  // behavior read the unset `number` field of both sides and compared
  // 0 == 0 — while null on both sides agrees (NaN == NaN in a golden
  // is reproduced state, the same contract as within()).
  const char* kNullRow =
      R"({"arcs":[{"table":"t1","cell":"INV","arc":"a","metric":"delay",)"
      R"("load_idx":0,"slew_idx":0,"status":"ok",)"
      R"("models":{"lvf2":{"binning":null,"yield_3sigma":0.99}}}]})";
  const char* kNumberRow =
      R"({"arcs":[{"table":"t1","cell":"INV","arc":"a","metric":"delay",)"
      R"("load_idx":0,"slew_idx":0,"status":"ok",)"
      R"("models":{"lvf2":{"binning":0.012,"yield_3sigma":0.99}}}]})";
  const obs::JsonValue with_null = *obs::json_parse(kNullRow);
  const obs::JsonValue with_number = *obs::json_parse(kNumberRow);

  const tools::DiffResult drift =
      tools::diff_manifests(with_null, with_number);
  EXPECT_FALSE(drift.ok());
  ASSERT_EQ(drift.regressions.size(), 1u);
  EXPECT_NE(drift.regressions[0].find("null"), std::string::npos);

  const tools::DiffResult reverse =
      tools::diff_manifests(with_number, with_null);
  EXPECT_FALSE(reverse.ok());
  ASSERT_EQ(reverse.regressions.size(), 1u);
  EXPECT_NE(reverse.regressions[0].find("null"), std::string::npos);

  EXPECT_TRUE(tools::diff_manifests(with_null, with_null).ok());
}

TEST(Manifest, AtomicWriteLeavesNoTmpFile) {
  const std::string path = temp_path("lvf2_manifest_atomic.json");
  ASSERT_TRUE(obs::write_file_atomic(path, "{\"ok\":true}\n"));
  EXPECT_EQ(read_file(path), "{\"ok\":true}\n");
  EXPECT_FALSE(file_exists(path + ".tmp"));
  // Overwrite goes through the same tmp+rename and stays whole.
  ASSERT_TRUE(obs::write_file_atomic(path, "{\"ok\":false}\n"));
  EXPECT_EQ(read_file(path), "{\"ok\":false}\n");
  EXPECT_FALSE(file_exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(Manifest, CharacterizeStreamsArcRowsAndStageRollups) {
  const std::string path = temp_path("lvf2_manifest_char.json");
  obs::ManifestRecorder::instance().start(path);

  cells::CharacterizeOptions options;
  options.grid = cells::SlewLoadGrid::reduced(4);  // 2x2
  options.mc_samples = 1500;
  const cells::Characterizer ch(spice::ProcessCorner{}, options);
  const cells::Cell inv = cells::build_cell(cells::CellFamily::kInv, 1, 1.0);
  ch.characterize_arc(inv, inv.arcs[0]);

  obs::ManifestRecorder::instance().stop();
  std::string error;
  const auto doc = tools::load_manifest(path, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  std::remove(path.c_str());

  const obs::JsonValue* config = doc->find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->number_or("characterize.mc_samples", 0.0), 1500.0);

  const obs::JsonValue* arcs = doc->find("arcs");
  ASSERT_NE(arcs, nullptr);
  ASSERT_EQ(arcs->array.size(), 4u);  // one per grid entry
  for (const obs::JsonValue& arc : arcs->array) {
    EXPECT_EQ(arc.string_or("table", ""), "characterize");
    EXPECT_EQ(arc.string_or("cell", ""), "INV_X1");
    EXPECT_EQ(arc.string_or("status", ""), "ok");
    const obs::JsonValue* models = arc.find("models");
    ASSERT_NE(models, nullptr);
    ASSERT_EQ(models->object.size(), 4u);
    EXPECT_EQ(models->object[0].first, "LVF2");
    EXPECT_EQ(models->object[3].first, "LVF");
    // LVF is its own baseline: reductions pinned at 1.
    const obs::JsonValue& lvf = models->object[3].second;
    EXPECT_DOUBLE_EQ(lvf.number_or("x_binning", 0.0), 1.0);
  }

  // Stage rollups accumulated without LVF2_TRACE being set.
  const obs::JsonValue* stages = doc->find("stages");
  ASSERT_NE(stages, nullptr);
  const obs::JsonValue* entry = stages->find("characterize.entry");
  ASSERT_NE(entry, nullptr) << obs::json_write(*stages);
  EXPECT_EQ(entry->number_or("count", 0.0), 4.0);
  EXPECT_GT(entry->number_or("wall_ms", -1.0), 0.0);
}

TEST(Manifest, AssessPathEmitsEndpointRow) {
  const std::string path = temp_path("lvf2_manifest_endpoint.json");
  obs::ManifestRecorder::instance().start(path);

  circuits::AdderOptions adder;
  adder.bits = 3;
  const ssta::TimingPath timing_path =
      circuits::build_adder_critical_path(adder, spice::ProcessCorner{});
  ssta::PathAssessmentOptions opts;
  opts.mc.samples = 2000;
  opts.model_grid_points = 512;
  ssta::assess_path(timing_path, spice::ProcessCorner{}, opts);

  obs::ManifestRecorder::instance().stop();
  std::string error;
  const auto doc = tools::load_manifest(path, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  std::remove(path.c_str());

  const obs::JsonValue* endpoints = doc->find("endpoints");
  ASSERT_NE(endpoints, nullptr);
  ASSERT_EQ(endpoints->array.size(), 1u);
  const obs::JsonValue& e = endpoints->array[0];
  EXPECT_EQ(e.string_or("path", ""), timing_path.name);
  EXPECT_EQ(e.number_or("depth", 0.0),
            static_cast<double>(timing_path.stages.size()));
  const obs::JsonValue* golden = e.find("golden");
  ASSERT_NE(golden, nullptr);
  EXPECT_GT(golden->number_or("mean", 0.0), 0.0);
  // Empirical golden yield at mu + 3 sigma sits near 1.
  EXPECT_GT(golden->number_or("yield_3sigma", 0.0), 0.9);
  const obs::JsonValue* models = e.find("models");
  ASSERT_NE(models, nullptr);
  EXPECT_EQ(models->object.size(), 4u);
}

TEST(ReportCli, ShowDiffAndExitCodes) {
  const std::string ref = temp_path("lvf2_cli_ref.json");
  const std::string drifted = temp_path("lvf2_cli_drift.json");
  {
    obs::ManifestRecorder& m = obs::ManifestRecorder::instance();
    m.start(ref);
    m.set_config("samples", std::uint64_t{100});
    m.add_arc(sample_arc("INV", 0.010));
    m.stop();
    m.start(drifted);
    m.add_arc(sample_arc("INV", 0.020));  // 2x the reference binning
    m.stop();
  }
  const auto run = [](std::initializer_list<const char*> argv) {
    std::vector<const char*> args(argv);
    return tools::report_main(static_cast<int>(args.size()), args.data());
  };
  EXPECT_EQ(run({"lvf2_report"}), 2);
  EXPECT_EQ(run({"lvf2_report", "bogus", ref.c_str()}), 2);
  EXPECT_EQ(run({"lvf2_report", "show", "/nonexistent.json"}), 2);
  EXPECT_EQ(run({"lvf2_report", "show", ref.c_str()}), 0);
  EXPECT_EQ(run({"lvf2_report", "canon", ref.c_str()}), 0);
  EXPECT_EQ(run({"lvf2_report", "diff", ref.c_str(), ref.c_str()}), 0);
  EXPECT_EQ(run({"lvf2_report", "diff", ref.c_str(), drifted.c_str()}), 1);
  // Generous tolerance turns the same drift into a pass.
  EXPECT_EQ(run({"lvf2_report", "diff", ref.c_str(), drifted.c_str(),
                 "--rtol", "0.9"}),
            0);
  std::remove(ref.c_str());
  std::remove(drifted.c_str());
}

}  // namespace
}  // namespace lvf2
