// Fault-matrix stress test of the deterministic fault-injection
// harness (src/robust/): every fault mode is armed in turn and driven
// through all five pipeline stages — EM fitting (LVF^2, Norm^2 and
// LVF^k on the one engine), characterization,
// Liberty parsing, block-based SSTA, and the serving/cache I/O
// layer (frame round trips + shard reloads). Under every fault the
// pipeline must (a) never crash, (b) never leak a non-finite value
// into a surviving result, and (c) leave a nonzero robust.* survival
// counter behind, proving the degradation chain actually engaged.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "cells/characterize.h"
#include "core/lvf2_model.h"
#include "core/lvfk_model.h"
#include "core/norm2_model.h"
#include "liberty/lvf_tables.h"
#include "liberty/parser.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "robust/faults.h"
#include "serve/protocol.h"
#include "ssta/block_ssta.h"
#include "ssta/timing_graph.h"
#include "stats/grid_pdf.h"
#include "stats/rng.h"

#include "test_util.h"

namespace lvf2 {
namespace {

void expect_finite(double v, const char* what) {
  EXPECT_TRUE(std::isfinite(v)) << what << " = " << v;
}

// A surviving model must answer every statistical query finitely.
void expect_model_sane(const core::TimingModel& model) {
  expect_finite(model.mean(), "model mean");
  expect_finite(model.stddev(), "model stddev");
  EXPECT_GE(model.stddev(), 0.0);
  expect_finite(model.pdf(model.mean()), "pdf(mean)");
  const double c = model.cdf(model.mean());
  EXPECT_TRUE(std::isfinite(c) && c >= 0.0 && c <= 1.0) << "cdf = " << c;
  for (const double p : {0.0013, 0.5, 0.9987}) {
    expect_finite(model.quantile(p), "model quantile");
  }
}

// A propagated PDF is either empty (a contained, counted degradation)
// or fully finite: support, density values, moments, and quantiles.
void expect_pdf_sane(const stats::GridPdf& pdf) {
  if (pdf.empty()) return;
  expect_finite(pdf.lo(), "pdf lo");
  expect_finite(pdf.hi(), "pdf hi");
  bool density_finite = true;
  for (const double d : pdf.density()) density_finite &= std::isfinite(d);
  EXPECT_TRUE(density_finite);
  expect_finite(pdf.mean(), "pdf mean");
  expect_finite(pdf.stddev(), "pdf stddev");
  expect_finite(pdf.quantile(0.9987), "pdf quantile");
  const double c = pdf.cdf(pdf.mean());
  EXPECT_TRUE(std::isfinite(c) && c >= 0.0 && c <= 1.0) << "pdf cdf = " << c;
}

// Stage 1: sample corruption + the fit degradation chain, for every
// mixture family on the shared EM engine.
template <class Fit>
void run_em_fit(const char* family, Fit fit) {
  SCOPED_TRACE(family);
  stats::Rng rng(test::test_seed(0x5eed));
  std::vector<double> xs;
  xs.reserve(900);
  for (int i = 0; i < 600; ++i) xs.push_back(rng.normal(1.0, 0.05));
  for (int i = 0; i < 300; ++i) xs.push_back(rng.normal(1.6, 0.08));
  robust::corrupt_samples(xs);

  core::FitOptions options;
  options.seed = 42;
  core::EmReport report;
  const auto model = fit(xs, options, &report);
  if (xs.empty()) {
    // Only a fully emptied sample set may reject the fit.
    EXPECT_FALSE(model.has_value());
    EXPECT_EQ(report.degradation, core::FitDegradation::kRejected);
    return;
  }
  ASSERT_TRUE(model.has_value());
  EXPECT_NE(report.degradation, core::FitDegradation::kRejected);
  expect_model_sane(*model);
  for (const auto& c : model->components()) {
    expect_finite(c.weight, "component weight");
    expect_finite(c.dist.mean(), "component mean");
    expect_finite(c.dist.stddev(), "component stddev");
  }
}

void run_em_stage() {
  using Samples = const std::vector<double>&;
  using Options = const core::FitOptions&;
  run_em_fit("LVF2", [](Samples xs, Options o, core::EmReport* r) {
    return core::Lvf2Model::fit(xs, o, r);
  });
  run_em_fit("Norm2", [](Samples xs, Options o, core::EmReport* r) {
    return core::Norm2Model::fit(xs, o, r);
  });
  run_em_fit("LVFk K=3", [](Samples xs, Options o, core::EmReport* r) {
    return core::LvfKModel::fit(xs, 3, o, r);
  });
}

// Stage 2: the characterization loop (per-entry degradation, sample
// corruption of the Monte-Carlo data, EM faults inside the fits).
void run_characterize_stage() {
  cells::CharacterizeOptions options;
  options.grid = cells::SlewLoadGrid::reduced(4);  // 2x2
  options.mc_samples = 300;
  const cells::Cell inv = cells::build_cell(cells::CellFamily::kInv, 1, 1.0);
  const cells::Characterizer ch(spice::ProcessCorner{}, options);
  const cells::ArcCharacterization arc = ch.characterize_arc(inv, inv.arcs[0]);
  ASSERT_EQ(arc.entries.size(), arc.grid.rows() * arc.grid.cols());
  for (const cells::ConditionCharacterization& e : arc.entries) {
    expect_finite(e.nominal_delay_ns, "nominal delay");
    expect_finite(e.nominal_transition_ns, "nominal transition");
    expect_finite(e.lvf_delay.mean, "lvf mean");
    expect_finite(e.lvf_delay.stddev, "lvf stddev");
    expect_finite(e.lvf_delay.skewness, "lvf skewness");
    expect_finite(e.lvf2_delay.lambda, "lvf2 lambda");
    expect_finite(e.lvf2_delay.theta1.mean, "lvf2 theta1 mean");
    expect_finite(e.lvf2_delay.theta2.mean, "lvf2 theta2 mean");
    EXPECT_GE(e.lvf2_delay.lambda, 0.0);
    EXPECT_LE(e.lvf2_delay.lambda, 1.0);
  }
}

// A small but complete LVF^2 library: the liberty.* faults corrupt
// this text inside parse_lenient, and the table readers must still
// produce finite models from whatever survives.
constexpr const char kGoldenLib[] = R"(
library (fault_matrix) {
  delay_model : table_lookup;
  lu_table_template (lvf2_lut_8x8) {
    variable_1 : input_net_transition;
    variable_2 : total_output_net_capacitance;
    index_1 ("0.01, 0.05");
    index_2 ("0.001, 0.02");
  }
  cell (INVA) {
    pin (Y) {
      direction : output;
      timing () {
        related_pin : A;
        cell_rise (lvf2_lut_8x8) {
          index_1 ("0.01, 0.05");
          index_2 ("0.001, 0.02");
          values ("0.11, 0.21", "0.14, 0.26");
        }
        ocv_mean_shift_cell_rise (lvf2_lut_8x8) {
          index_1 ("0.01, 0.05");
          index_2 ("0.001, 0.02");
          values ("0.002, 0.004", "0.003, 0.005");
        }
        ocv_std_dev_cell_rise (lvf2_lut_8x8) {
          index_1 ("0.01, 0.05");
          index_2 ("0.001, 0.02");
          values ("0.01, 0.02", "0.015, 0.025");
        }
        ocv_skewness_cell_rise (lvf2_lut_8x8) {
          index_1 ("0.01, 0.05");
          index_2 ("0.001, 0.02");
          values ("0.2, 0.3", "0.25, 0.35");
        }
        ocv_weight2_cell_rise (lvf2_lut_8x8) {
          index_1 ("0.01, 0.05");
          index_2 ("0.001, 0.02");
          values ("0.3, 0.3", "0.3, 0.3");
        }
        ocv_mean_shift2_cell_rise (lvf2_lut_8x8) {
          index_1 ("0.01, 0.05");
          index_2 ("0.001, 0.02");
          values ("0.05, 0.06", "0.055, 0.065");
        }
        ocv_std_dev2_cell_rise (lvf2_lut_8x8) {
          index_1 ("0.01, 0.05");
          index_2 ("0.001, 0.02");
          values ("0.02, 0.03", "0.025, 0.035");
        }
        ocv_skewness2_cell_rise (lvf2_lut_8x8) {
          index_1 ("0.01, 0.05");
          index_2 ("0.001, 0.02");
          values ("0.1, 0.1", "0.1, 0.1");
        }
      }
    }
  }
}
)";

// Stage 3: lenient Liberty parsing + statistical table extraction.
// Several rounds walk the deterministic corruption sequence across
// different bytes of the source.
void run_liberty_stage() {
  for (int round = 0; round < 6; ++round) {
    const liberty::ParseResult result = liberty::parse_lenient(kGoldenLib);
    const liberty::Group* cell = result.root.find_child("cell");
    if (cell == nullptr) continue;
    const liberty::Group* pin = cell->find_child("pin");
    if (pin == nullptr) continue;
    const liberty::Group* timing = liberty::find_timing(*pin, "A");
    if (timing == nullptr) timing = pin->find_child("timing");
    if (timing == nullptr) continue;
    const auto tables = liberty::extract_tables(*timing, "cell_rise");
    if (!tables.has_value() || tables->nominal.values.empty() ||
        tables->nominal.values.front().empty()) {
      continue;
    }
    expect_model_sane(tables->model_at(0, 0));
    if (!tables->nominal.index_1.empty() &&
        !tables->nominal.index_2.empty()) {
      expect_finite(tables->nominal.lookup(0.02, 0.01), "table lookup");
    }
  }
}

// Stage 4: block-based SSTA operators, chain propagation, and the
// timing-graph arrival analysis.
void run_ssta_stage() {
  stats::Rng rng(test::test_seed(0x55aa));
  std::vector<double> a(400), b(400);
  for (double& v : a) v = rng.normal(1.0, 0.05);
  for (double& v : b) v = rng.normal(1.3, 0.08);
  const stats::GridPdf pa = stats::GridPdf::from_samples(a, 128);
  const stats::GridPdf pb = stats::GridPdf::from_samples(b, 128);
  ssta::SstaOptions options;
  options.grid_points = 128;
  options.max_conv_points = 256;

  expect_pdf_sane(ssta::ssta_sum(pa, pb, options));
  expect_pdf_sane(ssta::ssta_max(pa, pb, options));

  const std::vector<stats::GridPdf> stages = {pa, pb, pa, pb};
  const std::vector<double> wires = {0.01, 0.02, 0.03, 0.04};
  const auto cumulative = ssta::propagate_chain(stages, wires, options);
  ASSERT_EQ(cumulative.size(), stages.size());
  for (const stats::GridPdf& pdf : cumulative) expect_pdf_sane(pdf);

  ssta::TimingGraph graph;
  const auto n0 = graph.add_node("in");
  const auto n1 = graph.add_node("mid");
  const auto n2 = graph.add_node("out");
  graph.add_edge(n0, n1, ssta::EdgeDelay{pa, 0.02});
  graph.add_edge(n0, n2, ssta::EdgeDelay{pb, 0.05});
  graph.add_edge(n1, n2, ssta::EdgeDelay{pb, 0.01});
  const auto arrivals = graph.compute_arrivals(options);
  ASSERT_EQ(arrivals.size(), graph.node_count());
  for (const ssta::EdgeDelay& arrival : arrivals) {
    expect_finite(arrival.constant_ns, "arrival constant");
    if (arrival.distribution.has_value()) {
      expect_pdf_sane(*arrival.distribution);
    }
  }
}

// Stage 5: serving-layer I/O. Frame round trips over a socketpair
// exercise the socket.read / socket.write retry loops (transient
// EINTRs and short transfers are absorbed; hard failures surface as a
// clean kUnavailable, never a crash), and a store -> flush -> reload
// cycle through a local ResultCache exercises the cache.read_io
// retry + backoff path (a persistently unreadable shard degrades to
// an absent one with a robust.downgrade.cache_io count).
void run_io_stage() {
  for (int round = 0; round < 24; ++round) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    const std::string body =
        "{\"id\":" + std::to_string(round) + ",\"op\":\"ping\"}";
    const core::Status wrote = serve::write_frame(sv[0], body);
    if (wrote.is_ok()) {
      std::string got;
      const core::Status read = serve::read_frame(sv[1], got);
      if (read.is_ok()) {
        EXPECT_EQ(got, body);
      } else {
        // A hard injected fault ends the connection; acceptable, and
        // always with the canonical transient code.
        EXPECT_EQ(read.code(), core::StatusCode::kUnavailable);
      }
    } else {
      EXPECT_EQ(wrote.code(), core::StatusCode::kUnavailable);
    }
    ::close(sv[0]);
    ::close(sv[1]);
  }

  static int dir_counter = 0;
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("lvf2_io_stage_" + std::to_string(dir_counter++));
  std::filesystem::create_directories(dir);
  {
    cache::ResultCache producer;
    producer.arm(dir.string(), cache::Mode::kReadWrite);
    obs::JsonValue doc;
    doc.type = obs::JsonValue::Type::kObject;
    obs::JsonValue num;
    num.type = obs::JsonValue::Type::kNumber;
    num.number = 42.0;
    doc.object.emplace_back("x", num);
    // Keys spread over several shards (shard = top 4 key bits).
    for (std::uint64_t shard = 0; shard < 4; ++shard) {
      producer.store((shard << 60) | 0x1234u, doc);
    }
    producer.flush();

    cache::ResultCache consumer;
    consumer.arm(dir.string(), cache::Mode::kReadOnly);
    std::size_t present = 0;
    for (std::uint64_t shard = 0; shard < 4; ++shard) {
      if (const auto hit = consumer.lookup((shard << 60) | 0x1234u)) {
        // A shard that survived the injected I/O must reproduce its
        // bytes exactly.
        EXPECT_DOUBLE_EQ(hit->number_or("x", 0.0), 42.0);
        ++present;
      }
    }
    // Without cache.read_io armed every shard must load; with it
    // armed a shard may legitimately degrade to absent (counted by
    // robust.downgrade.cache_io), but absence is the worst allowed
    // outcome.
    if (!robust::FaultInjector::instance().armed(
            robust::Fault::kCacheReadIo)) {
      EXPECT_EQ(present, 4u);
    }
    consumer.disarm();
    producer.disarm();
  }
  std::filesystem::remove_all(dir);
}

struct FaultCase {
  const char* name;
  // Counters of which at least one must increase while the fault is
  // armed — the proof that the matching survival path engaged.
  std::vector<const char*> survival_counters;
};

const std::vector<FaultCase>& fault_matrix() {
  static const std::vector<FaultCase> kMatrix = {
      {"samples.nan", {"robust.samples.nonfinite_dropped"}},
      {"samples.inf", {"robust.samples.nonfinite_dropped"}},
      {"samples.constant",
       {"robust.downgrade.moment_normal", "robust.stats.point_mass"}},
      {"samples.outlier", {"robust.samples.outlier_clipped"}},
      {"samples.truncate", {"robust.downgrade.single_sn"}},
      {"samples.empty", {"robust.downgrade.rejected"}},
      {"em.collapse", {"robust.downgrade.single_sn"}},
      {"em.exhaust", {"robust.downgrade.em_nonconverged"}},
      {"em.oscillate",
       {"robust.em.oscillation_detected", "robust.downgrade.single_sn"}},
      {"liberty.token",
       {"robust.liberty.recovered", "robust.liberty.bad_number",
        "robust.liberty.malformed_table"}},
      {"liberty.truncate",
       {"robust.liberty.recovered", "robust.liberty.malformed_table"}},
      {"liberty.badnum",
       {"robust.liberty.recovered", "robust.liberty.bad_number",
        "robust.liberty.malformed_table"}},
      {"ssta.nonfinite", {"robust.ssta.nonfinite_delay"}},
      {"ssta.empty_pdf",
       {"robust.ssta.poisoned_stage", "robust.ssta.poisoned_arrival",
        "robust.ssta.poisoned_operand"}},
      {"socket.read", {"serve.io.retry", "serve.io.injected_hard"}},
      {"socket.write", {"serve.io.retry", "serve.io.injected_hard"}},
      {"cache.read_io", {"cache.io_retry", "robust.downgrade.cache_io"}},
  };
  return kMatrix;
}

std::uint64_t counters_total(const std::vector<const char*>& names) {
  std::uint64_t total = 0;
  for (const char* name : names) total += obs::counter(name).value();
  return total;
}

class FaultMatrixTest : public ::testing::Test {
 protected:
  void TearDown() override { robust::FaultInjector::instance().clear(); }
};

TEST_F(FaultMatrixTest, EveryModeSurvivesEveryStage) {
  robust::FaultInjector& injector = robust::FaultInjector::instance();
  for (const FaultCase& fc : fault_matrix()) {
    SCOPED_TRACE(fc.name);
    const auto fault = robust::fault_from_name(fc.name);
    ASSERT_TRUE(fault.has_value());
    const std::uint64_t before = counters_total(fc.survival_counters);
    ASSERT_TRUE(
        injector.configure(std::string(fc.name) + ";seed=17").is_ok());

    run_em_stage();
    run_characterize_stage();
    run_liberty_stage();
    run_ssta_stage();
    run_io_stage();

    EXPECT_GT(injector.injected_count(*fault), 0u)
        << "fault never fired: " << fc.name;
    EXPECT_GT(counters_total(fc.survival_counters), before)
        << "no survival counter moved for " << fc.name;
    injector.clear();
  }
}

TEST_F(FaultMatrixTest, AllFaultsAtOnceStillSurvive) {
  robust::FaultInjector& injector = robust::FaultInjector::instance();
  ASSERT_TRUE(injector.configure("all;seed=11").is_ok());
  run_em_stage();
  run_characterize_stage();
  run_liberty_stage();
  run_ssta_stage();
  run_io_stage();
}

TEST_F(FaultMatrixTest, SpecParsing) {
  robust::FaultInjector& injector = robust::FaultInjector::instance();

  ASSERT_TRUE(injector.configure("samples.nan,em.collapse:0.5;seed=7").is_ok());
  EXPECT_TRUE(robust::faults_enabled());
  EXPECT_TRUE(injector.armed(robust::Fault::kSamplesNan));
  EXPECT_TRUE(injector.armed(robust::Fault::kEmCollapse));
  EXPECT_FALSE(injector.armed(robust::Fault::kSamplesInf));
  EXPECT_EQ(injector.seed(), 7u);

  ASSERT_TRUE(injector.configure("samples.*").is_ok());
  EXPECT_TRUE(injector.armed(robust::Fault::kSamplesEmpty));
  EXPECT_TRUE(injector.armed(robust::Fault::kSamplesTruncate));
  EXPECT_FALSE(injector.armed(robust::Fault::kEmCollapse));

  ASSERT_TRUE(injector.configure("all").is_ok());
  for (int i = 0; i < robust::kFaultCount; ++i) {
    EXPECT_TRUE(injector.armed(static_cast<robust::Fault>(i)));
  }

  EXPECT_FALSE(injector.configure("bogus.fault").is_ok());
  EXPECT_FALSE(robust::faults_enabled());
  EXPECT_FALSE(injector.configure("samples.nan:1.5").is_ok());
  EXPECT_FALSE(injector.configure("seed=abc").is_ok());

  ASSERT_TRUE(injector.configure("").is_ok());
  EXPECT_FALSE(robust::faults_enabled());
}

TEST_F(FaultMatrixTest, InjectionIsDeterministic) {
  robust::FaultInjector& injector = robust::FaultInjector::instance();
  const auto record = [&] {
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(injector.should_fire(robust::Fault::kSamplesNan));
    }
    return fired;
  };
  ASSERT_TRUE(injector.configure("samples.nan:0.5;seed=123").is_ok());
  const std::vector<bool> first = record();
  ASSERT_TRUE(injector.configure("samples.nan:0.5;seed=123").is_ok());
  const std::vector<bool> second = record();
  EXPECT_EQ(first, second);

  // The probability gate must actually thin the sequence.
  std::size_t count = 0;
  for (const bool b : first) count += b ? 1 : 0;
  EXPECT_GT(count, 0u);
  EXPECT_LT(count, first.size());

  // A different seed decorrelates the decisions.
  ASSERT_TRUE(injector.configure("samples.nan:0.5;seed=124").is_ok());
  EXPECT_NE(record(), first);
}

TEST_F(FaultMatrixTest, DisabledHarnessIsInert) {
  robust::FaultInjector::instance().clear();
  EXPECT_FALSE(robust::faults_enabled());
  EXPECT_FALSE(robust::fire(robust::Fault::kSamplesNan));

  std::vector<double> xs = {1.0, 2.0, 3.0};
  EXPECT_FALSE(robust::corrupt_samples(xs));
  EXPECT_EQ(xs, (std::vector<double>{1.0, 2.0, 3.0}));

  std::string text = "library (l) { }";
  EXPECT_FALSE(robust::corrupt_liberty_text(text));
  EXPECT_EQ(text, "library (l) { }");
}

TEST_F(FaultMatrixTest, FaultNamesRoundTrip) {
  for (int i = 0; i < robust::kFaultCount; ++i) {
    const auto fault = static_cast<robust::Fault>(i);
    const auto parsed = robust::fault_from_name(robust::to_string(fault));
    ASSERT_TRUE(parsed.has_value()) << robust::to_string(fault);
    EXPECT_EQ(*parsed, fault);
  }
  EXPECT_FALSE(robust::fault_from_name("nope").has_value());
}

}  // namespace
}  // namespace lvf2
