// Reproduces paper Table 1: "Scenarios Assessment among Models" —
// binning error reduction (Eq. 12, vs the LVF baseline) of LVF^2,
// Norm^2 and LESN on the five representative non-Gaussian scenarios.
//
// Expected shape (paper): LVF^2 is the largest in every row
// (12.65 / 29.65 / 9.62 / 16.27 / 8.63 in the paper); Norm^2 is
// strong on Kurtosis; LESN hovers in low single digits. Absolute
// multiples differ because the golden data comes from the synthetic
// process model (see DESIGN.md).
//
// `--seeds A-B` runs the table at every seed A..B instead of one and
// prints, per row, the seeds at which LVF^2 loses to the best
// baseline and the geomean of LVF^2 / best, plus the seeds at which
// LVF^2 leads every row. One seed's ordering is partly luck.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/metrics.h"
#include "spice/montecarlo.h"

using namespace lvf2;

namespace {

// Binning error reductions of one scenario at one seed.
struct Row {
  double lvf2, norm2, lesn;
  double ratio() const { return lvf2 / std::max({norm2, lesn, 1.0}); }
};

std::vector<Row> run_table(std::size_t samples, std::uint64_t seed,
                           bool record) {
  std::vector<Row> rows;
  for (const bench::Scenario& scenario : bench::paper_scenarios()) {
    spice::McConfig cfg;
    cfg.samples = samples;
    cfg.seed = seed;
    const spice::McResult mc = spice::run_monte_carlo(
        scenario.stage, scenario.condition, spice::ProcessCorner{}, cfg);
    const core::ModelEvaluation eval = core::evaluate_models(mc.delay_ns);
    if (record) bench::manifest_evaluation("table1", scenario.name, eval);
    rows.push_back({eval.reduction_of(core::ModelKind::kLvf2).binning,
                    eval.reduction_of(core::ModelKind::kNorm2).binning,
                    eval.reduction_of(core::ModelKind::kLesn).binning});
  }
  return rows;
}

void sweep(std::size_t samples, std::uint64_t first, std::uint64_t last,
           bench::PerfRecord& perf) {
  const std::vector<bench::Scenario> scenarios = bench::paper_scenarios();
  std::vector<int> lost(scenarios.size(), 0);
  std::vector<double> log_ratio(scenarios.size(), 0.0);
  int lead_every_row = 0;
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    const std::vector<Row> rows = run_table(samples, seed, false);
    bool leads = true;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const double ratio = rows[r].ratio();
      log_ratio[r] += std::log(ratio);
      if (ratio < 1.0) {
        ++lost[r];
        leads = false;
      }
    }
    lead_every_row += leads ? 1 : 0;
  }
  const auto seeds = static_cast<double>(last - first + 1);
  std::printf("Table 1 seed sweep, seeds %llu-%llu.\n",
              static_cast<unsigned long long>(first),
              static_cast<unsigned long long>(last));
  std::printf("(LVF2 vs best of Norm2/LESN/LVF, %zu MC samples/scenario)\n\n",
              samples);
  std::printf("%-14s %10s %18s\n", "Scenario", "seeds lost",
              "geomean LVF2/best");
  bench::print_rule(44);
  for (std::size_t r = 0; r < scenarios.size(); ++r) {
    const double geomean = std::exp(log_ratio[r] / seeds);
    std::printf("%-14s %10d %18.2f\n", scenarios[r].name, lost[r], geomean);
    perf.set(std::string("lost.") + scenarios[r].name, lost[r]);
    perf.set(std::string("geomean.") + scenarios[r].name, geomean);
  }
  bench::print_rule(44);
  std::printf("LVF2 leads every row at %d of %.0f seeds\n", lead_every_row,
              seeds);
  perf.set("seeds", seeds);
  perf.set("lead_every_row", lead_every_row);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  const std::size_t samples = args.pick_samples(20000, 50000);
  bench::PerfRecord perf("table1_scenarios");
  perf.set("samples_per_scenario", static_cast<double>(samples));
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--seeds") != 0) continue;
    char* end = nullptr;
    const std::uint64_t first = std::strtoull(argv[i + 1], &end, 10);
    const std::uint64_t last =
        (*end == '-') ? std::strtoull(end + 1, &end, 10) : 0;
    if (*end != '\0' || last < first) {
      std::fprintf(stderr, "bench_table1_scenarios: --seeds wants A-B\n");
      return 2;
    }
    sweep(samples, first, last, perf);
    return 0;
  }
  obs::with_manifest([&](obs::ManifestRecorder& m) {
    m.set_config("bench", "table1_scenarios");
    m.set_config("table1.samples", static_cast<std::uint64_t>(samples));
    m.set_config("table1.seed", args.seed);
  });

  std::printf("Table 1. Scenarios Assessment among Models.\n");
  std::printf("(binning error reduction vs LVF, %zu MC samples/scenario)\n\n",
              samples);
  std::printf("%-14s %10s %10s %10s %6s\n", "Scenario", "LVF2", "Norm2",
              "LESN", "LVF");
  bench::print_rule(56);

  const std::vector<bench::Scenario> scenarios = bench::paper_scenarios();
  const std::vector<Row> rows = run_table(samples, args.seed, true);
  double worst_ratio = 1e30;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::printf("%-14s %10.2f %10.2f %10.2f %6.0f\n", scenarios[r].name,
                rows[r].lvf2, rows[r].norm2, rows[r].lesn, 1.0);
    worst_ratio = std::min(worst_ratio, rows[r].ratio());
  }
  bench::print_rule(56);
  std::printf(
      "LVF2 vs best baseline, worst scenario ratio: %.2fx "
      "(paper: LVF2 leads every row)\n",
      worst_ratio);
  perf.set("worst_ratio", worst_ratio);
  return 0;
}
