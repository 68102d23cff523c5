// Reproduces paper Table 2: "Standard Cell Library Assessment among
// Models" — per cell type, the binning and 3-sigma-yield error
// reductions of LVF^2 / Norm^2 / LESN vs the LVF baseline, for both
// delay and transition distributions, averaged over timing arcs and
// slew/load conditions; plus the library-wide averages (the paper's
// headline numbers: 7.74x / 9.56x binning and 4.79x / 7.18x yield).
//
// Default scope is scaled for wall-clock (1 drive strength, up to 2
// arcs/cell, a 3x3 slew/load sub-grid, 5k samples, capped EM budget); --full runs 2
// drives, 4 arcs, the 8x8 grid and 20k samples.

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.h"
#include "cells/characterize.h"
#include "core/metrics.h"

using namespace lvf2;

namespace {

struct TypeAggregate {
  std::size_t arcs = 0;
  std::size_t conditions = 0;
  // Sums of per-condition error reductions, model-major
  // (LVF2, Norm2, LESN): delay binning, transition binning,
  // delay yield, transition yield.
  double delay_bin[3] = {};
  double tran_bin[3] = {};
  double delay_yield[3] = {};
  double tran_yield[3] = {};
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  const std::size_t samples = args.pick_samples(5000, 20000);
  const std::size_t max_arcs_per_cell = args.full ? 4 : 2;
  bench::PerfRecord perf("table2_library");
  perf.set("samples_per_distribution", static_cast<double>(samples));

  cells::LibraryOptions lib_options;
  lib_options.drives = args.full ? std::vector<double>{1.0, 2.0}
                                 : std::vector<double>{1.0};
  const cells::StandardCellLibrary library =
      cells::build_paper_library(lib_options);

  cells::CharacterizeOptions ch_options;
  ch_options.grid = args.full ? cells::SlewLoadGrid::paper_grid()
                              : cells::SlewLoadGrid::reduced(3);
  ch_options.mc_samples = samples;
  ch_options.seed_base = args.seed;
  const cells::Characterizer characterizer(spice::ProcessCorner{},
                                           ch_options);

  core::FitOptions fit;
  fit.likelihood_bins = 384;
  if (!args.full) fit.em_max_iterations = 40;

  std::map<std::string, TypeAggregate> aggregates;
  std::vector<std::string> type_order = library.type_names();

  for (const cells::Cell& cell : library.cells()) {
    TypeAggregate& agg = aggregates[cell.type_name()];
    std::size_t arcs_done = 0;
    for (const cells::TimingArc& arc : cell.arcs) {
      if (arcs_done >= max_arcs_per_cell) break;
      ++arcs_done;
      ++agg.arcs;
      for (std::size_t li = 0; li < ch_options.grid.rows(); ++li) {
        for (std::size_t si = 0; si < ch_options.grid.cols(); ++si) {
          const spice::McResult mc =
              characterizer.golden_samples(cell, arc, li, si);
          const core::ModelEvaluation delay_eval =
              core::evaluate_models(mc.delay_ns, fit);
          const core::ModelEvaluation tran_eval =
              core::evaluate_models(mc.transition_ns, fit);
          for (int k = 0; k < 3; ++k) {
            agg.delay_bin[k] += delay_eval.reductions[k].binning;
            agg.tran_bin[k] += tran_eval.reductions[k].binning;
            agg.delay_yield[k] += delay_eval.reductions[k].yield_3sigma;
            agg.tran_yield[k] += tran_eval.reductions[k].yield_3sigma;
          }
          ++agg.conditions;
        }
      }
    }
  }

  std::printf(
      "Table 2. Standard Cell Library Assessment among Models.\n"
      "(%zu MC samples/distribution, %zux%zu slew/load grid, up to %zu "
      "arcs/cell; error reduction vs LVF, x)\n\n",
      samples, ch_options.grid.cols(), ch_options.grid.rows(),
      max_arcs_per_cell);
  std::printf("%-6s %5s | %-22s | %-22s | %-22s | %-22s\n", "Cell", "Arcs",
              "Delay Binning", "Transition Binning", "Delay 3s-Yield",
              "Transition 3s-Yield");
  std::printf("%-6s %5s | %6s %7s %7s | %6s %7s %7s | %6s %7s %7s | %6s %7s %7s\n",
              "", "", "LVF2", "Norm2", "LESN", "LVF2", "Norm2", "LESN",
              "LVF2", "Norm2", "LESN", "LVF2", "Norm2", "LESN");
  bench::print_rule(118);

  double grand[4][3] = {};
  std::size_t grand_n = 0;
  for (const std::string& type : type_order) {
    const TypeAggregate& agg = aggregates[type];
    if (agg.conditions == 0) continue;
    const double n = static_cast<double>(agg.conditions);
    std::printf("%-6s %5zu |", type.c_str(), agg.conditions);
    for (int k = 0; k < 3; ++k) std::printf(" %6.2f%s", agg.delay_bin[k] / n, k == 2 ? " |" : "");
    for (int k = 0; k < 3; ++k) std::printf(" %6.2f%s", agg.tran_bin[k] / n, k == 2 ? " |" : "");
    for (int k = 0; k < 3; ++k) std::printf(" %6.2f%s", agg.delay_yield[k] / n, k == 2 ? " |" : "");
    for (int k = 0; k < 3; ++k) std::printf(" %6.2f%s", agg.tran_yield[k] / n, k == 2 ? "" : "");
    std::printf("\n");
    for (int k = 0; k < 3; ++k) {
      grand[0][k] += agg.delay_bin[k];
      grand[1][k] += agg.tran_bin[k];
      grand[2][k] += agg.delay_yield[k];
      grand[3][k] += agg.tran_yield[k];
    }
    grand_n += agg.conditions;
  }
  bench::print_rule(118);
  std::printf("%-6s %5zu |", "Avg", grand_n);
  const double gn = static_cast<double>(grand_n);
  for (int m = 0; m < 4; ++m) {
    for (int k = 0; k < 3; ++k) {
      std::printf(" %6.2f%s", grand[m][k] / gn,
                  (k == 2 && m < 3) ? " |" : "");
    }
  }
  std::printf("\n\nPaper averages: delay binning 7.74x (LVF2), transition "
              "binning 9.56x,\ndelay 3s-yield 4.79x, transition 3s-yield "
              "7.18x; LVF2 leads every column.\n");
  perf.set("conditions", gn);
  perf.set("delay_binning_lvf2", grand[0][0] / gn);
  perf.set("tran_binning_lvf2", grand[1][0] / gn);
  perf.set("delay_yield_lvf2", grand[2][0] / gn);
  perf.set("tran_yield_lvf2", grand[3][0] / gn);
  return 0;
}
