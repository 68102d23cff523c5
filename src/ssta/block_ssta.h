#pragma once
// Block-based SSTA operators (paper ref. [20], Devgan & Kashyap):
// arrival-time distributions are carried as discretized PDFs; edges
// add (convolution) and merge points take the statistical max of
// independent arrivals. Used both for generic timing graphs and for
// the per-stage critical-path propagation of paper Section 4.4.

#include <cmath>
#include <span>
#include <vector>

#include "stats/grid_pdf.h"

namespace lvf2::ssta {

/// Numeric resolution of the propagation.
struct SstaOptions {
  std::size_t grid_points = 2048;    ///< per-operand resample resolution
  std::size_t max_conv_points = 4096;  ///< result cap for convolutions
};

/// True when a PDF cannot participate in SUM/MAX: empty or with a
/// non-finite support. The SSTA operators contain such operands
/// (returning the other one) instead of propagating the poison.
inline bool pdf_poisoned(const stats::GridPdf& pdf) {
  return pdf.empty() || !std::isfinite(pdf.lo()) || !std::isfinite(pdf.hi());
}

/// SUM operator: distribution of X + Y for independent X, Y.
stats::GridPdf ssta_sum(const stats::GridPdf& x, const stats::GridPdf& y,
                        const SstaOptions& options = {});

/// MAX operator: distribution of max(X, Y) for independent X, Y.
stats::GridPdf ssta_max(const stats::GridPdf& x, const stats::GridPdf& y,
                        const SstaOptions& options = {});

/// Propagates a chain: returns the cumulative arrival distribution
/// after each stage. `stage_pdfs[i]` is stage i's delay distribution
/// and `wire_delays[i]` (same length, or empty) a deterministic add.
std::vector<stats::GridPdf> propagate_chain(
    std::span<const stats::GridPdf> stage_pdfs,
    std::span<const double> wire_delays = {},
    const SstaOptions& options = {});

/// The endpoint of a chain of `depth` identical stages, with no wire
/// delays: bitwise propagate_chain(depth copies of `stage`).back(),
/// but holding one cumulative grid at a time instead of all `depth`.
/// Empty when depth is 0.
stats::GridPdf chain_endpoint(const stats::GridPdf& stage, std::size_t depth,
                              const SstaOptions& options = {});

}  // namespace lvf2::ssta
