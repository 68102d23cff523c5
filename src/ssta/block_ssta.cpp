#include "ssta/block_ssta.h"

#include <limits>
#include <stdexcept>

#include "core/cancel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/faults.h"

namespace lvf2::ssta {

namespace {

// Containment for a poisoned operand of a binary SSTA operator: the
// result is the other operand (identity element semantics), so one
// bad arc degrades one path instead of sinking the whole analysis.
bool contain_poisoned(const stats::GridPdf& x, const stats::GridPdf& y) {
  if (!pdf_poisoned(x) && !pdf_poisoned(y)) return false;
  obs::counter("robust.ssta.poisoned_operand").add(1);
  return true;
}

// One stage of a chain: the cumulative arrival after adding
// `stage_pdf` (shifted by `*wire_delay` when the chain has wires) to
// `previous`, the arrival after the stages before it (empty before
// the first). Both chain entry points fold their stages through this
// step, so the checkpoint, fault hooks and containment exist once.
stats::GridPdf chain_step(const stats::GridPdf& previous,
                          const stats::GridPdf& stage_pdf,
                          const double* wire_delay,
                          const SstaOptions& options) {
  // Deadline checkpoint (lvf2d): at most one more stage convolution
  // runs after a request's budget expires.
  core::checkpoint();
  stats::GridPdf stage = stage_pdf;
  if (robust::fire(robust::Fault::kSstaEmptyPdf)) {
    stage = stats::GridPdf();
  }
  if (pdf_poisoned(stage)) {
    // Containment: a dead stage contributes zero delay — carry the
    // previous cumulative forward instead of poisoning the rest of
    // the chain.
    obs::counter("robust.ssta.poisoned_stage").add(1);
    return previous;
  }
  if (wire_delay != nullptr) {
    double wire = *wire_delay;
    if (robust::fire(robust::Fault::kSstaNonfinite)) {
      wire = std::numeric_limits<double>::quiet_NaN();
    }
    if (!std::isfinite(wire)) {
      obs::counter("robust.ssta.nonfinite_delay").add(1);
      wire = 0.0;
    }
    if (wire != 0.0) stage = stage.shifted(wire);
  }
  if (pdf_poisoned(previous)) return stage;
  return ssta_sum(previous, stage, options);
}

}  // namespace

stats::GridPdf ssta_sum(const stats::GridPdf& x, const stats::GridPdf& y,
                        const SstaOptions& options) {
  obs::TraceSpan span("ssta.sum", [&] {
    return obs::ArgsBuilder()
        .add("x_points", x.size())
        .add("y_points", y.size())
        .str();
  });
  static obs::Counter& sums = obs::counter("ssta.sum.count");
  sums.add(1);
  if (contain_poisoned(x, y)) return pdf_poisoned(x) ? y : x;
  return stats::GridPdf::convolve(x, y, options.max_conv_points);
}

stats::GridPdf ssta_max(const stats::GridPdf& x, const stats::GridPdf& y,
                        const SstaOptions& options) {
  obs::TraceSpan span("ssta.max", [&] {
    return obs::ArgsBuilder()
        .add("x_points", x.size())
        .add("y_points", y.size())
        .str();
  });
  static obs::Counter& maxes = obs::counter("ssta.max.count");
  maxes.add(1);
  if (contain_poisoned(x, y)) return pdf_poisoned(x) ? y : x;
  return stats::GridPdf::statistical_max(x, y, options.grid_points);
}

std::vector<stats::GridPdf> propagate_chain(
    std::span<const stats::GridPdf> stage_pdfs,
    std::span<const double> wire_delays, const SstaOptions& options) {
  if (!wire_delays.empty() && wire_delays.size() != stage_pdfs.size()) {
    throw std::invalid_argument("propagate_chain: wire delay size mismatch");
  }
  obs::TraceSpan span("ssta.propagate_chain", [&] {
    return obs::ArgsBuilder().add("stages", stage_pdfs.size()).str();
  });
  const stats::GridPdf none;
  std::vector<stats::GridPdf> cumulative;
  cumulative.reserve(stage_pdfs.size());
  for (std::size_t i = 0; i < stage_pdfs.size(); ++i) {
    cumulative.push_back(chain_step(
        cumulative.empty() ? none : cumulative.back(), stage_pdfs[i],
        wire_delays.empty() ? nullptr : &wire_delays[i], options));
  }
  return cumulative;
}

stats::GridPdf chain_endpoint(const stats::GridPdf& stage, std::size_t depth,
                              const SstaOptions& options) {
  obs::TraceSpan span("ssta.chain_endpoint", [&] {
    return obs::ArgsBuilder().add("stages", depth).str();
  });
  stats::GridPdf cumulative;
  for (std::size_t i = 0; i < depth; ++i) {
    cumulative = chain_step(cumulative, stage, nullptr, options);
  }
  return cumulative;
}

}  // namespace lvf2::ssta
