#pragma once
// Analytic (grid-free) operations on skew-normal mixtures — a
// "formularized" non-Gaussian SSTA path in the spirit of the paper's
// refs [18, 19], built on two facts:
//
//  1. Cumulants are additive under independent sums, and the first
//     three moments determine a skew-normal: the convolution of two
//     skew-normals is approximated by the moment-matched skew-normal
//     with mu = mu1 + mu2, sigma^2 = sigma1^2 + sigma2^2, and third
//     central moment m3 = m3_1 + m3_2 (exact through order 3).
//  2. The convolution of two mixtures is the mixture of pairwise
//     convolutions; the K*L result is reduced back to a target order
//     by greedily merging the most similar component pair with the
//     moment-preserving mixture-merge.
//
// This gives O(K*L) SSTA sum operations with no discretization at
// all — the trade-off against grid convolution is benchmarked in
// bench_perf and unit-tested against the grid reference. The
// operations work on the SnMixture value type, so any mixture model
// (LVF^2 via mixture(), LVF^k) feeds them directly.

#include "core/lvf2_model.h"
#include "core/mixture.h"

namespace lvf2::core {

/// Moment-matched skew-normal approximation of X + Y for independent
/// skew-normals (exact mean/variance/third-central-moment).
stats::SkewNormal convolve_skew_normals(const stats::SkewNormal& x,
                                        const stats::SkewNormal& y);

/// Merges two weighted skew-normals into one that preserves the pair's
/// mixture mean, variance and third central moment.
stats::SkewNormal merge_skew_normals(double w1, const stats::SkewNormal& a,
                                     double w2, const stats::SkewNormal& b);

/// Reduces a mixture to at most `max_components` by greedily merging
/// the pair with the smallest moment-space distance. Like every
/// result here it is normalized and ordered by mean (as LvfKModel).
SnMixture reduce_mixture(const SnMixture& model, std::size_t max_components);

/// Analytic distribution of X + Y for independent mixtures: pairwise
/// convolution of the positive-weight components followed by
/// reduction to `max_components`.
SnMixture convolve_mixtures(const SnMixture& x, const SnMixture& y,
                            std::size_t max_components = 4);

/// Convenience overload on the paper's two-component models; the
/// result is reduced back to two components, staying in LVF^2 form
/// (what an LVF^2-native SSTA engine would carry per node).
Lvf2Model convolve_lvf2(const Lvf2Model& x, const Lvf2Model& y);

}  // namespace lvf2::core
