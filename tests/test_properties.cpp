// Property-based invariants of the statistical core, complementing
// the example-based tests: distribution-function laws (CDF
// monotonicity, quantile/CDF round trips), the paper's Eq. 10
// backward-compatibility collapse checked bitwise, the moment
// bijection round trip, an EM seed sweep with an allowed-failure
// budget (recorded under qor.em_seed_sweep.* histograms), EM
// log-likelihood ascent for every component family, and a
// fuzz-lite pass over the JSON codec the result cache and manifests
// depend on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/em.h"
#include "core/lvf2_model.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/tdigest.h"
#include "stats/rng.h"
#include "stats/skew_normal.h"
#include "yield/importance.h"

#include "test_util.h"

namespace lvf2 {
namespace {

// A deterministic family of mixtures spanning the parameter space:
// both pure-LVF and strongly bimodal, with skewness of both signs.
core::Lvf2Model seeded_mixture(std::uint64_t seed) {
  stats::Rng rng(seed);
  const double lambda = rng.uniform();
  const stats::SkewNormal first = stats::SkewNormal::from_moments(
      rng.uniform(-2.0, 2.0), rng.uniform(0.2, 2.0), rng.uniform(-0.9, 0.9));
  const stats::SkewNormal second = stats::SkewNormal::from_moments(
      rng.uniform(-2.0, 6.0), rng.uniform(0.2, 2.0), rng.uniform(-0.9, 0.9));
  return core::Lvf2Model(lambda, first, second);
}

TEST(Properties, MixtureCdfIsMonotoneAndBounded) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const core::Lvf2Model model = seeded_mixture(seed);
    const double lo = model.mean() - 8.0 * model.stddev();
    const double hi = model.mean() + 8.0 * model.stddev();
    double prev = -1.0;
    for (int i = 0; i <= 400; ++i) {
      const double x = lo + (hi - lo) * i / 400.0;
      const double c = model.cdf(x);
      EXPECT_GE(c, 0.0) << "seed " << seed << " x " << x;
      EXPECT_LE(c, 1.0) << "seed " << seed << " x " << x;
      EXPECT_GE(c, prev - 1e-12) << "seed " << seed << " x " << x;
      EXPECT_GE(model.pdf(x), 0.0) << "seed " << seed << " x " << x;
      prev = c;
    }
    EXPECT_LT(model.cdf(lo), 1e-6) << "seed " << seed;
    EXPECT_GT(model.cdf(hi), 1.0 - 1e-6) << "seed " << seed;
  }
}

TEST(Properties, QuantileCdfRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const core::Lvf2Model model = seeded_mixture(seed);
    double prev_x = -std::numeric_limits<double>::infinity();
    for (double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
      const double x = model.quantile(p);
      EXPECT_TRUE(std::isfinite(x)) << "seed " << seed << " p " << p;
      // quantile is nondecreasing in p...
      EXPECT_GE(x, prev_x) << "seed " << seed << " p " << p;
      prev_x = x;
      // ...and a right inverse of the CDF.
      EXPECT_NEAR(model.cdf(x), p, 1e-9)
          << "seed " << seed << " p " << p;
    }
    EXPECT_EQ(model.quantile(0.0), -std::numeric_limits<double>::infinity());
    EXPECT_EQ(model.quantile(1.0), std::numeric_limits<double>::infinity());
  }
}

// Paper Eq. 10: lambda = 0 collapses LVF^2 to the plain-LVF
// skew-normal — not approximately, bitwise. This is what lets one
// library serve LVF and LVF^2 consumers at once.
TEST(Properties, LambdaZeroCollapsesToLvfBitwise) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    stats::Rng rng(seed * 0x9e37);
    const stats::SkewNormal lvf = stats::SkewNormal::from_moments(
        rng.uniform(0.5, 3.0), rng.uniform(0.05, 0.5),
        rng.uniform(-0.9, 0.9));
    const core::Lvf2Model model = core::Lvf2Model::from_lvf(lvf);
    EXPECT_TRUE(model.is_pure_lvf());
    EXPECT_EQ(model.lambda(), 0.0);
    EXPECT_EQ(model.mean(), lvf.mean());
    EXPECT_EQ(model.stddev(), lvf.stddev());
    const double lo = lvf.mean() - 6.0 * lvf.stddev();
    const double hi = lvf.mean() + 6.0 * lvf.stddev();
    for (int i = 0; i <= 200; ++i) {
      const double x = lo + (hi - lo) * i / 200.0;
      EXPECT_EQ(model.pdf(x), lvf.pdf(x)) << "seed " << seed << " x " << x;
      EXPECT_EQ(model.cdf(x), lvf.cdf(x)) << "seed " << seed << " x " << x;
    }
  }
}

// The moment bijection g (Eq. 2) round-trips: from_moments followed
// by to_moments recovers the requested triple everywhere inside the
// attainable skewness interval.
TEST(Properties, MomentBijectionRoundTrip) {
  for (double mean : {-3.0, 0.0, 0.7, 42.0}) {
    for (double stddev : {0.01, 0.5, 1.0, 10.0}) {
      for (double skewness : {-0.95, -0.5, 0.0, 0.3, 0.95}) {
        const stats::SkewNormal sn =
            stats::SkewNormal::from_moments(mean, stddev, skewness);
        const stats::SnMoments back = sn.to_moments();
        const std::string label =
            "(" + std::to_string(mean) + ", " + std::to_string(stddev) +
            ", " + std::to_string(skewness) + ")";
        EXPECT_NEAR(back.mean, mean, 1e-9 * std::max(1.0, std::abs(mean)))
            << label;
        EXPECT_NEAR(back.stddev, stddev, 1e-9 * stddev) << label;
        EXPECT_NEAR(back.skewness, skewness, 1e-6) << label;
      }
    }
  }
}

// EM seed sweep: the fit must recover a known bimodal mixture from
// finite samples across 32 RNG seeds, with a small allowed-failure
// budget (EM on 4000 samples is not guaranteed to land every time,
// but a wide failure rate is a regression). Error magnitudes land in
// qor.em_seed_sweep.* histograms so a metrics dump shows the spread.
TEST(Properties, EmSeedSweepRecoversMixtureWithinBudget) {
  const core::Lvf2Model truth(
      0.35, stats::SkewNormal::from_moments(10.0, 1.0, 0.3),
      stats::SkewNormal::from_moments(14.0, 1.5, -0.2));
  constexpr std::size_t kSeeds = 32;
  constexpr std::size_t kSamples = 4000;
  constexpr std::size_t kAllowedFailures = 5;

  obs::Histogram& mean_err = obs::histogram(
      "qor.em_seed_sweep.mean_abs_err", {0.01, 0.02, 0.05, 0.1, 0.2, 0.5});
  obs::Histogram& stddev_err = obs::histogram(
      "qor.em_seed_sweep.stddev_abs_err", {0.01, 0.02, 0.05, 0.1, 0.2, 0.5});
  const std::uint64_t observed_before = mean_err.count();

  std::size_t failures = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    stats::Rng rng(seed);
    std::vector<double> samples(kSamples);
    for (double& s : samples) s = truth.sample(rng);

    core::FitOptions options;
    options.seed = seed;
    core::EmReport report;
    const auto fit = core::Lvf2Model::fit(samples, options, &report);
    ASSERT_TRUE(fit.has_value()) << "seed " << seed;

    const double dm = std::abs(fit->mean() - truth.mean());
    const double ds = std::abs(fit->stddev() - truth.stddev());
    mean_err.observe(dm);
    stddev_err.observe(ds);
    // Sample-mean noise at n=4000 is ~0.04; 0.15/0.2 leaves EM room
    // without letting a broken fit pass.
    const bool ok = dm < 0.15 && ds < 0.2 &&
                    std::abs(fit->quantile(0.99) - truth.quantile(0.99)) <
                        0.6;
    if (!ok) ++failures;
  }
  EXPECT_EQ(mean_err.count(), observed_before + kSeeds);
  EXPECT_LE(failures, kAllowedFailures)
      << failures << "/" << kSeeds << " seeds missed the tolerance band";
}

// The EM fixture sets: 3000 draws from three overlapping normal
// clusters, binned, and a K-component start at the sample quantiles.
template <class C>
struct EmFixture {
  core::WeightedData data;
  core::Mixture<C> start;
};

template <class C>
EmFixture<C> em_fixture(std::size_t k, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<double> xs(3000);
  for (double& x : xs) {
    const double u = rng.uniform();
    x = (u < 0.5)   ? rng.normal(1.0, 0.06)
        : (u < 0.8) ? rng.normal(1.3, 0.05)
                    : rng.normal(1.6, 0.08);
  }
  const stats::EmpiricalCdf ecdf(xs);
  const double sd = stats::compute_moments(xs).stddev / k;
  std::vector<typename core::Mixture<C>::Component> comps;
  for (std::size_t c = 0; c < k; ++c) {
    const double mean = ecdf.quantile((c + 0.5) / k);
    comps.push_back({1.0 / k, C::from_moments(mean, sd, 0.0)});
  }
  return {core::make_weighted_data(xs, {}), core::Mixture<C>(std::move(comps))};
}

// EM ascent: the engine's single run, capped at t = 1..12 iterations,
// reports a log-likelihood that never decreases in t (up to 1e-12
// relative) — for every family and K. Accelerated steps are kept only
// when they do not lose likelihood, and a generalized M-step must
// keep this invariant too.
template <class C>
void expect_em_ascent(std::size_t k, std::uint64_t salt) {
  for (std::uint64_t set = 0; set < 8; ++set) {
    const EmFixture<C> fx = em_fixture<C>(k, test::test_seed(salt + set));
    double prev = -std::numeric_limits<double>::infinity();
    for (std::size_t t = 1; t <= 12; ++t) {
      core::FitOptions options;
      options.em_max_iterations = t;
      const core::EmRun<C> run = core::run_em(fx.data, fx.start, options);
      ASSERT_FALSE(run.report.collapsed) << "set " << set << " t " << t;
      const double ll = run.report.log_likelihood;
      EXPECT_GE(ll, prev - 1e-12 * std::fabs(prev))
          << "K " << k << " set " << set << " t " << t;
      prev = ll;
    }
  }
}

TEST(Properties, EmLogLikelihoodNeverDecreases) {
  expect_em_ascent<stats::SkewNormal>(2, 0xA5CE00);
  expect_em_ascent<stats::SkewNormal>(3, 0xA5CE10);
  expect_em_ascent<stats::Normal>(2, 0xA5CE20);
}

// The accelerated loop ends at an EM fixed point: run to a 1e-12
// tolerance (cap 3000), one more EM map gains < 1e-9 relative, and the
// log-likelihood matches that of plain EM (chained two-map runs, which
// never extrapolate) at the same budget within 1e-6 relative. With
// three skew-normal components on three-cluster data the two end at
// different maxima: there the extrapolation carries the run past the
// one plain EM stops at (0.02-0.6 log-likelihood units higher), so the
// check is one-sided.
template <class C>
void expect_em_fixed_point(std::size_t k, std::uint64_t salt,
                           bool same_maximum) {
  core::FitOptions options;
  options.em_tolerance = 1e-12;
  options.em_max_iterations = 3000;
  core::FitOptions two_maps = options;
  two_maps.em_max_iterations = 2;
  for (std::uint64_t set = 0; set < 4; ++set) {
    SCOPED_TRACE(testing::Message() << "K " << k << " set " << set);
    const EmFixture<C> fx = em_fixture<C>(k, test::test_seed(salt + set));
    const core::EmRun<C> fast = core::run_em(fx.data, fx.start, options);
    ASSERT_FALSE(fast.report.collapsed);
    EXPECT_TRUE(fast.report.converged);
    const double ll = fast.mixture.log_likelihood(fx.data);
    const core::EmRun<C> next = core::run_em(fx.data, fast.mixture, two_maps);
    EXPECT_LT(next.report.log_likelihood - ll, 1e-9 * std::fabs(ll));

    core::Mixture<C> plain = fx.start;
    double prev = 0.0;
    for (std::size_t used = 0; used < options.em_max_iterations; used += 2) {
      const core::EmRun<C> run = core::run_em(fx.data, plain, two_maps);
      ASSERT_FALSE(run.report.collapsed);
      plain = run.mixture;
      const double now = run.report.log_likelihood;
      if (std::fabs(now - prev) <=
          options.em_tolerance * (std::fabs(prev) + 1.0)) {
        break;
      }
      prev = now;
    }
    const double plain_ll = plain.log_likelihood(fx.data);
    if (same_maximum) {
      EXPECT_NEAR(ll, plain_ll, 1e-6 * std::fabs(plain_ll));
    } else {
      EXPECT_GE(ll, plain_ll - 1e-6 * std::fabs(plain_ll));
    }
  }
}

TEST(Em, AcceleratedRunReachesFixedPoint) {
  expect_em_fixed_point<stats::SkewNormal>(2, 0xA5CE00, true);
  expect_em_fixed_point<stats::SkewNormal>(3, 0xA5CE10, false);
  expect_em_fixed_point<stats::Normal>(2, 0xA5CE20, true);
}

// Bitwise double round trip through the 17-digit writer and strtod —
// the property the result cache's byte-identical replays rest on.
TEST(Properties, JsonPrecision17RoundTripsDoublesBitwise) {
  stats::Rng rng(test::test_seed(0xCAFE17));
  obs::JsonValue doc;
  doc.type = obs::JsonValue::Type::kObject;
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) {
    double v = 0.0;
    switch (i % 4) {
      case 0: v = rng.normal(0.0, 1e-3); break;       // ns-scale values
      case 1: v = rng.normal(0.0, 1.0); break;
      case 2: v = rng.uniform(-1e12, 1e12); break;
      default: v = rng.uniform(0.0, 1.0) * 1e-15; break;  // subunity tails
    }
    values.push_back(v);
    obs::JsonValue num;
    num.type = obs::JsonValue::Type::kNumber;
    num.number = v;
    doc.object.emplace_back("v" + std::to_string(i), num);
  }
  const std::string text = obs::json_write(doc, obs::JsonWriteOptions{17});
  const auto back = obs::json_parse(text);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->object.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(back->object[i].second.number, values[i]) << "index " << i;
  }
  // Idempotence: a second write of the parsed document is identical.
  EXPECT_EQ(obs::json_write(*back, obs::JsonWriteOptions{17}), text);
}

// Fuzz-lite over the JSON codec (mirrors the Liberty lenient-parser
// sweep): 500 seeded byte-level mutations of a manifest-like golden
// document. Every mutant either parses or is rejected with a
// diagnostic — never a crash — and everything that parses
// round-trips idempotently through write/parse/write.
TEST(Properties, JsonFuzzLiteNeverCrashesAndRoundTrips) {
  const std::string golden = R"json({
    "schema_version": 3,
    "tool": {"name": "lvf2", "run_id": "fuzz"},
    "config": {"samples": 8000, "lhs": true, "corner": "tt"},
    "arcs": [
      {"cell": "INV_X1", "arc": "A->Y(fall)", "load_idx": 0,
       "metrics": {"mean": 0.0123456789, "sigma": 1.5e-3, "lambda": 0.35}},
      {"cell": "NAND2_X1", "arc": "B->Y(rise)", "load_idx": 7,
       "metrics": {"mean": -0.5, "sigma": null, "tags": ["a", "b"]}}
    ],
    "notes": "quotes \" and \\ escapes é"
  })json";
  static constexpr char kInserts[] = {'{', '}', '[', ']', '"',
                                      ',', ':', '\\', 'e', '.'};
  stats::Rng rng(test::test_seed(0xF0221));
  int rejected = 0;
  for (int iter = 0; iter < 500; ++iter) {
    std::string text = golden;
    const std::uint64_t edits = 1 + rng.uniform_index(4);
    for (std::uint64_t e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t pos =
          static_cast<std::size_t>(rng.uniform_index(text.size()));
      switch (rng.uniform_index(3)) {
        case 0:  // overwrite with an arbitrary byte
          text[pos] = static_cast<char>(rng.uniform_index(256));
          break;
        case 1:  // delete a byte
          text.erase(pos, 1);
          break;
        default:  // insert structural punctuation
          text.insert(pos, 1,
                      kInserts[rng.uniform_index(sizeof(kInserts))]);
          break;
      }
    }
    std::string error;
    const auto doc = obs::json_parse(text, &error);  // must not crash
    if (!doc.has_value()) {
      EXPECT_FALSE(error.empty()) << "silent rejection at iteration " << iter;
      ++rejected;
      continue;
    }
    // Parse/serialize is a fixed point after one round.
    const std::string once = obs::json_write(*doc, obs::JsonWriteOptions{17});
    const auto again = obs::json_parse(once);
    ASSERT_TRUE(again.has_value()) << "iteration " << iter;
    EXPECT_EQ(obs::json_write(*again, obs::JsonWriteOptions{17}), once)
        << "iteration " << iter;
  }
  // The mutation schedule must actually exercise the error paths.
  EXPECT_GT(rejected, 100);
}

// --- t-digest (obs/tdigest.h): the serving layer's latency sketch. ---

// A reproducible latency-shaped stream: lognormal-ish body with a
// heavy right tail, the regime the digest exists to summarize.
std::vector<double> latency_stream(std::uint64_t seed, std::size_t n) {
  stats::Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    double x = std::exp(rng.uniform(-1.0, 2.5));
    if (rng.uniform() < 0.02) x *= rng.uniform(5.0, 50.0);  // tail spikes
    xs.push_back(x);
  }
  return xs;
}

double sorted_quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

TEST(Properties, TDigestDeterministicSerialization) {
  // Same insertion sequence => byte-identical to_json_text(), the
  // contract the manifest golden-file diffs rely on.
  for (std::uint64_t seed : {7u, 21u, 1001u}) {
    const std::vector<double> xs = latency_stream(seed, 4000);
    obs::TDigest a(64.0);
    obs::TDigest b(64.0);
    for (const double x : xs) {
      a.add(x);
      b.add(x);
    }
    EXPECT_EQ(a.to_json_text(), b.to_json_text()) << "seed " << seed;
  }
}

TEST(Properties, TDigestQuantilesTrackSortedReference) {
  const std::vector<double> xs = latency_stream(0xD16E57, 10000);
  obs::TDigest digest(100.0);
  for (const double x : xs) digest.add(x);
  ASSERT_EQ(digest.count(), static_cast<double>(xs.size()));
  // Exact extremes.
  EXPECT_DOUBLE_EQ(digest.quantile(0.0),
                   *std::min_element(xs.begin(), xs.end()));
  EXPECT_DOUBLE_EQ(digest.quantile(1.0),
                   *std::max_element(xs.begin(), xs.end()));
  // Interior quantiles within a small fraction of the value range.
  const double range = digest.max() - digest.min();
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double want = sorted_quantile(xs, q);
    const double got = digest.quantile(q);
    EXPECT_NEAR(got, want, 0.02 * range) << "q=" << q;
  }
  // Quantile function is monotone in q.
  double prev = digest.quantile(0.0);
  for (int i = 1; i <= 100; ++i) {
    const double cur = digest.quantile(i / 100.0);
    EXPECT_GE(cur, prev - 1e-12) << "q=" << i / 100.0;
    prev = cur;
  }
}

TEST(Properties, TDigestMergeMatchesConcatenation) {
  // Merging shards approximates the digest of the concatenated
  // stream: counts/sums exact, quantiles within sketch accuracy —
  // regardless of association order.
  const std::vector<double> a = latency_stream(11, 3000);
  const std::vector<double> b = latency_stream(22, 5000);
  const std::vector<double> c = latency_stream(33, 2000);

  obs::TDigest da(64.0), db(64.0), dc(64.0), whole(64.0);
  std::vector<double> all;
  for (const double x : a) {
    da.add(x);
    all.push_back(x);
  }
  for (const double x : b) {
    db.add(x);
    all.push_back(x);
  }
  for (const double x : c) {
    dc.add(x);
    all.push_back(x);
  }
  for (const double x : all) whole.add(x);

  obs::TDigest left(64.0);  // (a+b)+c
  left.merge(da);
  left.merge(db);
  left.merge(dc);
  obs::TDigest right(64.0);  // a+(b+c)
  obs::TDigest bc(64.0);
  bc.merge(db);
  bc.merge(dc);
  right.merge(da);
  right.merge(bc);

  const double range = whole.max() - whole.min();
  for (obs::TDigest* merged : {&left, &right}) {
    EXPECT_DOUBLE_EQ(merged->count(), static_cast<double>(all.size()));
    EXPECT_NEAR(merged->sum(), whole.sum(), 1e-6 * std::fabs(whole.sum()));
    EXPECT_DOUBLE_EQ(merged->min(), whole.min());
    EXPECT_DOUBLE_EQ(merged->max(), whole.max());
    for (const double q : {0.1, 0.5, 0.9, 0.99}) {
      EXPECT_NEAR(merged->quantile(q), whole.quantile(q), 0.03 * range)
          << "q=" << q;
    }
  }
  // And the two association orders agree with each other.
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_NEAR(left.quantile(q), right.quantile(q), 0.03 * range)
        << "q=" << q;
  }
}

TEST(Properties, TDigestJsonRoundTripIsLossless) {
  const std::vector<double> xs = latency_stream(0xABCDE, 2500);
  obs::TDigest digest(64.0);
  for (const double x : xs) digest.add(x);
  const std::string text = digest.to_json_text();
  const auto doc = obs::json_parse(text);
  ASSERT_TRUE(doc.has_value());
  const std::optional<obs::TDigest> back = obs::TDigest::from_json(*doc);
  ASSERT_TRUE(back.has_value());
  // 17-digit doubles make the round trip bit-exact: re-serializing
  // reproduces the original text, and every quantile agrees.
  EXPECT_EQ(back->to_json_text(), text);
  for (int i = 0; i <= 20; ++i) {
    const double q = i / 20.0;
    EXPECT_DOUBLE_EQ(back->quantile(q), digest.quantile(q)) << "q=" << q;
  }
  // A non-digest document is rejected, not misparsed.
  EXPECT_FALSE(
      obs::TDigest::from_json(*obs::json_parse(R"({"counters":{}})"))
          .has_value());
}


// --- Importance-sampling weight algebra (src/yield/) ---------------

TEST(Properties, AnalyzeWeightsEqualWeightsReduceToBinomial) {
  // All-equal log-weights: the self-normalized estimator must equal
  // the plain ratio and the delta-method SE must equal the binomial
  // sqrt(p(1-p)/n) exactly — the brute-force baseline shares this
  // code path.
  const std::size_t n = 400;
  std::vector<double> lw(n, 1.75);  // any shared constant
  std::vector<unsigned char> fail(n, 0);
  for (std::size_t i = 0; i < 37; ++i) fail[i * 10] = 1;
  const yield::WeightStats s = yield::analyze_weights(lw, fail);
  const double p = 37.0 / 400.0;
  EXPECT_DOUBLE_EQ(s.p_fail, p);
  EXPECT_DOUBLE_EQ(s.ess, 400.0);
  EXPECT_DOUBLE_EQ(s.max_weight_fraction, 1.0 / 400.0);
  EXPECT_NEAR(s.std_err, std::sqrt(p * (1.0 - p) / 400.0), 1e-15);
  EXPECT_NEAR(s.normalized_sum, 1.0, 1e-12);
}

TEST(Properties, AnalyzeWeightsInvariantUnderConstantLogOffset) {
  stats::Rng rng(test::test_seed(3104));
  std::vector<double> lw(256);
  std::vector<unsigned char> fail(256);
  for (std::size_t i = 0; i < lw.size(); ++i) {
    lw[i] = 2.0 * rng.normal();
    fail[i] = rng.uniform() < 0.3 ? 1 : 0;
  }
  const yield::WeightStats base = yield::analyze_weights(lw, fail);
  for (const double offset : {-700.0, -40.0, 3.0, 40.0, 700.0}) {
    std::vector<double> shifted = lw;
    for (double& v : shifted) v += offset;
    const yield::WeightStats s = yield::analyze_weights(shifted, fail);
    // Self-normalization cancels any constant log-weight offset —
    // including ones far past exp()'s overflow range, thanks to the
    // internal max-shift. The cancellation is exact in real
    // arithmetic; in floats (lw + offset) - (max + offset) can differ
    // from lw - max in the last bits, so compare relatively.
    EXPECT_NEAR(s.p_fail, base.p_fail, 1e-9 * std::abs(base.p_fail))
        << "offset=" << offset;
    EXPECT_NEAR(s.ess, base.ess, 1e-9 * base.ess) << "offset=" << offset;
    EXPECT_NEAR(s.std_err, base.std_err, 1e-9 * base.std_err)
        << "offset=" << offset;
  }
}

TEST(Properties, AnalyzeWeightsEssBounds) {
  stats::Rng rng(test::test_seed(88));
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform() * 300);
    std::vector<double> lw(n);
    std::vector<unsigned char> fail(n);
    for (std::size_t i = 0; i < n; ++i) {
      lw[i] = 5.0 * rng.normal();
      fail[i] = rng.uniform() < 0.5 ? 1 : 0;
    }
    const yield::WeightStats s = yield::analyze_weights(lw, fail);
    EXPECT_GT(s.ess, 0.0);
    EXPECT_LE(s.ess, static_cast<double>(n) * (1.0 + 1e-12));
    EXPECT_GT(s.max_weight_fraction, 0.0);
    EXPECT_LE(s.max_weight_fraction, 1.0);
    EXPECT_NEAR(s.normalized_sum, 1.0, 1e-9);
    EXPECT_GE(s.p_fail, 0.0);
    EXPECT_LE(s.p_fail, 1.0);
  }
}

}  // namespace
}  // namespace lvf2
