// Tier resolution and the public span wrappers. The tier is resolved
// exactly once (first kernel call or active_tier() query) from the
// LVF2_SIMD environment variable and CPUID, never aborting on a bad
// value, and the final choice lands in the run manifest as
// "simd.tier" so every artifact records which kernels produced it.

#include "simd/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "obs/manifest.h"
#include "simd/kernel_table.h"

namespace lvf2::simd {

namespace {

using detail::KernelTable;

const KernelTable* table_for(Tier tier) {
  switch (tier) {
    case Tier::kAvx2:
      return detail::avx2_kernels();
    case Tier::kScalar:
      break;
  }
  return detail::scalar_kernels();
}

bool cpu_has_avx2_fma() {
#if defined(__x86_64__) && defined(__GNUC__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

Tier resolve_from_env() {
  // Only "scalar" pins a tier. Unset, empty, auto, avx2 and any unknown
  // token take the best tier this binary and CPU can run.
  const char* env = std::getenv("LVF2_SIMD");
  if (env != nullptr && std::strcmp(env, "scalar") == 0) return Tier::kScalar;
  return tier_available(Tier::kAvx2) ? Tier::kAvx2 : Tier::kScalar;
}

std::atomic<const KernelTable*> g_table{nullptr};
std::atomic<Tier> g_tier{Tier::kScalar};

void record_tier() {
  // Registered as a persistent provider, not a one-shot set_config:
  // the tier is resolved once per process but manifests start/stop
  // repeatedly (e.g. the cold and warm cache runs of one test
  // binary), and every session must record which kernels produced it.
  // The provider reads g_tier at emit time so a set_tier_for_testing
  // override is reflected too.
  obs::ManifestRecorder::instance().set_config_provider("simd.tier", [] {
    return std::string(tier_name(g_tier.load(std::memory_order_relaxed)));
  });
}
std::once_flag g_once;

const KernelTable& kernels() {
  const KernelTable* t = g_table.load(std::memory_order_acquire);
  if (t != nullptr) return *t;
  std::call_once(g_once, [] {
    const Tier tier = resolve_from_env();
    g_tier.store(tier, std::memory_order_relaxed);
    g_table.store(table_for(tier), std::memory_order_release);
    record_tier();
  });
  return *g_table.load(std::memory_order_acquire);
}

}  // namespace

Tier active_tier() {
  kernels();
  return g_tier.load(std::memory_order_relaxed);
}

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kAvx2:
      return "avx2";
    case Tier::kScalar:
      break;
  }
  return "scalar";
}

bool tier_available(Tier tier) {
  switch (tier) {
    case Tier::kAvx2:
      return detail::avx2_kernels() != nullptr && cpu_has_avx2_fma();
    case Tier::kScalar:
      break;
  }
  return true;
}

Tier set_tier_for_testing(Tier tier) {
  kernels();  // make sure the once-flag has fired
  const Tier prev = g_tier.load(std::memory_order_relaxed);
  if (tier_available(tier)) {
    g_tier.store(tier, std::memory_order_relaxed);
    g_table.store(table_for(tier), std::memory_order_release);
    record_tier();
  }
  return prev;
}

void normal_pdf(std::span<const double> x, std::span<double> out) {
  kernels().normal_pdf(x.data(), out.data(), x.size());
}

void normal_cdf(std::span<const double> x, std::span<double> out) {
  kernels().normal_cdf(x.data(), out.data(), x.size());
}

void normal_log_cdf(std::span<const double> x, std::span<double> out) {
  kernels().normal_log_cdf(x.data(), out.data(), x.size());
}

void normal_quantile(std::span<const double> p, std::span<double> out) {
  kernels().normal_quantile(p.data(), out.data(), p.size());
}

void exp(std::span<const double> x, std::span<double> out) {
  kernels().exp(x.data(), out.data(), x.size());
}

void owens_t(std::span<const double> h, double a, std::span<double> out) {
  kernels().owens_t(h.data(), a, out.data(), h.size());
}

void sn_log_pdf(double xi, double omega, double alpha,
                std::span<const double> x, std::span<double> out) {
  kernels().sn_log_pdf(xi, omega, alpha, x.data(), out.data(), x.size());
}

void sn_pdf(double xi, double omega, double alpha,
            std::span<const double> x, std::span<double> out) {
  kernels().sn_pdf(xi, omega, alpha, x.data(), out.data(), x.size());
}

void sn_cdf(double xi, double omega, double alpha,
            std::span<const double> x, std::span<double> out) {
  kernels().sn_cdf(xi, omega, alpha, x.data(), out.data(), x.size());
}

void esn_log_pdf(double xi, double omega, double alpha, double tau,
                 std::span<const double> x, std::span<double> out) {
  kernels().esn_log_pdf(xi, omega, alpha, tau, x.data(), out.data(),
                        x.size());
}

void esn_pdf(double xi, double omega, double alpha, double tau,
             std::span<const double> x, std::span<double> out) {
  kernels().esn_pdf(xi, omega, alpha, tau, x.data(), out.data(), x.size());
}

void normal_mu_sigma_log_pdf(double mu, double sigma,
                             std::span<const double> x,
                             std::span<double> out) {
  kernels().normal_mu_sigma_log_pdf(mu, sigma, x.data(), out.data(),
                                    x.size());
}

void em_responsibilities(double log_w_a, double log_w_b,
                         std::span<const double> lpa,
                         std::span<const double> lpb,
                         std::span<double> resp, std::span<double> lse) {
  kernels().em_responsibilities(log_w_a, log_w_b, lpa.data(), lpb.data(),
                                resp.data(), lse.data(), lpa.size());
}

void axpy(double a, std::span<const double> x, std::span<double> y) {
  kernels().axpy(a, x.data(), y.data(), x.size());
}

SnScore sn_weighted_nll_score(double xi, double omega, double alpha,
                              std::span<const double> x,
                              std::span<const double> w) {
  double out[10];
  kernels().sn_nll_score(xi, omega, alpha, x.data(), w.data(), x.size(),
                         out);
  SnScore s;
  s.nll = out[0];
  for (int k = 0; k < 3; ++k) s.score[k] = out[1 + k];
  for (int k = 0; k < 6; ++k) s.hessian[k] = out[4 + k];
  return s;
}

}  // namespace lvf2::simd
