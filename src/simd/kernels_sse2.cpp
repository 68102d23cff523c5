// SSE2 tier: kernels_impl.h instantiated over the 2-lane wrapper.
// SSE2 is the x86-64 baseline, so this TU needs no extra -march
// flags and the table is always available on x86-64 builds.

#include "simd/kernel_table.h"

#if defined(__x86_64__) || defined(_M_X64)

#include "simd/kernels_impl.h"
#include "simd/vec.h"

namespace lvf2::simd::detail {

namespace {
constexpr KernelTable kSse2Table = {
    k_normal_pdf<VecSse2>,
    k_normal_cdf<VecSse2>,
    k_normal_log_cdf<VecSse2>,
    k_normal_quantile<VecSse2>,
    k_exp<VecSse2>,
    k_owens_t<VecSse2>,
    k_sn_log_pdf<VecSse2>,
    k_sn_pdf<VecSse2>,
    k_sn_cdf<VecSse2>,
    k_esn_log_pdf<VecSse2>,
    k_esn_pdf<VecSse2>,
    k_normal_mu_sigma_log_pdf<VecSse2>,
    k_em_responsibilities<VecSse2>,
    k_axpy<VecSse2>,
    k_sn_nll_score<VecSse2>,
};
}  // namespace

const KernelTable* sse2_kernels() { return &kSse2Table; }

}  // namespace lvf2::simd::detail

#else  // non-x86: only the scalar tier exists.

namespace lvf2::simd::detail {
const KernelTable* sse2_kernels() { return nullptr; }
}  // namespace lvf2::simd::detail

#endif
