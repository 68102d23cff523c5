// AVX2+FMA tier: kernels_impl.h instantiated over the 4-lane wrapper.
// This is the only translation unit compiled with -mavx2 -mfma (see
// src/simd/CMakeLists.txt); everything it exports crosses the TU
// boundary through the raw-pointer KernelTable, so no AVX2-encoded
// code can leak into the portable binary. dispatch.cpp only installs
// this table after a runtime CPUID check.

#include "simd/kernel_table.h"

#if defined(__AVX2__) && defined(__FMA__)

#include "simd/kernels_impl.h"
#include "simd/vec.h"

namespace lvf2::simd::detail {

namespace {
constexpr KernelTable kAvx2Table = {
    k_normal_pdf<VecAvx2>,
    k_normal_cdf<VecAvx2>,
    k_normal_log_cdf<VecAvx2>,
    k_normal_quantile<VecAvx2>,
    k_exp<VecAvx2>,
    k_owens_t<VecAvx2>,
    k_sn_log_pdf<VecAvx2>,
    k_sn_pdf<VecAvx2>,
    k_sn_cdf<VecAvx2>,
    k_esn_log_pdf<VecAvx2>,
    k_esn_pdf<VecAvx2>,
    k_normal_mu_sigma_log_pdf<VecAvx2>,
    k_em_responsibilities<VecAvx2>,
    k_axpy<VecAvx2>,
    k_sn_nll_score<VecAvx2>,
};
}  // namespace

const KernelTable* avx2_kernels() { return &kAvx2Table; }

}  // namespace lvf2::simd::detail

#else  // toolchain could not target AVX2: tier reports unavailable.

namespace lvf2::simd::detail {
const KernelTable* avx2_kernels() { return nullptr; }
}  // namespace lvf2::simd::detail

#endif
