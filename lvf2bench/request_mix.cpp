#include "request_mix.h"

#include <algorithm>
#include <numeric>

namespace lvf2bench {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

const char* op_name(OpKind op) {
  switch (op) {
    case OpKind::kArcDist:
      return "arc_dist";
    case OpKind::kBin:
      return "bin";
    case OpKind::kYield3:
      return "yield3";
    case OpKind::kPathSsta:
      return "path_ssta";
    case OpKind::kYieldHs:
      return "yield_hs";
  }
  return "?";
}

const char* op_group(OpKind op) {
  switch (op) {
    case OpKind::kPathSsta:
    case OpKind::kYieldHs:
      return op_name(op);
    default:
      return "lookup";
  }
}

RequestMix::RequestMix(std::uint64_t seed, std::uint64_t stream,
                       std::size_t working_set)
    : state_(seed * 0x2545F4914F6CDD1Dull + stream) {
  // The rank -> key shuffle depends on the seed only, so every client
  // stream of one seed shares the hot set.
  std::uint64_t shuffle_state = seed ^ 0xD1B54A32D192ED03ull;
  rank_to_key_.resize(working_set);
  std::iota(rank_to_key_.begin(), rank_to_key_.end(), std::size_t{0});
  for (std::size_t i = working_set; i > 1; --i) {
    const std::size_t j = splitmix64(shuffle_state) % i;
    std::swap(rank_to_key_[i - 1], rank_to_key_[j]);
  }
  zipf_cdf_.resize(working_set);
  double total = 0.0;
  for (std::size_t r = 0; r < working_set; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    zipf_cdf_[r] = total;
  }
  for (double& c : zipf_cdf_) c /= total;
  // Decorrelate nearby seeds before the first draw.
  for (int i = 0; i < 4; ++i) next_u64();
}

std::uint64_t RequestMix::next_u64() { return splitmix64(state_); }

double RequestMix::next_unit() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

MixRequest RequestMix::next() {
  MixRequest r;
  const double u = next_unit();
  if (u < 0.20) {
    r.op = OpKind::kArcDist;
  } else if (u < 0.40) {
    r.op = OpKind::kBin;
  } else if (u < 0.60) {
    r.op = OpKind::kYield3;
  } else if (u < 0.85) {
    r.op = OpKind::kPathSsta;
    r.depth = 2 + static_cast<int>(next_u64() % 31);  // 2..32
  } else {
    r.op = OpKind::kYieldHs;
    r.sigma = (next_u64() & 1) != 0 ? 4 : 3;
  }
  const double k = next_unit();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), k);
  const std::size_t rank = std::min<std::size_t>(
      static_cast<std::size_t>(it - zipf_cdf_.begin()), zipf_cdf_.size() - 1);
  r.key = rank_to_key_[rank];
  return r;
}

}  // namespace lvf2bench
