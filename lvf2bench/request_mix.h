#pragma once
// Seeded request mix of the serve-warm workload: ~60 % table lookups
// (arc_dist / bin / yield3), ~25 % path_ssta with depth 2-32 and ~15 %
// yield_hs at 3 or 4 sigma. Keys are Zipf(1)-distributed over the
// working set, with the rank -> key map shuffled by the seed so each
// seed has its own hot set. The generator is self-contained (its own
// splitmix64 stream), so the same (seed, stream) always yields the
// same sequence.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lvf2bench {

enum class OpKind { kArcDist, kBin, kYield3, kPathSsta, kYieldHs };

const char* op_name(OpKind op);

/// The op group a request is reported under: "lookup" for
/// arc_dist/bin/yield3, else the op name.
const char* op_group(OpKind op);

struct MixRequest {
  OpKind op = OpKind::kArcDist;
  std::size_t key = 0;  ///< index into the working set
  int depth = 0;        ///< path_ssta only
  int sigma = 0;        ///< yield_hs only
};

class RequestMix {
 public:
  /// `stream` separates the independent sequences of several clients
  /// sharing one seed.
  RequestMix(std::uint64_t seed, std::uint64_t stream,
             std::size_t working_set);

  MixRequest next();

  /// Working-set key holding Zipf rank r (0 = hottest).
  std::size_t key_of_rank(std::size_t rank) const { return rank_to_key_[rank]; }

 private:
  std::uint64_t next_u64();
  double next_unit();

  std::uint64_t state_;
  std::vector<double> zipf_cdf_;
  std::vector<std::size_t> rank_to_key_;
};

}  // namespace lvf2bench
