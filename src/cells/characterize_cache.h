#pragma once
// Cache glue for library characterization: the content-addressed key
// of one (cell, arc, load, slew) table entry, the JSON codec of its
// characterized result, and the recompute path the `lvf2_cache
// verify` tool uses to re-derive stored entries from their recorded
// inputs.
//
// The key hashes *every* input the entry's output depends on — cell
// identity and arc electrics, grid condition, Monte-Carlo config
// (samples / LHS / shards / seed policy), EM fit options, the full
// process corner, and kCharacterizeCacheSalt. Decision 16 made each
// entry a pure function of exactly these inputs, which is what makes
// a content-addressed cache sound (DESIGN.md decision 17).

#include <cstdint>
#include <optional>
#include <string>

#include "cells/characterize.h"
#include "obs/json.h"
#include "obs/manifest.h"

namespace lvf2::cells {

/// Code-version salt folded into every cache key. Bump whenever the
/// Monte-Carlo engine, the fitting code, or this codec changes
/// behaviour: old entries then miss (and `lvf2_cache gc` collects
/// them) instead of serving stale results.
inline constexpr std::uint64_t kCharacterizeCacheSalt = 5;

/// Content-addressed key of one characterization table entry. `salt`
/// is the code-version salt the key is derived under (an older salt
/// gives the key an older build stored the entry at).
std::uint64_t entry_cache_key(const spice::ProcessCorner& corner,
                              const CharacterizeOptions& options,
                              const Cell& cell, const TimingArc& arc,
                              const std::string& arc_label,
                              std::size_t load_idx, std::size_t slew_idx,
                              std::uint64_t salt = kCharacterizeCacheSalt);

/// Everything `verify` needs to re-run an entry without the original
/// library object: how to rebuild the cell, which arc, the grid
/// condition and indices (seed derivation uses the indices), and the
/// full Monte-Carlo / fit / corner configuration.
struct CachedEntryInputs {
  std::uint64_t salt = 0;
  std::string cell_name;
  int family = 0;
  int inputs = 1;
  double drive = 1.0;
  std::size_t arc_index = 0;
  std::string arc_label;
  std::size_t load_idx = 0;
  std::size_t slew_idx = 0;
  double slew_ns = 0.0;
  double load_pf = 0.0;
  std::size_t mc_samples = 0;
  bool use_lhs = true;
  std::uint64_t seed_base = 0;
  core::FitOptions fit;
  spice::ProcessCorner corner;
};

/// Codecs of the fitted distributions, shared by the cache entries and
/// the serve replies: {"mean","stddev","skewness"} and
/// {"lambda","theta1","theta2"}.
obs::JsonValue moments_to_json(const stats::SnMoments& m);
obs::JsonValue lvf2_params_to_json(const core::Lvf2Parameters& p);

/// Serializes one characterized entry for the cache: {"salt", "inputs",
/// "result"} plus an optional "qor" manifest row captured when a
/// manifest was armed during the populating run. Serialize the
/// returned document at full precision (obs::JsonWriteOptions{17}).
obs::JsonValue encode_cached_entry(const spice::ProcessCorner& corner,
                                   const CharacterizeOptions& options,
                                   const Cell& cell,
                                   const std::string& arc_label,
                                   std::size_t load_idx, std::size_t slew_idx,
                                   const ConditionCharacterization& entry,
                                   const obs::ArcQor* qor);

/// A decoded cache entry: the characterized result and, when the
/// populating run recorded one, its manifest QoR row.
struct DecodedCacheEntry {
  ConditionCharacterization entry;
  std::optional<obs::ArcQor> qor;
};

/// Inverse of encode_cached_entry. Returns nullopt for missing or
/// mistyped members (corrupted entries degrade to recompute).
std::optional<DecodedCacheEntry> decode_cached_entry(
    const obs::JsonValue& doc);

/// The recorded inputs of a cached entry (for gc / verify tooling).
std::optional<CachedEntryInputs> decode_cached_inputs(
    const obs::JsonValue& doc);

/// Re-runs one entry from its recorded inputs: rebuilds the cell,
/// reconstructs an options grid that puts the recorded condition at
/// the recorded indices (seed derivation depends on them), and calls
/// Characterizer::characterize_entry. Returns nullopt when the
/// recorded cell/arc no longer exists in the current code. The caller
/// must make sure the process cache is disarmed first, or the
/// recompute would be served from the very entries it is verifying.
std::optional<ConditionCharacterization> recompute_cached_entry(
    const CachedEntryInputs& inputs);

/// Outcome of re-deriving one cache entry from its recorded inputs.
enum class CacheVerifyOutcome {
  kOk,             ///< recompute matched the stored result bitwise
  kMismatch,       ///< recompute diverged (stale salt or code drift)
  kUndecodable,    ///< entry document did not decode
  kUnrebuildable,  ///< recorded cell/arc no longer exists
};
const char* to_string(CacheVerifyOutcome outcome);

/// Recomputes `doc`'s entry from its recorded inputs and compares the
/// recomputed "result" section against the stored one bitwise (both
/// serialized at 17 digits). Backs `lvf2_cache verify`. The process
/// cache must be disarmed first — otherwise the recompute would be
/// served from the very entries under verification.
CacheVerifyOutcome verify_cached_entry(const obs::JsonValue& doc);

}  // namespace lvf2::cells
