#pragma once
// lvf2d request handlers: the query ops and the graceful-degradation
// chain behind them. Every op that needs a characterized table entry
// acquires it through a three-tier chain whose depth depends on how
// much compute the server is willing to spend on the request:
//
//   kFull       hot LRU -> result-cache shard -> full MC + EM fit
//   kShedLight  hot LRU -> result-cache shard -> 128-sample analytic
//               moments (single skew-normal, "single_sn")
//   kShedFloor  hot LRU -> result-cache shard -> nominal-only point
//               mass ("point_mass")
//
// kShedLight answers overload sheds (admission watermark crossed:
// some budget left, none to waste); kShedFloor answers deadline
// expiry and drain sheds (no budget at all). A shed answer is status
// ok with a non-"none" degradation tag — the client learns what
// quality it got, and nobody gets an error for being unlucky about
// arrival time (DESIGN.md decision 19).

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_set>

#include "cells/characterize.h"
#include "cells/library.h"
#include "core/status.h"
#include "obs/json.h"
#include "serve/lru.h"
#include "serve/protocol.h"
#include "spice/process.h"
#include "yield/importance.h"

namespace lvf2::serve {

/// How much compute a request is allowed to spend (see above).
enum class ExecMode {
  kFull,
  kShedLight,
  kShedFloor,
};

/// Long-lived handler state: the library being served, the
/// characterization configuration (grid / samples / corner), the
/// hot-entry LRU and the yield_hs shift memo. One per server; all
/// methods thread-safe.
struct HandlerContext {
  cells::StandardCellLibrary library;
  spice::ProcessCorner corner = spice::ProcessCorner::tt_global_local_mc();
  cells::CharacterizeOptions characterize;
  Lru<std::string> lru{"serve.lru"};
  /// Frozen importance-sampling proposal shifts of served yield_hs
  /// requests (op_yield_hs in serve/handlers.cpp documents the key).
  Lru<yield::ShiftVector> yield_shift{"serve.yield_shift"};

  /// Single-flight coalescing state for identical-key full
  /// characterizations (acquire_entry): the first request through
  /// becomes the leader and computes; concurrent identical-key
  /// requests wait (counted in serve.coalesced) and re-read the
  /// caches when the leader finishes, instead of burning a pool slot
  /// on the same Monte Carlo.
  std::mutex flight_mutex;
  std::condition_variable flight_cv;
  std::unordered_set<std::uint64_t> inflight_keys;
};

/// Outcome of one handled request.
struct HandlerResult {
  core::Status status;
  std::string degradation = "none";
  obs::JsonValue result;
};

/// Executes one request under `mode`. Never throws: a deadline expiry
/// mid-compute is caught internally and re-answered from the
/// degradation floor; any other failure becomes the result's Status.
/// Ops: ping, stats, metrics, arc_dist, bin, yield3, yield_hs, path_ssta
/// (README "Serving" documents params and results).
HandlerResult handle_request(HandlerContext& ctx, const Request& request,
                             ExecMode mode);

}  // namespace lvf2::serve
