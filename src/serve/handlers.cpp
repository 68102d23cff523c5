#include "serve/handlers.h"

#include <bit>
#include <chrono>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "cells/characterize_cache.h"
#include "core/binning.h"
#include "core/cancel.h"
#include "core/lvf2_model.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "serve/telemetry.h"
#include "spice/montecarlo.h"
#include "ssta/block_ssta.h"
#include "stats/grid_pdf.h"
#include "stats/rng.h"
#include "stats/skew_normal.h"
#include "yield/importance.h"

namespace lvf2::serve {

namespace {

using obs::json_number;
using obs::json_object;
using obs::json_string;

// A characterized entry plus the degradation rung that produced it.
struct EntryView {
  cells::ConditionCharacterization cc;
  std::string degradation = "none";
};

struct ArcRef {
  const cells::Cell* cell = nullptr;
  const cells::TimingArc* arc = nullptr;
  std::string arc_label;
  std::size_t load_idx = 0;
  std::size_t slew_idx = 0;
  std::uint64_t entry_key = 0;  ///< cells::entry_cache_key of the entry
};

core::StatusOr<ArcRef> resolve_arc(const HandlerContext& ctx,
                                   const obs::JsonValue& params) {
  ArcRef ref;
  const std::string cell_name = params.string_or("cell", "");
  if (cell_name.empty()) {
    return core::Status::invalid_argument("params.cell is required");
  }
  ref.cell = ctx.library.find(cell_name);
  if (ref.cell == nullptr) {
    return core::Status::not_found("unknown cell \"" + cell_name + "\"");
  }
  if (ref.cell->arcs.empty()) {
    return core::Status::not_found("cell \"" + cell_name + "\" has no arcs");
  }
  // "arc" selects by label string or by numeric index (default 0).
  if (const obs::JsonValue* arc = params.find("arc"); arc != nullptr) {
    if (arc->type == obs::JsonValue::Type::kString) {
      for (const cells::TimingArc& candidate : ref.cell->arcs) {
        if (candidate.label() == arc->string) {
          ref.arc = &candidate;
          break;
        }
      }
      if (ref.arc == nullptr) {
        return core::Status::not_found("unknown arc \"" + arc->string +
                                       "\" of cell \"" + cell_name + "\"");
      }
    } else if (arc->type == obs::JsonValue::Type::kNumber) {
      const double index = arc->number;
      if (index < 0.0 ||
          index >= static_cast<double>(ref.cell->arcs.size())) {
        return core::Status::invalid_argument("arc index out of range");
      }
      ref.arc = &ref.cell->arcs[static_cast<std::size_t>(index)];
    } else {
      return core::Status::invalid_argument(
          "params.arc must be a label or an index");
    }
  } else {
    ref.arc = &ref.cell->arcs.front();
  }
  ref.arc_label = ref.arc->label();

  const cells::SlewLoadGrid& grid = ctx.characterize.grid;
  const double li = params.number_or("load_idx", 0.0);
  const double si = params.number_or("slew_idx", 0.0);
  if (li < 0.0 || li >= static_cast<double>(grid.rows()) ||
      si < 0.0 || si >= static_cast<double>(grid.cols())) {
    return core::Status::invalid_argument(
        "load_idx/slew_idx outside the characterization grid");
  }
  ref.load_idx = static_cast<std::size_t>(li);
  ref.slew_idx = static_cast<std::size_t>(si);
  ref.entry_key = cells::entry_cache_key(ctx.corner, ctx.characterize,
                                         *ref.cell, *ref.arc, ref.arc_label,
                                         ref.load_idx, ref.slew_idx);
  return ref;
}

// Tier 1+2 of the chain: the hot LRU, then the result-cache shard
// store (promoting a shard hit into the LRU). Returns nullopt on a
// double miss.
std::optional<EntryView> lookup_cached_entry(HandlerContext& ctx,
                                             std::uint64_t key,
                                             const char* tag) {
  if (auto hot = ctx.lru.get(key)) {
    if (auto doc = obs::json_parse(*hot)) {
      if (auto decoded = cells::decode_cached_entry(*doc)) {
        return EntryView{std::move(decoded->entry), tag};
      }
    }
  }
  if (cache::enabled()) {
    if (auto doc = cache::ResultCache::instance().lookup(key)) {
      if (auto decoded = cells::decode_cached_entry(*doc)) {
        ctx.lru.put(key, obs::json_write(*doc, obs::JsonWriteOptions{17}));
        return EntryView{std::move(decoded->entry), tag};
      }
    }
  }
  return std::nullopt;
}

// Tier 3a (kShedLight): 128-sample Monte Carlo + analytic moment fit.
// Bounded cost — roughly 1% of a full entry — and honest about it:
// the result carries only a single skew-normal (lambda = 0), tagged
// "single_sn".
EntryView analytic_entry(const HandlerContext& ctx, const ArcRef& ref) {
  static obs::Counter& degraded = obs::counter("serve.degraded.single_sn");
  degraded.add(1);
  EntryView view;
  view.degradation = "single_sn";
  cells::ConditionCharacterization& cc = view.cc;
  cc.condition =
      spice::ArcCondition{ctx.characterize.grid.slews_ns[ref.slew_idx],
                          ctx.characterize.grid.loads_pf[ref.load_idx]};
  const spice::StageTimes nominal =
      spice::nominal_stage_times(ref.arc->stage, cc.condition, ctx.corner);
  cc.nominal_delay_ns = nominal.delay_ns;
  cc.nominal_transition_ns = nominal.transition_ns;

  const cells::Characterizer characterizer(ctx.corner, ctx.characterize);
  spice::McConfig mc;
  mc.samples = 128;
  mc.use_lhs = ctx.characterize.use_lhs;
  mc.seed = characterizer.condition_seed(ref.cell->name, ref.arc_label,
                                         ref.load_idx, ref.slew_idx);
  const spice::McResult samples =
      spice::run_monte_carlo(ref.arc->stage, cc.condition, ctx.corner, mc);

  const auto fit = [](std::span<const double> xs,
                      double fallback) -> stats::SnMoments {
    if (auto sn = stats::SkewNormal::fit_moments(xs)) return sn->to_moments();
    return stats::SnMoments{fallback, 0.0, 0.0};
  };
  cc.lvf_delay = fit(samples.delay_ns, cc.nominal_delay_ns);
  cc.lvf_transition = fit(samples.transition_ns, cc.nominal_transition_ns);
  cc.lvf2_delay = core::Lvf2Parameters{0.0, cc.lvf_delay, cc.lvf_delay};
  cc.lvf2_transition =
      core::Lvf2Parameters{0.0, cc.lvf_transition, cc.lvf_transition};
  return view;
}

// Tier 3b (kShedFloor): nominal-only point mass. No sampling at all;
// the cheapest answer that is still an answer.
EntryView point_mass_entry(const HandlerContext& ctx, const ArcRef& ref) {
  static obs::Counter& degraded = obs::counter("serve.degraded.point_mass");
  degraded.add(1);
  EntryView view;
  view.degradation = "point_mass";
  cells::ConditionCharacterization& cc = view.cc;
  cc.condition =
      spice::ArcCondition{ctx.characterize.grid.slews_ns[ref.slew_idx],
                          ctx.characterize.grid.loads_pf[ref.load_idx]};
  const spice::StageTimes nominal =
      spice::nominal_stage_times(ref.arc->stage, cc.condition, ctx.corner);
  cc.nominal_delay_ns = nominal.delay_ns;
  cc.nominal_transition_ns = nominal.transition_ns;
  cc.lvf_delay = stats::SnMoments{cc.nominal_delay_ns, 0.0, 0.0};
  cc.lvf_transition = stats::SnMoments{cc.nominal_transition_ns, 0.0, 0.0};
  cc.lvf2_delay = core::Lvf2Parameters{0.0, cc.lvf_delay, cc.lvf_delay};
  cc.lvf2_transition =
      core::Lvf2Parameters{0.0, cc.lvf_transition, cc.lvf_transition};
  return view;
}

// Walks the degradation chain for `mode` (see handlers.h). May throw
// CancelledError out of the full compute; handle_request owns the
// catch and re-enters at the floor.
EntryView acquire_entry(HandlerContext& ctx, const ArcRef& ref,
                        ExecMode mode) {
  const std::uint64_t key = ref.entry_key;
  // On the full path a cache hit is simply the fast way to the same
  // bytes ("none"); on a shed path it is rung 1 of the chain and the
  // client is told ("cached").
  const char* hit_tag = mode == ExecMode::kFull ? "none" : "cached";
  if (auto cached = lookup_cached_entry(ctx, key, hit_tag)) {
    if (mode != ExecMode::kFull) {
      obs::counter("serve.degraded.cached").add(1);
    }
    return std::move(*cached);
  }
  switch (mode) {
    case ExecMode::kShedLight:
      return analytic_entry(ctx, ref);
    case ExecMode::kShedFloor:
      return point_mass_entry(ctx, ref);
    case ExecMode::kFull:
      break;
  }
  // Single-flight: concurrent identical-key full computes coalesce
  // behind one leader. Followers wait in bounded slices (so an armed
  // deadline still fires via checkpoint -> CancelledError -> floor),
  // then re-read the caches the leader populated.
  {
    std::unique_lock<std::mutex> lock(ctx.flight_mutex);
    if (!ctx.inflight_keys.insert(key).second) {
      static obs::Counter& coalesced = obs::counter("serve.coalesced");
      coalesced.add(1);
      while (ctx.inflight_keys.count(key) != 0) {
        ctx.flight_cv.wait_for(lock, std::chrono::milliseconds(10));
        lock.unlock();
        core::checkpoint();  // honors this follower's own deadline
        lock.lock();
      }
      lock.unlock();
      if (auto cached = lookup_cached_entry(ctx, key, hit_tag)) {
        return std::move(*cached);
      }
      // The leader failed (entry not cached): retry, likely becoming
      // the new leader. Depth is bounded by the number of concurrent
      // identical-key requests.
      return acquire_entry(ctx, ref, mode);
    }
  }
  // Leader: the erase + notify must run on every exit path, including
  // a CancelledError unwinding out of the Monte Carlo.
  struct FlightGuard {
    HandlerContext& ctx;
    std::uint64_t key;
    ~FlightGuard() {
      {
        std::lock_guard<std::mutex> lock(ctx.flight_mutex);
        ctx.inflight_keys.erase(key);
      }
      ctx.flight_cv.notify_all();
    }
  } flight_guard{ctx, key};
  const cells::Characterizer characterizer(ctx.corner, ctx.characterize);
  EntryView view;
  view.cc = characterizer.characterize_entry(*ref.cell, *ref.arc,
                                             ref.arc_label, ref.load_idx,
                                             ref.slew_idx);
  if (view.cc.status.is_ok()) {
    const obs::JsonValue doc = cells::encode_cached_entry(
        ctx.corner, ctx.characterize, *ref.cell, ref.arc_label, ref.load_idx,
        ref.slew_idx, view.cc, nullptr);
    ctx.lru.put(key, obs::json_write(doc, obs::JsonWriteOptions{17}));
  }
  return view;
}

obs::JsonValue arc_header_json(const ArcRef& ref, const EntryView& view) {
  obs::JsonValue out = json_object();
  out.object.emplace_back("cell", json_string(ref.cell->name));
  out.object.emplace_back("arc", json_string(ref.arc_label));
  out.object.emplace_back("slew_ns",
                          json_number(view.cc.condition.slew_ns));
  out.object.emplace_back("load_pf",
                          json_number(view.cc.condition.load_pf));
  return out;
}

HandlerResult op_arc_dist(HandlerContext& ctx, const ArcRef& ref,
                          ExecMode mode) {
  const EntryView view = acquire_entry(ctx, ref, mode);
  HandlerResult out;
  out.degradation = view.degradation;
  out.result = arc_header_json(ref, view);
  out.result.object.emplace_back("nominal_delay_ns",
                                 json_number(view.cc.nominal_delay_ns));
  out.result.object.emplace_back(
      "nominal_transition_ns", json_number(view.cc.nominal_transition_ns));
  out.result.object.emplace_back("delay",
                                 cells::moments_to_json(view.cc.lvf_delay));
  out.result.object.emplace_back(
      "transition", cells::moments_to_json(view.cc.lvf_transition));
  out.result.object.emplace_back(
      "lvf2_delay", cells::lvf2_params_to_json(view.cc.lvf2_delay));
  out.result.object.emplace_back(
      "lvf2_transition", cells::lvf2_params_to_json(view.cc.lvf2_transition));
  out.result.object.emplace_back("entry_status",
                                 json_string(view.cc.status.to_string()));
  return out;
}

HandlerResult op_bin(HandlerContext& ctx, const ArcRef& ref, ExecMode mode) {
  const EntryView view = acquire_entry(ctx, ref, mode);
  const core::Lvf2Model model =
      core::Lvf2Model::from_parameters(view.cc.lvf2_delay);
  const double mu = model.mean();
  const double sigma = model.stddev();
  HandlerResult out;
  out.degradation = view.degradation;
  out.result = arc_header_json(ref, view);
  obs::JsonValue bounds = obs::json_array();
  obs::JsonValue probs = obs::json_array();
  if (sigma > 0.0 && std::isfinite(sigma)) {
    const std::vector<double> boundaries = core::sigma_bin_boundaries(mu, sigma);
    const std::vector<double> p = core::bin_probabilities(
        [&](double x) { return model.cdf(x); }, boundaries);
    for (const double b : boundaries) bounds.array.push_back(json_number(b));
    for (const double v : p) probs.array.push_back(json_number(v));
  } else {
    // Point mass: all probability lands in the bin holding mu. Emit
    // the degenerate boundaries so the client sees why.
    for (int k = -3; k <= 3; ++k) bounds.array.push_back(json_number(mu));
    for (int i = 0; i < 8; ++i) {
      probs.array.push_back(json_number(i == 0 ? 1.0 : 0.0));
    }
  }
  out.result.object.emplace_back("boundaries", std::move(bounds));
  out.result.object.emplace_back("probabilities", std::move(probs));
  out.result.object.emplace_back("model_mean", json_number(mu));
  out.result.object.emplace_back("model_stddev", json_number(sigma));
  return out;
}

HandlerResult op_yield3(HandlerContext& ctx, const ArcRef& ref,
                        ExecMode mode) {
  const EntryView view = acquire_entry(ctx, ref, mode);
  const core::Lvf2Model model =
      core::Lvf2Model::from_parameters(view.cc.lvf2_delay);
  const double mu = model.mean();
  const double sigma = model.stddev();
  const double t_max = mu + 3.0 * sigma;
  const double yield =
      (sigma > 0.0 && std::isfinite(sigma)) ? model.cdf(t_max) : 1.0;
  HandlerResult out;
  out.degradation = view.degradation;
  out.result = arc_header_json(ref, view);
  out.result.object.emplace_back("t_max_ns", json_number(t_max));
  out.result.object.emplace_back("yield", json_number(yield));
  return out;
}

HandlerResult op_path_ssta(HandlerContext& ctx, const ArcRef& ref,
                           ExecMode mode, const obs::JsonValue& params) {
  double depth_raw = params.number_or("depth", 8.0);
  if (depth_raw < 1.0) depth_raw = 1.0;
  if (depth_raw > 64.0) depth_raw = 64.0;
  const std::size_t depth = static_cast<std::size_t>(depth_raw);

  const EntryView view = acquire_entry(ctx, ref, mode);
  const core::Lvf2Model model =
      core::Lvf2Model::from_parameters(view.cc.lvf2_delay);
  const double mu = model.mean();
  const double sigma = model.stddev();

  HandlerResult out;
  out.degradation = view.degradation;
  out.result = arc_header_json(ref, view);
  out.result.object.emplace_back("depth",
                                 json_number(static_cast<double>(depth)));
  const bool analytic = view.degradation == "single_sn" ||
                        view.degradation == "point_mass" || sigma <= 0.0 ||
                        !std::isfinite(sigma);
  if (analytic) {
    // Independent-sum moments (CLT): no grid propagation, bounded
    // cost regardless of depth — the shed-path arithmetic.
    const double n = static_cast<double>(depth);
    const double mean_d = n * mu;
    const double sigma_d = sigma * std::sqrt(n);
    const double skew_d = model.skewness() / std::sqrt(n);
    double yield = 1.0;
    if (sigma_d > 0.0 && std::isfinite(sigma_d)) {
      const stats::SkewNormal endpoint =
          stats::SkewNormal::from_moments(mean_d, sigma_d, skew_d);
      yield = endpoint.cdf(mean_d + 3.0 * sigma_d);
    }
    out.result.object.emplace_back("arrival_mean_ns", json_number(mean_d));
    out.result.object.emplace_back("arrival_stddev_ns", json_number(sigma_d));
    out.result.object.emplace_back("yield_3sigma", json_number(yield));
    return out;
  }

  // Full path: tabulate the arc's mixture PDF and convolve it depth
  // times (identical-stage chain, paper Section 4.4 style). Runs
  // serially on the request's thread so the armed deadline covers the
  // per-stage checkpoints, holding one cumulative grid at a time.
  const stats::GridPdf stage = stats::GridPdf::from_function(
      [&](double x) { return model.pdf(x); }, mu - 8.0 * sigma,
      mu + 8.0 * sigma, 512);
  ssta::SstaOptions options;
  options.grid_points = 1024;
  options.max_conv_points = 2048;
  const stats::GridPdf endpoint =
      ssta::chain_endpoint(stage, depth, options);
  const double mean_d = endpoint.mean();
  const double sigma_d = endpoint.stddev();
  out.result.object.emplace_back("arrival_mean_ns", json_number(mean_d));
  out.result.object.emplace_back("arrival_stddev_ns", json_number(sigma_d));
  out.result.object.emplace_back("arrival_skewness",
                                 json_number(endpoint.skewness()));
  out.result.object.emplace_back(
      "yield_3sigma", json_number(endpoint.cdf(mean_d + 3.0 * sigma_d)));
  return out;
}

// The `yield_hs` op: high-sigma failure probability of one arc at one
// grid condition, P(delay > mu + sigma*sd) with mu/sd taken from the
// entry's LVF2 delay model. The full path runs the importance-sampling
// engine (src/yield/) on the arc's stage — its sampling loops are
// checkpointed like every other compute here, so an armed deadline
// cancels mid-batch and handle_request re-enters at the floor. The
// frozen proposal shift is memoized in ctx.yield_shift, so a repeat
// request skips the pilot and only samples; its answer is the cold
// one bit for bit. Shed rungs skip the sampling entirely and answer
// from the (degraded) model tail, honestly tagged via the degradation
// chain.
HandlerResult op_yield_hs(HandlerContext& ctx, const ArcRef& ref,
                          ExecMode mode, const obs::JsonValue& params) {
  double sigma = params.number_or("sigma", 3.0);
  if (sigma < 1.0) sigma = 1.0;
  if (sigma > 6.0) sigma = 6.0;
  double max_samples_raw = params.number_or("max_samples", 65536.0);
  if (max_samples_raw < 1024.0) max_samples_raw = 1024.0;
  if (max_samples_raw > 262144.0) max_samples_raw = 262144.0;

  const EntryView view = acquire_entry(ctx, ref, mode);
  const core::Lvf2Model model =
      core::Lvf2Model::from_parameters(view.cc.lvf2_delay);
  const double mu = model.mean();
  const double sd = model.stddev();
  const double threshold = mu + sigma * sd;

  HandlerResult out;
  out.degradation = view.degradation;
  out.result = arc_header_json(ref, view);
  out.result.object.emplace_back("sigma", json_number(sigma));
  out.result.object.emplace_back("threshold_ns", json_number(threshold));
  if (mode != ExecMode::kFull || !(sd > 0.0) || !std::isfinite(sd)) {
    const double p =
        (sd > 0.0 && std::isfinite(sd)) ? 1.0 - model.cdf(threshold) : 0.0;
    out.result.object.emplace_back("p_fail", json_number(p));
    out.result.object.emplace_back("method", json_string("model_tail"));
    return out;
  }

  yield::IsConfig cfg;
  cfg.batch_samples = 8192;
  cfg.max_samples = static_cast<std::size_t>(max_samples_raw);
  cfg.target_rel_err = 0.10;
  cfg.shards = 8;  // fixed: deterministic at any thread count
  const cells::Characterizer characterizer(ctx.corner, ctx.characterize);
  cfg.seed = stats::combine_seed(
      characterizer.condition_seed(ref.cell->name, ref.arc_label,
                                   ref.load_idx, ref.slew_idx),
      static_cast<std::uint64_t>(sigma * 100.0 + 0.5));
  const spice::ArcCondition condition{
      ctx.characterize.grid.slews_ns[ref.slew_idx],
      ctx.characterize.grid.loads_pf[ref.load_idx]};
  const yield::ImportanceSampler sampler(ref.arc->stage, condition,
                                         ctx.corner, cfg);
  // The memo key. find_shift reads the stage, condition and corner
  // (all covered by the entry's content-addressed key), the threshold,
  // cfg.seed (the condition seed with sigma folded in) and
  // pilot_samples, refine_iterations, shards and use_lhs, which this op
  // fixes. So the shift is a function of (entry key, seed, threshold
  // bits). A CancelledError out of find_shift stores nothing.
  const std::uint64_t shift_key = stats::combine_seed(
      stats::combine_seed(ref.entry_key, cfg.seed),
      std::bit_cast<std::uint64_t>(threshold));
  std::optional<yield::ShiftVector> shift = ctx.yield_shift.get(shift_key);
  if (!shift) {
    shift = sampler.find_shift(threshold);
    ctx.yield_shift.put(shift_key, *shift);
  }
  const yield::IsEstimate est = sampler.estimate_with_shift(threshold, *shift);
  double shift_norm = 0.0;
  for (const double s : est.shift) shift_norm += s * s;
  shift_norm = std::sqrt(shift_norm);
  out.result.object.emplace_back("p_fail", json_number(est.p_fail));
  out.result.object.emplace_back("std_err", json_number(est.std_err));
  out.result.object.emplace_back("rel_err", json_number(est.rel_err));
  out.result.object.emplace_back(
      "samples", json_number(static_cast<double>(est.samples)));
  out.result.object.emplace_back(
      "failures", json_number(static_cast<double>(est.failures)));
  out.result.object.emplace_back("ess", json_number(est.ess));
  out.result.object.emplace_back("max_weight_fraction",
                                 json_number(est.max_weight_fraction));
  out.result.object.emplace_back("shift_norm", json_number(shift_norm));
  out.result.object.emplace_back("converged", obs::json_bool(est.converged));
  out.result.object.emplace_back("method", json_string("importance"));
  return out;
}

HandlerResult op_stats(const HandlerContext& ctx) {
  HandlerResult out;
  out.result = json_object();
  const auto add = [&](const char* name, const char* counter) {
    out.result.object.emplace_back(
        name,
        json_number(static_cast<double>(obs::counter(counter).value())));
  };
  add("accepted", "serve.accepted");
  add("completed", "serve.responded");
  add("rejected", "serve.rejected");
  add("shed_overload", "serve.shed.overload");
  add("shed_deadline", "serve.shed.deadline");
  add("shed_drain", "serve.shed.drain");
  add("lru_hit", "serve.lru.hit");
  add("lru_miss", "serve.lru.miss");
  add("yield_shift_hit", "serve.yield_shift.hit");
  add("yield_shift_miss", "serve.yield_shift.miss");
  add("cache_hit", "cache.hit");
  add("cache_miss", "cache.miss");
  out.result.object.emplace_back(
      "lru_size", json_number(static_cast<double>(ctx.lru.size())));
  return out;
}

// The `metrics` op: the live telemetry snapshot (per-op counts, rung
// mix, rolling rates, deadline compliance, queue/exec quantiles, the
// whole metrics registry) as JSON, or the Prometheus text exposition
// wrapped in {"format":"prometheus","text":...} when
// params.format == "prometheus".
HandlerResult op_metrics(const obs::JsonValue& params) {
  const std::string format = params.string_or("format", "json");
  HandlerResult out;
  if (format == "prometheus") {
    out.result = json_object();
    out.result.object.emplace_back("format", json_string("prometheus"));
    out.result.object.emplace_back(
        "text", json_string(ServeTelemetry::instance().prometheus()));
    return out;
  }
  if (format != "json") {
    return HandlerResult{
        core::Status::invalid_argument(
            "params.format must be \"json\" or \"prometheus\""),
        "none",
        {}};
  }
  out.result = ServeTelemetry::instance().snapshot_json();
  return out;
}

HandlerResult dispatch(HandlerContext& ctx, const Request& request,
                       ExecMode mode) {
  if (request.op == "ping") {
    HandlerResult out;
    out.result = json_object();
    out.result.object.emplace_back("pong", json_number(1.0));
    return out;
  }
  if (request.op == "stats") return op_stats(ctx);
  if (request.op == "metrics") return op_metrics(request.params);
  const core::StatusOr<ArcRef> ref = resolve_arc(ctx, request.params);
  if (!ref.is_ok()) return HandlerResult{ref.status(), "none", {}};
  if (request.op == "arc_dist") return op_arc_dist(ctx, ref.value(), mode);
  if (request.op == "bin") return op_bin(ctx, ref.value(), mode);
  if (request.op == "yield3") return op_yield3(ctx, ref.value(), mode);
  if (request.op == "yield_hs") {
    return op_yield_hs(ctx, ref.value(), mode, request.params);
  }
  if (request.op == "path_ssta") {
    return op_path_ssta(ctx, ref.value(), mode, request.params);
  }
  return HandlerResult{
      core::Status::invalid_argument("unknown op \"" + request.op + "\""),
      "none",
      {}};
}

}  // namespace

HandlerResult handle_request(HandlerContext& ctx, const Request& request,
                             ExecMode mode) {
  try {
    return dispatch(ctx, request, mode);
  } catch (const core::CancelledError&) {
    // Deadline fired mid-compute: answer from the floor of the chain.
    // The fallback runs with the deadline suspended — it is bounded-
    // cost by construction and must not be cancelled half way into
    // rendering the answer.
    obs::counter("serve.shed.deadline").add(1);
    core::DeadlineSuspend suspend;
    try {
      return dispatch(ctx, request, ExecMode::kShedFloor);
    } catch (const std::exception& e) {
      return HandlerResult{core::status_from_exception(e), "none", {}};
    }
  } catch (const std::exception& e) {
    obs::counter("serve.handler_error").add(1);
    obs::log_warn("serve.handler_failed",
                  {{"op", request.op}, {"error", e.what()}});
    return HandlerResult{core::status_from_exception(e), "none", {}};
  }
}

}  // namespace lvf2::serve
