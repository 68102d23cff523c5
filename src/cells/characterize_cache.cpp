#include "cells/characterize_cache.h"

#include <cstdlib>

#include "cache/cache.h"
#include "cells/cell_types.h"
#include "simd/simd.h"

namespace lvf2::cells {

namespace {

using obs::json_bool;
using obs::json_number;
using obs::json_object;
using obs::json_string;
using obs::JsonValue;

// --- key hashing ---------------------------------------------------

void feed_mosfet(cache::KeyHasher& h, const spice::Mosfet& m) {
  h.feed(m.is_nmos);
  h.feed(m.drive);
  h.feed(static_cast<std::uint64_t>(m.stack));
  h.feed(static_cast<std::uint64_t>(m.parallel));
}

void feed_stage(cache::KeyHasher& h, const spice::StageElectrical& s) {
  feed_mosfet(h, s.pull);
  h.feed(s.input_cap_pf);
  h.feed(s.internal_cap_pf);
  h.feed(s.mechanism_offset);
  h.feed(s.mechanism_base_scale);
  h.feed(s.mechanism_gain);
  h.feed(s.mechanism_gain_transition);
  h.feed(s.mechanism_width);
}

void feed_corner(cache::KeyHasher& h, const spice::ProcessCorner& c) {
  h.feed(c.vdd);
  h.feed(c.temp_c);
  h.feed(c.vth_n);
  h.feed(c.vth_p);
  h.feed(c.alpha);
  h.feed(c.kn);
  h.feed(c.kp);
  h.feed(c.sigma_vth_n);
  h.feed(c.sigma_vth_p);
  h.feed(c.sigma_len);
  h.feed(c.sigma_mob);
  h.feed(c.sigma_tox);
  h.feed(c.sigma_wid);
}

void feed_fit(cache::KeyHasher& h, const core::FitOptions& f) {
  h.feed(static_cast<std::uint64_t>(f.likelihood_bins));
  h.feed(static_cast<std::uint64_t>(f.em_max_iterations));
  h.feed(f.em_tolerance);
  h.feed(f.seed);
}

// --- JSON building helpers -----------------------------------------

// 64-bit integers (seeds) are stored as decimal strings: a JSON
// number is a double here and loses bits above 2^53.
JsonValue ju64(std::uint64_t v) { return json_string(std::to_string(v)); }

JsonValue em_report_to_json(const core::EmReport& r) {
  JsonValue j = json_object();
  j.object.emplace_back("iterations",
                        json_number(static_cast<double>(r.iterations)));
  j.object.emplace_back("log_likelihood", json_number(r.log_likelihood));
  j.object.emplace_back("converged", json_bool(r.converged));
  j.object.emplace_back("collapsed", json_bool(r.collapsed));
  j.object.emplace_back("oscillated", json_bool(r.oscillated));
  j.object.emplace_back("dropped_samples",
                        json_number(static_cast<double>(r.dropped_samples)));
  j.object.emplace_back("clipped_samples",
                        json_number(static_cast<double>(r.clipped_samples)));
  j.object.emplace_back("degradation",
                        json_number(static_cast<double>(r.degradation)));
  return j;
}

// --- JSON decoding helpers -----------------------------------------

bool read_num(const JsonValue& obj, std::string_view key, double* out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->type != JsonValue::Type::kNumber) return false;
  *out = v->number;
  return true;
}

bool read_bool(const JsonValue& obj, std::string_view key, bool* out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->type != JsonValue::Type::kBool) return false;
  *out = v->boolean;
  return true;
}

bool read_str(const JsonValue& obj, std::string_view key, std::string* out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || v->type != JsonValue::Type::kString) return false;
  *out = v->string;
  return true;
}

bool read_size(const JsonValue& obj, std::string_view key, std::size_t* out) {
  double d = 0.0;
  if (!read_num(obj, key, &d) || d < 0) return false;
  *out = static_cast<std::size_t>(d);
  return true;
}

bool read_u64(const JsonValue& obj, std::string_view key,
              std::uint64_t* out) {
  std::string s;
  if (!read_str(obj, key, &s) || s.empty()) return false;
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

bool read_moments(const JsonValue& obj, std::string_view key,
                  stats::SnMoments* out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_object()) return false;
  return read_num(*v, "mean", &out->mean) &&
         read_num(*v, "stddev", &out->stddev) &&
         read_num(*v, "skewness", &out->skewness);
}

bool read_lvf2_params(const JsonValue& obj, std::string_view key,
                      core::Lvf2Parameters* out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_object()) return false;
  return read_num(*v, "lambda", &out->lambda) &&
         read_moments(*v, "theta1", &out->theta1) &&
         read_moments(*v, "theta2", &out->theta2);
}

bool read_em_report(const JsonValue& obj, std::string_view key,
                    core::EmReport* out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_object()) return false;
  double degradation = 0.0;
  if (!read_size(*v, "iterations", &out->iterations) ||
      !read_num(*v, "log_likelihood", &out->log_likelihood) ||
      !read_bool(*v, "converged", &out->converged) ||
      !read_bool(*v, "collapsed", &out->collapsed) ||
      !read_bool(*v, "oscillated", &out->oscillated) ||
      !read_size(*v, "dropped_samples", &out->dropped_samples) ||
      !read_size(*v, "clipped_samples", &out->clipped_samples) ||
      !read_num(*v, "degradation", &degradation)) {
    return false;
  }
  const int d = static_cast<int>(degradation);
  if (d < static_cast<int>(core::FitDegradation::kNone) ||
      d > static_cast<int>(core::FitDegradation::kRejected)) {
    return false;
  }
  out->degradation = static_cast<core::FitDegradation>(d);
  return true;
}

bool read_corner(const JsonValue& obj, std::string_view key,
                 spice::ProcessCorner* out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_object()) return false;
  return read_num(*v, "vdd", &out->vdd) &&
         read_num(*v, "temp_c", &out->temp_c) &&
         read_num(*v, "vth_n", &out->vth_n) &&
         read_num(*v, "vth_p", &out->vth_p) &&
         read_num(*v, "alpha", &out->alpha) &&
         read_num(*v, "kn", &out->kn) &&
         read_num(*v, "kp", &out->kp) &&
         read_num(*v, "sigma_vth_n", &out->sigma_vth_n) &&
         read_num(*v, "sigma_vth_p", &out->sigma_vth_p) &&
         read_num(*v, "sigma_len", &out->sigma_len) &&
         read_num(*v, "sigma_mob", &out->sigma_mob) &&
         read_num(*v, "sigma_tox", &out->sigma_tox) &&
         read_num(*v, "sigma_wid", &out->sigma_wid);
}

bool read_fit(const JsonValue& obj, std::string_view key,
              core::FitOptions* out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_object()) return false;
  return read_size(*v, "likelihood_bins", &out->likelihood_bins) &&
         read_size(*v, "em_max_iterations", &out->em_max_iterations) &&
         read_num(*v, "em_tolerance", &out->em_tolerance) &&
         read_u64(*v, "seed", &out->seed);
}

}  // namespace

JsonValue moments_to_json(const stats::SnMoments& m) {
  return json_object({{"mean", json_number(m.mean)},
                      {"stddev", json_number(m.stddev)},
                      {"skewness", json_number(m.skewness)}});
}

JsonValue lvf2_params_to_json(const core::Lvf2Parameters& p) {
  return json_object({{"lambda", json_number(p.lambda)},
                      {"theta1", moments_to_json(p.theta1)},
                      {"theta2", moments_to_json(p.theta2)}});
}

std::uint64_t entry_cache_key(const spice::ProcessCorner& corner,
                              const CharacterizeOptions& options,
                              const Cell& cell, const TimingArc& arc,
                              const std::string& arc_label,
                              std::size_t load_idx, std::size_t slew_idx,
                              std::uint64_t salt) {
  cache::KeyHasher h;
  h.feed(salt);
  // Kernel tier: SIMD tiers agree with scalar only within tolerance,
  // so entries fitted under one tier must not be replayed under
  // another.
  h.feed(static_cast<std::uint64_t>(simd::active_tier()));
  // Cell identity. The name participates because condition_seed hashes
  // it; family/inputs/drive pin down the rebuild path used by verify.
  h.feed(cell.name);
  h.feed(static_cast<std::uint64_t>(cell.family));
  h.feed(static_cast<std::uint64_t>(cell.inputs));
  h.feed(cell.drive);
  // Arc identity and electrics (the simulate_stage inputs).
  h.feed(arc_label);
  h.feed(arc.input_pin);
  h.feed(arc.output_pin);
  h.feed(arc.rise_output);
  feed_stage(h, arc.stage);
  // Grid condition: indices (seed derivation) and physical values.
  h.feed(static_cast<std::uint64_t>(load_idx));
  h.feed(static_cast<std::uint64_t>(slew_idx));
  h.feed(options.grid.slews_ns.at(slew_idx));
  h.feed(options.grid.loads_pf.at(load_idx));
  // Monte-Carlo config.
  h.feed(static_cast<std::uint64_t>(options.mc_samples));
  h.feed(options.use_lhs);
  h.feed(options.seed_base);
  feed_fit(h, options.fit);
  feed_corner(h, corner);
  return h.digest();
}

obs::JsonValue encode_cached_entry(const spice::ProcessCorner& corner,
                                   const CharacterizeOptions& options,
                                   const Cell& cell,
                                   const std::string& arc_label,
                                   std::size_t load_idx, std::size_t slew_idx,
                                   const ConditionCharacterization& entry,
                                   const obs::ArcQor* qor) {
  std::size_t arc_index = 0;
  for (std::size_t a = 0; a < cell.arcs.size(); ++a) {
    if (cell.arcs[a].label() == arc_label) {
      arc_index = a;
      break;
    }
  }

  JsonValue inputs = json_object();
  inputs.object.emplace_back("cell", json_string(cell.name));
  inputs.object.emplace_back("family",
                             json_number(static_cast<double>(
                                 static_cast<int>(cell.family))));
  inputs.object.emplace_back("inputs",
                             json_number(static_cast<double>(cell.inputs)));
  inputs.object.emplace_back("drive", json_number(cell.drive));
  inputs.object.emplace_back("arc_index",
                             json_number(static_cast<double>(arc_index)));
  inputs.object.emplace_back("arc_label", json_string(arc_label));
  inputs.object.emplace_back("load_idx",
                             json_number(static_cast<double>(load_idx)));
  inputs.object.emplace_back("slew_idx",
                             json_number(static_cast<double>(slew_idx)));
  inputs.object.emplace_back("slew_ns",
                             json_number(options.grid.slews_ns.at(slew_idx)));
  inputs.object.emplace_back("load_pf",
                             json_number(options.grid.loads_pf.at(load_idx)));
  inputs.object.emplace_back(
      "mc_samples", json_number(static_cast<double>(options.mc_samples)));
  inputs.object.emplace_back("use_lhs", json_bool(options.use_lhs));
  inputs.object.emplace_back("seed_base", ju64(options.seed_base));

  JsonValue fit = json_object();
  fit.object.emplace_back(
      "likelihood_bins",
      json_number(static_cast<double>(options.fit.likelihood_bins)));
  fit.object.emplace_back(
      "em_max_iterations",
      json_number(static_cast<double>(options.fit.em_max_iterations)));
  fit.object.emplace_back("em_tolerance",
                          json_number(options.fit.em_tolerance));
  fit.object.emplace_back("seed", ju64(options.fit.seed));
  inputs.object.emplace_back("fit", std::move(fit));

  JsonValue cj = json_object();
  cj.object.emplace_back("vdd", json_number(corner.vdd));
  cj.object.emplace_back("temp_c", json_number(corner.temp_c));
  cj.object.emplace_back("vth_n", json_number(corner.vth_n));
  cj.object.emplace_back("vth_p", json_number(corner.vth_p));
  cj.object.emplace_back("alpha", json_number(corner.alpha));
  cj.object.emplace_back("kn", json_number(corner.kn));
  cj.object.emplace_back("kp", json_number(corner.kp));
  cj.object.emplace_back("sigma_vth_n", json_number(corner.sigma_vth_n));
  cj.object.emplace_back("sigma_vth_p", json_number(corner.sigma_vth_p));
  cj.object.emplace_back("sigma_len", json_number(corner.sigma_len));
  cj.object.emplace_back("sigma_mob", json_number(corner.sigma_mob));
  cj.object.emplace_back("sigma_tox", json_number(corner.sigma_tox));
  cj.object.emplace_back("sigma_wid", json_number(corner.sigma_wid));
  inputs.object.emplace_back("corner", std::move(cj));

  JsonValue result = json_object();
  result.object.emplace_back("slew_ns", json_number(entry.condition.slew_ns));
  result.object.emplace_back("load_pf", json_number(entry.condition.load_pf));
  result.object.emplace_back("nominal_delay_ns",
                             json_number(entry.nominal_delay_ns));
  result.object.emplace_back("nominal_transition_ns",
                             json_number(entry.nominal_transition_ns));
  result.object.emplace_back("lvf_delay", moments_to_json(entry.lvf_delay));
  result.object.emplace_back("lvf_transition",
                             moments_to_json(entry.lvf_transition));
  result.object.emplace_back("lvf2_delay",
                             lvf2_params_to_json(entry.lvf2_delay));
  result.object.emplace_back("lvf2_transition",
                             lvf2_params_to_json(entry.lvf2_transition));
  result.object.emplace_back("lvf2_delay_report",
                             em_report_to_json(entry.lvf2_delay_report));
  result.object.emplace_back("lvf2_transition_report",
                             em_report_to_json(entry.lvf2_transition_report));

  JsonValue doc = json_object();
  doc.object.emplace_back("salt", ju64(kCharacterizeCacheSalt));
  doc.object.emplace_back("inputs", std::move(inputs));
  doc.object.emplace_back("result", std::move(result));
  if (qor != nullptr) {
    doc.object.emplace_back("qor", obs::arc_qor_to_json(*qor));
  }
  return doc;
}

std::optional<DecodedCacheEntry> decode_cached_entry(
    const obs::JsonValue& doc) {
  if (!doc.is_object()) return std::nullopt;
  const JsonValue* result = doc.find("result");
  if (result == nullptr || !result->is_object()) return std::nullopt;

  DecodedCacheEntry out;
  ConditionCharacterization& cc = out.entry;
  if (!read_num(*result, "slew_ns", &cc.condition.slew_ns) ||
      !read_num(*result, "load_pf", &cc.condition.load_pf) ||
      !read_num(*result, "nominal_delay_ns", &cc.nominal_delay_ns) ||
      !read_num(*result, "nominal_transition_ns",
                &cc.nominal_transition_ns) ||
      !read_moments(*result, "lvf_delay", &cc.lvf_delay) ||
      !read_moments(*result, "lvf_transition", &cc.lvf_transition) ||
      !read_lvf2_params(*result, "lvf2_delay", &cc.lvf2_delay) ||
      !read_lvf2_params(*result, "lvf2_transition", &cc.lvf2_transition) ||
      !read_em_report(*result, "lvf2_delay_report",
                      &cc.lvf2_delay_report) ||
      !read_em_report(*result, "lvf2_transition_report",
                      &cc.lvf2_transition_report)) {
    return std::nullopt;
  }
  // Only ok entries are stored, so the decoded status is the default
  // Status::ok().
  const JsonValue* qor = doc.find("qor");
  if (qor != nullptr) {
    out.qor = obs::arc_qor_from_json(*qor);
    if (!out.qor.has_value()) return std::nullopt;
  }
  return out;
}

std::optional<CachedEntryInputs> decode_cached_inputs(
    const obs::JsonValue& doc) {
  if (!doc.is_object()) return std::nullopt;
  CachedEntryInputs in;
  if (!read_u64(doc, "salt", &in.salt)) return std::nullopt;
  const JsonValue* inputs = doc.find("inputs");
  if (inputs == nullptr || !inputs->is_object()) return std::nullopt;
  double family = 0.0;
  double n_inputs = 0.0;
  if (!read_str(*inputs, "cell", &in.cell_name) ||
      !read_num(*inputs, "family", &family) ||
      !read_num(*inputs, "inputs", &n_inputs) ||
      !read_num(*inputs, "drive", &in.drive) ||
      !read_size(*inputs, "arc_index", &in.arc_index) ||
      !read_str(*inputs, "arc_label", &in.arc_label) ||
      !read_size(*inputs, "load_idx", &in.load_idx) ||
      !read_size(*inputs, "slew_idx", &in.slew_idx) ||
      !read_num(*inputs, "slew_ns", &in.slew_ns) ||
      !read_num(*inputs, "load_pf", &in.load_pf) ||
      !read_size(*inputs, "mc_samples", &in.mc_samples) ||
      !read_bool(*inputs, "use_lhs", &in.use_lhs) ||
      !read_u64(*inputs, "seed_base", &in.seed_base) ||
      !read_fit(*inputs, "fit", &in.fit) ||
      !read_corner(*inputs, "corner", &in.corner)) {
    return std::nullopt;
  }
  if (family < static_cast<double>(static_cast<int>(CellFamily::kInv)) ||
      family > static_cast<double>(
                   static_cast<int>(CellFamily::kHalfAdder))) {
    return std::nullopt;
  }
  in.family = static_cast<int>(family);
  in.inputs = static_cast<int>(n_inputs);
  return in;
}

namespace {

// The rebuilt execution context of a cached entry: the cell with its
// arc resolved, and options whose grid puts the recorded condition at
// the recorded indices (the entry's seeds depend on the indices; the
// padding slots are never read).
struct RebuiltEntry {
  Cell cell;
  std::size_t arc_index = 0;
  CharacterizeOptions options;
};

std::optional<RebuiltEntry> rebuild_inputs(const CachedEntryInputs& inputs) {
  RebuiltEntry out;
  out.cell = build_cell(static_cast<CellFamily>(inputs.family),
                        inputs.inputs, inputs.drive);
  if (out.cell.name != inputs.cell_name) return std::nullopt;
  bool found = false;
  if (inputs.arc_index < out.cell.arcs.size() &&
      out.cell.arcs[inputs.arc_index].label() == inputs.arc_label) {
    out.arc_index = inputs.arc_index;
    found = true;
  } else {
    for (std::size_t a = 0; a < out.cell.arcs.size(); ++a) {
      if (out.cell.arcs[a].label() == inputs.arc_label) {
        out.arc_index = a;
        found = true;
        break;
      }
    }
  }
  if (!found) return std::nullopt;

  out.options.grid.slews_ns.assign(inputs.slew_idx + 1, inputs.slew_ns);
  out.options.grid.loads_pf.assign(inputs.load_idx + 1, inputs.load_pf);
  out.options.mc_samples = inputs.mc_samples;
  out.options.use_lhs = inputs.use_lhs;
  out.options.seed_base = inputs.seed_base;
  out.options.fit = inputs.fit;
  return out;
}

}  // namespace

std::optional<ConditionCharacterization> recompute_cached_entry(
    const CachedEntryInputs& inputs) {
  const std::optional<RebuiltEntry> rebuilt = rebuild_inputs(inputs);
  if (!rebuilt.has_value()) return std::nullopt;
  Characterizer characterizer(inputs.corner, rebuilt->options);
  return characterizer.characterize_entry(
      rebuilt->cell, rebuilt->cell.arcs[rebuilt->arc_index],
      inputs.arc_label, inputs.load_idx, inputs.slew_idx);
}

const char* to_string(CacheVerifyOutcome outcome) {
  switch (outcome) {
    case CacheVerifyOutcome::kOk: return "ok";
    case CacheVerifyOutcome::kMismatch: return "mismatch";
    case CacheVerifyOutcome::kUndecodable: return "undecodable";
    case CacheVerifyOutcome::kUnrebuildable: return "unrebuildable";
  }
  return "unknown";
}

CacheVerifyOutcome verify_cached_entry(const obs::JsonValue& doc) {
  const std::optional<CachedEntryInputs> inputs = decode_cached_inputs(doc);
  const JsonValue* stored =
      doc.is_object() ? doc.find("result") : nullptr;
  if (!inputs.has_value() || stored == nullptr || !stored->is_object()) {
    return CacheVerifyOutcome::kUndecodable;
  }
  const std::optional<RebuiltEntry> rebuilt = rebuild_inputs(*inputs);
  if (!rebuilt.has_value()) return CacheVerifyOutcome::kUnrebuildable;

  const TimingArc& arc = rebuilt->cell.arcs[rebuilt->arc_index];
  Characterizer characterizer(inputs->corner, rebuilt->options);
  const ConditionCharacterization cc = characterizer.characterize_entry(
      rebuilt->cell, arc, inputs->arc_label, inputs->load_idx,
      inputs->slew_idx);
  if (!cc.status.is_ok()) return CacheVerifyOutcome::kMismatch;

  const JsonValue redone = encode_cached_entry(
      inputs->corner, rebuilt->options, rebuilt->cell,
      inputs->arc_label, inputs->load_idx, inputs->slew_idx, cc, nullptr);
  const JsonValue* redone_result = redone.find("result");
  const obs::JsonWriteOptions full{17};
  return obs::json_write(*stored, full) ==
                 obs::json_write(*redone_result, full)
             ? CacheVerifyOutcome::kOk
             : CacheVerifyOutcome::kMismatch;
}

}  // namespace lvf2::cells
