#include "cells/characterize.h"

#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "cells/characterize_cache.h"
#include "core/cancel.h"
#include "core/metrics.h"
#include "exec/pool.h"
#include "obs/obs.h"
#include "robust/faults.h"
#include "simd/simd.h"
#include "stats/descriptive.h"
#include "stats/rng.h"

namespace lvf2::cells {

namespace {

// Non-convergence accounting of one LVF^2 fit, with full table-entry
// context. The em.* counters are incremented inside the fit itself;
// this layer owns the per-entry warn log and the characterization-
// scoped counter.
void audit_fit_report(const core::EmReport& report, const std::string& cell,
                      const std::string& arc, std::size_t load_idx,
                      std::size_t slew_idx, const char* which) {
  if (report.converged) return;
  static obs::Counter& nonconverged =
      obs::counter("characterize.em_nonconverged");
  nonconverged.add(1);
  obs::log_warn("em.nonconverged",
                {{"cell", cell},
                 {"arc", arc},
                 {"load_idx", load_idx},
                 {"slew_idx", slew_idx},
                 {"fit", which},
                 {"iterations", report.iterations},
                 {"collapsed", report.collapsed}});
}

// LVF moment fit with a degradation fallback: non-finite samples are
// dropped first (one NaN must not poison the whole moment triple),
// and when the skew-normal moment fit rejects what remains (constant
// / near-constant data), the entry still gets a usable point-mass
// moment triple at the sample mean instead of an all-zero placeholder.
stats::SnMoments fit_lvf_moments(std::span<const double> samples) {
  std::size_t bad = 0;
  for (const double x : samples) bad += std::isfinite(x) ? 0 : 1;
  std::vector<double> finite;
  std::span<const double> clean = samples;
  if (bad > 0) {
    obs::counter("robust.samples.nonfinite_dropped").add(bad);
    finite.reserve(samples.size() - bad);
    for (const double x : samples) {
      if (std::isfinite(x)) finite.push_back(x);
    }
    clean = finite;
  }
  if (auto lvf = stats::SkewNormal::fit_moments(clean)) {
    return lvf->to_moments();
  }
  obs::counter("robust.characterize.lvf_degenerate").add(1);
  const stats::Moments m = stats::compute_moments(clean);
  return stats::SnMoments{m.count > 0 ? m.mean : 0.0, 0.0, 0.0};
}

// QoR attribution of one table entry for the run manifest: the
// delay samples are re-assessed against all four models, reusing the
// entry's own LVF2 delay fit (the three baseline fits are the price
// of attribution, and only paid when LVF2_MANIFEST armed a manifest). Returned instead of recorded
// directly so the result cache can store the row alongside the entry
// and replay it bitwise on a warm run.
obs::ArcQor manifest_entry_qor(const std::string& cell,
                               const std::string& arc, std::size_t load_idx,
                               std::size_t slew_idx,
                               std::span<const double> delay_samples,
                               const core::FitOptions& fit,
                               const core::Lvf2Model* lvf2,
                               const core::EmReport& report) {
  const core::ModelEvaluation eval =
      core::evaluate_models(delay_samples, fit, lvf2);
  obs::ArcQor row = core::to_arc_qor(eval);
  row.table = "characterize";
  row.cell = cell;
  row.arc = arc;
  row.metric = "delay";
  row.load_idx = static_cast<int>(load_idx);
  row.slew_idx = static_cast<int>(slew_idx);
  row.em_iterations = report.iterations;
  row.em_log_likelihood = report.log_likelihood;
  row.em_converged = report.converged;
  row.degradation = core::to_string(report.degradation);
  return row;
}

void record_manifest_config(const CharacterizeOptions& options) {
  obs::with_manifest([&](obs::ManifestRecorder& m) {
    m.set_config("characterize.grid_rows",
                 static_cast<std::uint64_t>(options.grid.rows()));
    m.set_config("characterize.grid_cols",
                 static_cast<std::uint64_t>(options.grid.cols()));
    m.set_config("characterize.mc_samples",
                 static_cast<std::uint64_t>(options.mc_samples));
    m.set_config("characterize.seed_base", options.seed_base);
    m.set_config("characterize.use_lhs", options.use_lhs);
    m.set_config("characterize.simd_tier",
                 simd::tier_name(simd::active_tier()));
  });
}

// One flattened (cell, arc, load, slew) work item. Flattening across
// every level keeps the pool busy even when a single arc (64 entries)
// or a single cell would not, and gives each entry its own
// independently-seeded task — the determinism mechanism.
struct EntryTask {
  const Cell* cell = nullptr;
  const TimingArc* arc = nullptr;
  ArcCharacterization* table = nullptr;
  std::size_t load_idx = 0;
  std::size_t slew_idx = 0;
  std::size_t entry_idx = 0;  ///< row-major slot in table->entries
};

// Pre-sizes a table so parallel entry tasks can slot-write results.
void init_table(ArcCharacterization& table, const Cell& cell,
                const TimingArc& arc, const SlewLoadGrid& grid) {
  table.cell_name = cell.name;
  table.arc_label = arc.label();
  table.grid = grid;
  table.entries.resize(grid.rows() * grid.cols());
}

void append_entry_tasks(std::vector<EntryTask>& tasks, const Cell& cell,
                        const TimingArc& arc, ArcCharacterization& table) {
  const std::size_t cols = table.grid.cols();
  for (std::size_t li = 0; li < table.grid.rows(); ++li) {
    for (std::size_t si = 0; si < cols; ++si) {
      tasks.push_back(
          EntryTask{&cell, &arc, &table, li, si, li * cols + si});
    }
  }
}

// Fans the flattened entries out across the pool. Results land in
// their row-major slots and every entry derives its own seeds, so
// the tables are byte-identical to a serial run at any thread count.
void run_entry_tasks(const Characterizer& characterizer,
                     const std::vector<EntryTask>& tasks) {
  exec::parallel_for(tasks.size(), 1, [&](std::size_t t) {
    const EntryTask& task = tasks[t];
    task.table->entries[task.entry_idx] = characterizer.characterize_entry(
        *task.cell, *task.arc, task.table->arc_label, task.load_idx,
        task.slew_idx);
  });
}

}  // namespace

SlewLoadGrid SlewLoadGrid::paper_grid() {
  SlewLoadGrid g;
  g.slews_ns = {0.0023, 0.0091, 0.0228, 0.0502,
                0.1005, 0.2145, 0.4535, 0.8715};
  g.loads_pf = {0.00015, 0.00722, 0.02136, 0.04965,
                0.10623, 0.21938, 0.44569, 0.89830};
  return g;
}

SlewLoadGrid SlewLoadGrid::reduced(std::size_t stride) {
  if (stride == 0) throw std::invalid_argument("reduced: stride must be > 0");
  const SlewLoadGrid full = paper_grid();
  SlewLoadGrid g;
  for (std::size_t i = 0; i < full.slews_ns.size(); i += stride) {
    g.slews_ns.push_back(full.slews_ns[i]);
  }
  for (std::size_t i = 0; i < full.loads_pf.size(); i += stride) {
    g.loads_pf.push_back(full.loads_pf[i]);
  }
  return g;
}

std::uint64_t Characterizer::condition_seed(const std::string& cell_name,
                                            const std::string& arc_label,
                                            std::size_t load_idx,
                                            std::size_t slew_idx) const {
  std::uint64_t seed =
      stats::combine_seed(options_.seed_base,
                          stats::hash_name(cell_name + "/" + arc_label));
  seed = stats::combine_seed(seed, load_idx * 131 + slew_idx);
  return seed;
}

spice::McResult Characterizer::golden_samples(const Cell& cell,
                                              const TimingArc& arc,
                                              std::size_t load_idx,
                                              std::size_t slew_idx) const {
  spice::ArcCondition cond{options_.grid.slews_ns.at(slew_idx),
                           options_.grid.loads_pf.at(load_idx)};
  spice::McConfig mc;
  mc.samples = options_.mc_samples;
  mc.use_lhs = options_.use_lhs;
  mc.seed = condition_seed(cell.name, arc.label(), load_idx, slew_idx);
  return spice::run_monte_carlo(arc.stage, cond, corner_, mc);
}

ConditionCharacterization Characterizer::characterize_entry(
    const Cell& cell, const TimingArc& arc, const std::string& arc_label,
    std::size_t load_idx, std::size_t slew_idx) const {
  obs::TraceSpan entry_span("characterize.entry", [&] {
    return obs::ArgsBuilder()
        .add("cell", cell.name)
        .add("arc", arc_label)
        .add("load_idx", load_idx)
        .add("slew_idx", slew_idx)
        .str();
  });
  static obs::Counter& entries_counter = obs::counter("characterize.entries");
  entries_counter.add(1);

  // Cache fast path: a usable hit skips the Monte Carlo and every fit.
  // Computation-fault injection makes entries impure (corruption is
  // call-index based), so the cache stands down while any samples/em/
  // liberty/ssta fault is armed; pure I/O faults (socket.*,
  // cache.read_io) leave results correct and keep the cache serving —
  // the lvf2d soak depends on a warm cache under exactly those.
  const bool cache_active =
      cache::enabled() && !robust::pipeline_faults_armed();
  std::uint64_t cache_key = 0;
  if (cache_active) {
    cache_key = entry_cache_key(corner_, options_, cell, arc, arc_label,
                                load_idx, slew_idx);
    bool decode_failed = false;
    if (auto doc = cache::ResultCache::instance().lookup(cache_key)) {
      if (auto decoded = decode_cached_entry(*doc)) {
        // Under a manifest, a hit must also replay the entry's QoR
        // row; a cached entry without one (populated manifest-off)
        // degrades to a miss so the row gets computed and stored.
        const bool need_qor = obs::manifest_enabled();
        if (!need_qor || decoded->qor.has_value()) {
          static obs::Counter& hits = obs::counter("cache.hit");
          hits.add(1);
          if (need_qor) {
            obs::ManifestRecorder::instance().add_arc(
                std::move(*decoded->qor));
          }
          return std::move(decoded->entry);
        }
      } else {
        decode_failed = true;
      }
    }
    static obs::Counter& misses = obs::counter("cache.miss");
    misses.add(1);
    if (decode_failed) {
      // Stored bytes parsed as JSON but not as an entry: evict and
      // recompute (the robust.* name keeps all degradations greppable).
      obs::counter("robust.downgrade.cache_decode").add(1);
      cache::ResultCache::instance().erase(cache_key);
    }
  }

  ConditionCharacterization cc;
  std::optional<obs::ArcQor> qor_row;
  cc.condition = spice::ArcCondition{options_.grid.slews_ns[slew_idx],
                                     options_.grid.loads_pf[load_idx]};
  try {
    const spice::StageTimes nominal =
        spice::nominal_stage_times(arc.stage, cc.condition, corner_);
    cc.nominal_delay_ns = nominal.delay_ns;
    cc.nominal_transition_ns = nominal.transition_ns;

    spice::McResult mc = golden_samples(cell, arc, load_idx, slew_idx);
    robust::corrupt_samples(mc.delay_ns);
    robust::corrupt_samples(mc.transition_ns);
    core::FitOptions fit = options_.fit;
    fit.seed = stats::combine_seed(fit.seed, load_idx * 17 + slew_idx);

    cc.lvf_delay = fit_lvf_moments(mc.delay_ns);
    cc.lvf_transition = fit_lvf_moments(mc.transition_ns);
    const std::optional<core::Lvf2Model> lvf2_delay =
        core::Lvf2Model::fit(mc.delay_ns, fit, &cc.lvf2_delay_report);
    if (lvf2_delay) cc.lvf2_delay = lvf2_delay->parameters();
    audit_fit_report(cc.lvf2_delay_report, cell.name, arc_label, load_idx,
                     slew_idx, "delay");
    if (auto m = core::Lvf2Model::fit(mc.transition_ns, fit,
                                      &cc.lvf2_transition_report)) {
      cc.lvf2_transition = m->parameters();
    }
    audit_fit_report(cc.lvf2_transition_report, cell.name, arc_label,
                     load_idx, slew_idx, "transition");
    if (obs::manifest_enabled()) {
      qor_row = manifest_entry_qor(
          cell.name, arc_label, load_idx, slew_idx, mc.delay_ns, fit,
          lvf2_delay ? &*lvf2_delay : nullptr, cc.lvf2_delay_report);
      obs::ManifestRecorder::instance().add_arc(*qor_row);
    }
  } catch (const core::CancelledError&) {
    // A deadline expiry is not an entry failure: the serving layer
    // owns the shed decision (degrade to a cheaper rung), so the
    // cancellation propagates instead of degrading in place here.
    throw;
  } catch (const std::exception& e) {
    // A failed entry degrades to its nominal values; the library
    // table stays complete and the Status records the cause.
    obs::counter("robust.characterize.entry_failed").add(1);
    obs::log_warn("characterize.entry_failed",
                  {{"cell", cell.name},
                   {"arc", arc_label},
                   {"load_idx", load_idx},
                   {"slew_idx", slew_idx},
                   {"error", e.what()}});
    cc.status = core::status_from_exception(e);
    obs::with_manifest([&](obs::ManifestRecorder& m) {
      obs::ArcQor row;
      row.table = "characterize";
      row.cell = cell.name;
      row.arc = arc_label;
      row.metric = "delay";
      row.load_idx = static_cast<int>(load_idx);
      row.slew_idx = static_cast<int>(slew_idx);
      row.status = cc.status.to_string();
      m.add_arc(std::move(row));
    });
  }
  // Only clean entries are stored; failed ones recompute every run so
  // a transient failure cannot become a persistent wrong answer.
  if (cache_active && cc.status.is_ok()) {
    cache::ResultCache::instance().store(
        cache_key,
        encode_cached_entry(corner_, options_, cell, arc_label,
                            load_idx, slew_idx, cc,
                            qor_row.has_value() ? &*qor_row : nullptr));
  }
  return cc;
}

ArcCharacterization Characterizer::characterize_arc(
    const Cell& cell, const TimingArc& arc) const {
  obs::TraceSpan arc_span("characterize.arc", [&] {
    return obs::ArgsBuilder()
        .add("cell", cell.name)
        .add("arc", arc.label())
        .str();
  });
  record_manifest_config(options_);

  ArcCharacterization out;
  init_table(out, cell, arc, options_.grid);
  std::vector<EntryTask> tasks;
  tasks.reserve(out.entries.size());
  append_entry_tasks(tasks, cell, arc, out);
  run_entry_tasks(*this, tasks);
  return out;
}

CellCharacterization Characterizer::characterize_cell(const Cell& cell) const {
  obs::TraceSpan span("characterize.cell", [&] {
    return obs::ArgsBuilder().add("cell", cell.name).str();
  });
  record_manifest_config(options_);

  CellCharacterization out;
  out.cell_name = cell.name;
  out.arcs.resize(cell.arcs.size());
  std::vector<EntryTask> tasks;
  tasks.reserve(cell.arcs.size() * options_.grid.rows() *
                options_.grid.cols());
  for (std::size_t a = 0; a < cell.arcs.size(); ++a) {
    init_table(out.arcs[a], cell, cell.arcs[a], options_.grid);
    append_entry_tasks(tasks, cell, cell.arcs[a], out.arcs[a]);
  }
  run_entry_tasks(*this, tasks);
  return out;
}

LibraryCharacterization Characterizer::characterize_library(
    const StandardCellLibrary& library) const {
  obs::TraceSpan span("characterize.library", [&] {
    return obs::ArgsBuilder().add("cells", library.size()).str();
  });
  record_manifest_config(options_);

  LibraryCharacterization out;
  out.cells.resize(library.size());
  std::vector<EntryTask> tasks;
  const auto& cells = library.cells();
  for (std::size_t c = 0; c < cells.size(); ++c) {
    out.cells[c].cell_name = cells[c].name;
    out.cells[c].arcs.resize(cells[c].arcs.size());
    for (std::size_t a = 0; a < cells[c].arcs.size(); ++a) {
      init_table(out.cells[c].arcs[a], cells[c], cells[c].arcs[a],
                 options_.grid);
      append_entry_tasks(tasks, cells[c], cells[c].arcs[a],
                         out.cells[c].arcs[a]);
    }
  }
  run_entry_tasks(*this, tasks);
  return out;
}

}  // namespace lvf2::cells
