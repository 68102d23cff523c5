// charlib-cold: the paper's production job. Cold Monte-Carlo + LVF^2
// characterization of INV_X1, NAND2_X1 and XOR2_X1 over the 4x4
// SlewLoadGrid::reduced(2) at 2000 samples on exec::thread_count()
// threads, then liberty::build_library -> write_file -> parse_file.
// The result cache is armed on a fresh empty directory for every pass,
// so every entry misses and is stored, and the pass ends with the
// cache flush.
//
// Untraced passes call Characterizer::characterize_entry for every
// entry, flattened across cells exactly as characterize_library does,
// and time each call. The traced pass replays each entry through the
// public calls characterize_entry makes (cache lookup, nominal timing,
// golden Monte Carlo, LVF moment fits, two Lvf2Model::fit, cache
// store) with a span around each, and must reproduce the untraced
// entries bit for bit.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "cells/characterize.h"
#include "cells/characterize_cache.h"
#include "core/lvf2_model.h"
#include "core/lvf_model.h"
#include "exec/pool.h"
#include "liberty/lvf_tables.h"
#include "liberty/parser.h"
#include "liberty/writer.h"
#include "obs/metrics.h"
#include "stats.h"
#include "stats/rng.h"
#include "stats/skew_normal.h"
#include "workloads.h"

namespace lvf2bench {

namespace {

namespace fs = std::filesystem;
using namespace lvf2;

constexpr std::size_t kMcSamples = 2000;
constexpr std::size_t kGridStride = 2;
/// Distinct input sets per run: pass k characterizes set k mod
/// kInputSets (its own seed_base derived from the run seed), so a run's
/// medians average over several data sets and every run covers each.
constexpr std::size_t kInputSets = 4;
/// Fixed-seed entries of the set-up warm-up, and the entries timed at
/// 1 thread and at thread_count() for exec.speedup.
constexpr std::size_t kWarmEntries = 16;

cells::CharacterizeOptions characterize_options(std::uint64_t seed_base) {
  cells::CharacterizeOptions options;
  options.grid = cells::SlewLoadGrid::reduced(kGridStride);
  options.mc_samples = kMcSamples;
  options.seed_base = seed_base;
  return options;
}

struct EntryRef {
  const cells::Cell* cell = nullptr;
  const cells::TimingArc* arc = nullptr;
  std::size_t cell_idx = 0;
  std::size_t arc_idx = 0;
  std::size_t load_idx = 0;
  std::size_t slew_idx = 0;
};

/// The cells and the flattened (cell, arc, load, slew) entry list.
struct Job {
  std::vector<cells::Cell> cells;
  std::vector<EntryRef> entries;
  cells::SlewLoadGrid grid;

  explicit Job(const cells::SlewLoadGrid& g) : grid(g) {
    cells.push_back(cells::build_cell(cells::CellFamily::kInv, 1, 1.0));
    cells.push_back(cells::build_cell(cells::CellFamily::kNand, 2, 1.0));
    cells.push_back(cells::build_cell(cells::CellFamily::kXor, 2, 1.0));
    for (std::size_t c = 0; c < cells.size(); ++c) {
      for (std::size_t a = 0; a < cells[c].arcs.size(); ++a) {
        for (std::size_t li = 0; li < grid.rows(); ++li) {
          for (std::size_t si = 0; si < grid.cols(); ++si) {
            entries.push_back(
                EntryRef{&cells[c], &cells[c].arcs[a], c, a, li, si});
          }
        }
      }
    }
  }
  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  /// Empty tables shaped like the job, for the entries to land in.
  cells::LibraryCharacterization empty_library() const {
    cells::LibraryCharacterization lib;
    for (const cells::Cell& cell : cells) {
      cells::CellCharacterization cc;
      cc.cell_name = cell.name;
      for (const cells::TimingArc& arc : cell.arcs) {
        cells::ArcCharacterization table;
        table.cell_name = cell.name;
        table.arc_label = arc.label();
        table.grid = grid;
        table.entries.resize(grid.rows() * grid.cols());
        cc.arcs.push_back(std::move(table));
      }
      lib.cells.push_back(std::move(cc));
    }
    return lib;
  }

  /// The entry's slot in a library shaped by empty_library().
  template <typename Library>
  auto& slot(Library& lib, const EntryRef& e) const {
    return lib.cells[e.cell_idx]
        .arcs[e.arc_idx]
        .entries[e.load_idx * grid.cols() + e.slew_idx];
  }
};

/// characterize_entry's LVF moment fit, for finite samples.
stats::SnMoments lvf_moments(std::span<const double> samples) {
  if (auto sn = stats::SkewNormal::fit_moments(samples)) {
    return sn->to_moments();
  }
  const stats::Moments m = stats::compute_moments(samples);
  return stats::SnMoments{m.count > 0 ? m.mean : 0.0, 0.0, 0.0};
}

/// One entry through the public calls characterize_entry makes, with a
/// span around each (the traced pass).
cells::ConditionCharacterization traced_entry(
    const cells::Characterizer& ch, const EntryRef& e, int parent,
    bool& unexpected_hit) {
  ScopedSpan entry_span("cells.entry", parent);
  const cells::CharacterizeOptions& opts = ch.options();
  const std::string label = e.arc->label();
  const std::uint64_t key = cells::entry_cache_key(
      ch.corner(), opts, *e.cell, *e.arc, label, e.load_idx, e.slew_idx);
  {
    ScopedSpan span("cache.lookup");
    if (cache::ResultCache::instance().lookup(key).has_value()) {
      unexpected_hit = true;
    }
  }
  cells::ConditionCharacterization cc;
  cc.condition = spice::ArcCondition{opts.grid.slews_ns[e.slew_idx],
                                     opts.grid.loads_pf[e.load_idx]};
  {
    ScopedSpan span("spice.nominal");
    const spice::StageTimes nominal =
        spice::nominal_stage_times(e.arc->stage, cc.condition, ch.corner());
    cc.nominal_delay_ns = nominal.delay_ns;
    cc.nominal_transition_ns = nominal.transition_ns;
  }
  spice::McResult mc;
  {
    ScopedSpan span("spice.mc");
    mc = ch.golden_samples(*e.cell, *e.arc, e.load_idx, e.slew_idx);
  }
  core::FitOptions fit = opts.fit;
  fit.seed = stats::combine_seed(fit.seed, e.load_idx * 17 + e.slew_idx);
  {
    ScopedSpan span("core.lvf_fit");
    cc.lvf_delay = lvf_moments(mc.delay_ns);
    cc.lvf_transition = lvf_moments(mc.transition_ns);
  }
  {
    ScopedSpan span("core.lvf2_fit");
    if (auto m = core::Lvf2Model::fit(mc.delay_ns, fit,
                                      &cc.lvf2_delay_report)) {
      cc.lvf2_delay = m->parameters();
    }
  }
  {
    ScopedSpan span("core.lvf2_fit");
    if (auto m = core::Lvf2Model::fit(mc.transition_ns, fit,
                                      &cc.lvf2_transition_report)) {
      cc.lvf2_transition = m->parameters();
    }
  }
  {
    ScopedSpan span("cache.store");
    cache::ResultCache::instance().store(
        key, cells::encode_cached_entry(ch.corner(), opts, *e.cell, label,
                                        e.load_idx, e.slew_idx, cc, nullptr));
  }
  return cc;
}

std::uintmax_t directory_bytes(const std::string& dir) {
  std::uintmax_t total = 0;
  std::error_code ec;
  for (const auto& f : fs::directory_iterator(dir, ec)) {
    if (f.is_regular_file(ec)) total += f.file_size(ec);
  }
  return total;
}

struct PassResult {
  double wall_s = 0.0;
  std::vector<double> entry_ms;
  cells::LibraryCharacterization lib;
  liberty::Group parsed;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_stores = 0;
  std::uint64_t em_fits = 0;
  std::uintmax_t cache_bytes = 0;
  std::uintmax_t liberty_bytes = 0;
  bool unexpected_hit = false;
};

/// One cold library job in `dir`: entries in parallel, Liberty round
/// trip, cache flush. `traced` selects the span-instrumented replay.
PassResult run_pass(const Job& job, const cells::Characterizer& ch,
                    const std::string& dir, bool traced) {
  fs::create_directories(dir);
  const std::string cache_dir = dir + "/cache";
  const std::string lib_path = dir + "/charlib.lib";
  cache::ResultCache& cache = cache::ResultCache::instance();
  cache.arm(cache_dir, cache::Mode::kReadWrite);
  obs::Counter& hits = obs::counter("cache.hit");
  obs::Counter& stores = obs::counter("cache.store");
  obs::Counter& fits = obs::counter("em.fits");
  const std::uint64_t hits0 = hits.value();
  const std::uint64_t stores0 = stores.value();
  const std::uint64_t fits0 = fits.value();

  PassResult out;
  out.lib = job.empty_library();
  out.entry_ms.resize(job.entries.size());
  std::vector<char> hit_flags(job.entries.size(), 0);
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan pass_span("bench.pass");
    {
      ScopedSpan exec_span("exec.parallel_for");
      const int parent = exec_span.id();
      exec::parallel_for(job.entries.size(), 1, [&](std::size_t t) {
        const EntryRef& e = job.entries[t];
        const Clock::time_point t0 = Clock::now();
        cells::ConditionCharacterization cc;
        if (traced) {
          bool hit = false;
          cc = traced_entry(ch, e, parent, hit);
          hit_flags[t] = hit ? 1 : 0;
        } else {
          cc = ch.characterize_entry(*e.cell, *e.arc, e.arc->label(),
                                     e.load_idx, e.slew_idx);
        }
        out.entry_ms[t] = seconds_since(t0) * 1e3;
        job.slot(out.lib, e) = std::move(cc);
      });
    }
    liberty::WriteOptions write_options;
    write_options.library_name = "lvf2bench_charlib";
    liberty::Group group;
    {
      ScopedSpan span("liberty.build");
      group = liberty::build_library(out.lib, write_options);
    }
    {
      ScopedSpan span("liberty.write");
      liberty::write_file(group, lib_path);
    }
    {
      ScopedSpan span("liberty.parse");
      out.parsed = liberty::parse_file(lib_path);
    }
    {
      ScopedSpan span("cache.flush");
      cache.flush();
    }
  }
  out.wall_s = seconds_since(start);
  out.cache_hits = hits.value() - hits0;
  out.cache_stores = stores.value() - stores0;
  out.em_fits = fits.value() - fits0;
  out.cache_bytes = directory_bytes(cache_dir);
  std::error_code ec;
  out.liberty_bytes = fs::file_size(lib_path, ec);
  for (const char h : hit_flags) out.unexpected_hit |= h != 0;
  cache.disarm();
  fs::remove_all(dir, ec);
  return out;
}

/// Output checks of one pass: clean entries, a cold cache that stored
/// every entry, and a Liberty read-back that returns each entry's
/// lambda.
void check_pass(const Job& job, const PassResult& pass, RunResult& result) {
  std::uint64_t bad = 0;
  std::uint64_t lambda_mismatch = 0;
  for (const EntryRef& e : job.entries) {
    const cells::ConditionCharacterization& cc = job.slot(pass.lib, e);
    if (!cc.status.is_ok()) ++bad;
    const liberty::Group* cell =
        pass.parsed.find_child("cell", e.cell->name);
    const liberty::Group* pin =
        cell ? cell->find_child("pin", e.arc->output_pin) : nullptr;
    const liberty::Group* timing =
        pin ? liberty::find_timing(*pin, e.arc->input_pin) : nullptr;
    const auto tables =
        timing ? liberty::extract_tables(
                     *timing, e.arc->rise_output ? "cell_rise" : "cell_fall")
               : std::nullopt;
    const double want = cc.lvf2_delay.lambda;
    const bool match =
        tables.has_value() && tables->has_lvf2() &&
        std::fabs(tables->parameters_at(e.slew_idx, e.load_idx).lambda -
                  want) <= 1e-6 * std::max(1.0, std::fabs(want));
    if (!match) ++lambda_mismatch;
  }
  const std::uint64_t n = job.entries.size();
  result.attempted += n;
  result.failed += bad;
  result.check(bad == 0, std::to_string(bad) + " entries without ok status");
  result.check(pass.cache_hits == 0 && !pass.unexpected_hit,
               "cold pass hit the result cache");
  result.check(pass.cache_stores == n,
               "cache stored " + std::to_string(pass.cache_stores) + " of " +
                   std::to_string(n) + " entries");
  result.check(lambda_mismatch == 0,
               std::to_string(lambda_mismatch) +
                   " Liberty read-back lambdas differ from the entries");
}

/// Per entry, the LVF^2-over-LVF binning-error reduction against the
/// entry's golden Monte-Carlo delays.
std::vector<double> entry_reductions(
    const Job& job, const cells::Characterizer& ch,
    const cells::LibraryCharacterization& lib) {
  std::vector<double> reductions(job.entries.size());
  exec::parallel_for(job.entries.size(), 1, [&](std::size_t t) {
    const EntryRef& e = job.entries[t];
    const cells::ConditionCharacterization& cc = job.slot(lib, e);
    const spice::McResult mc =
        ch.golden_samples(*e.cell, *e.arc, e.load_idx, e.slew_idx);
    reductions[t] = binning_reduction(
        mc.delay_ns, core::Lvf2Model::from_parameters(cc.lvf2_delay),
        core::LvfModel::from_moments(cc.lvf_delay));
  });
  return reductions;
}

bool same_entry(const cells::ConditionCharacterization& a,
                const cells::ConditionCharacterization& b) {
  const auto same_sn = [](const stats::SnMoments& x,
                          const stats::SnMoments& y) {
    return x.mean == y.mean && x.stddev == y.stddev &&
           x.skewness == y.skewness;
  };
  const auto same_lvf2 = [&](const core::Lvf2Parameters& x,
                             const core::Lvf2Parameters& y) {
    return x.lambda == y.lambda && same_sn(x.theta1, y.theta1) &&
           same_sn(x.theta2, y.theta2);
  };
  return a.nominal_delay_ns == b.nominal_delay_ns &&
         a.nominal_transition_ns == b.nominal_transition_ns &&
         same_sn(a.lvf_delay, b.lvf_delay) &&
         same_sn(a.lvf_transition, b.lvf_transition) &&
         same_lvf2(a.lvf2_delay, b.lvf2_delay) &&
         same_lvf2(a.lvf2_transition, b.lvf2_transition) &&
         a.lvf2_delay_report.iterations == b.lvf2_delay_report.iterations &&
         a.lvf2_transition_report.iterations ==
             b.lvf2_transition_report.iterations;
}

/// The first kWarmEntries entries of the job, in parallel, cache
/// disarmed.
void warm_entries(const Job& job, const cells::Characterizer& ch) {
  const std::size_t n = std::min(kWarmEntries, job.entries.size());
  exec::parallel_for(n, 1, [&](std::size_t t) {
    const EntryRef& e = job.entries[t];
    ch.characterize_entry(*e.cell, *e.arc, e.arc->label(), e.load_idx,
                          e.slew_idx);
  });
}

/// Set-up: build the job and warm the pool and allocator with a fixed,
/// seed-independent batch of entries.
double setup_once(std::optional<Job>& job, const cells::SlewLoadGrid& grid) {
  return time_s([&] {
    job.emplace(grid);
    warm_entries(*job,
                 cells::Characterizer(spice::ProcessCorner::tt_global_local_mc(),
                                      characterize_options(0x5E7u)));
  });
}

/// exec.speedup: the warm-up entries at 1 thread over the same entries
/// at thread_count().
double exec_speedup(const Job& job, const cells::Characterizer& ch) {
  const auto run = [&] { warm_entries(job, ch); };
  const double parallel_s = time_s(run);
  exec::set_thread_count(1);
  const double serial_s = time_s(run);
  exec::set_thread_count(0);
  return serial_s / parallel_s;
}

}  // namespace

RunResult run_charlib_cold(const WorkloadOptions& options) {
  RunResult result;
  const std::uint64_t seed = stats::combine_seed(0xC0FFEE, options.seed);
  std::vector<cells::Characterizer> sets;
  for (std::size_t k = 0; k < kInputSets; ++k) {
    sets.emplace_back(spice::ProcessCorner::tt_global_local_mc(),
                      characterize_options(stats::combine_seed(seed, k)));
  }
  const cells::Characterizer& ch = sets.front();
  std::optional<Job> job;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setups.push_back(setup_once(job, ch.options().grid));
  }
  const std::size_t n = job->entries.size();
  result.note("entries_per_pass", static_cast<double>(n));
  result.note("threads", static_cast<double>(exec::thread_count()));

  if (!options.trace) {
    result.set("setup_s", median(setups));
    std::vector<double> walls;
    std::vector<double> entry_ms;
    std::vector<double> reductions;
    const Clock::time_point start = Clock::now();
    for (std::size_t k = 0;
         k < kInputSets || seconds_since(start) < options.seconds; ++k) {
      const cells::Characterizer& set = sets[k % kInputSets];
      PassResult pass = run_pass(
          *job, set, options.run_dir + "/pass" + std::to_string(k), false);
      check_pass(*job, pass, result);
      if (k < kInputSets) {
        const std::vector<double> r = entry_reductions(*job, set, pass.lib);
        reductions.insert(reductions.end(), r.begin(), r.end());
      }
      walls.push_back(pass.wall_s);
      entry_ms.insert(entry_ms.end(), pass.entry_ms.begin(),
                      pass.entry_ms.end());
    }
    double total_s = 0.0;
    for (const double w : walls) total_s += w;
    const LatencySummary lat = summarize(entry_ms);
    result.set("wall_s", median(walls));
    result.set("items_per_s", static_cast<double>(n * walls.size()) / total_s);
    result.set("p50_ms", lat.p50);
    result.note("p99_ms", lat.tail);
    result.set("qor_bin_x", geometric_mean(reductions));
    result.note("passes", static_cast<double>(walls.size()));
    result.note("input_sets", static_cast<double>(kInputSets));
    result.note("latency_samples", static_cast<double>(lat.count));
    result.note("p99_ms_percentile", lat.tail_q * 100.0);
    return result;
  }

  // Traced run: one untraced pass as the baseline, the span-traced
  // replay of the same job, then the thread-scaling probe.
  PassResult plain =
      run_pass(*job, ch, options.run_dir + "/plain", false);
  check_pass(*job, plain, result);
  SpanRecorder::instance().enable(true);
  PassResult traced =
      run_pass(*job, ch, options.run_dir + "/traced", true);
  SpanRecorder::instance().enable(false);
  check_pass(*job, traced, result);
  std::uint64_t differ = 0;
  std::uint64_t iterations = 0;
  std::uint64_t degraded = 0;
  for (const EntryRef& e : job->entries) {
    const cells::ConditionCharacterization& a = job->slot(plain.lib, e);
    const cells::ConditionCharacterization& b = job->slot(traced.lib, e);
    if (!same_entry(a, b)) ++differ;
    for (const core::EmReport* r :
         {&b.lvf2_delay_report, &b.lvf2_transition_report}) {
      iterations += r->iterations;
      if (r->degradation != core::FitDegradation::kNone) ++degraded;
    }
  }
  result.check(differ == 0, std::to_string(differ) +
                                " traced entries differ from characterize_entry");

  const std::map<std::string, SpanRollup> spans =
      rollup(SpanRecorder::instance().snapshot());
  const auto it_entry = spans.find("cells.entry");
  const std::vector<double> entry_ms =
      it_entry == spans.end() ? std::vector<double>{}
                              : it_entry->second.durations_ms;
  const LatencySummary entry = summarize(entry_ms);
  const double entry_total = total_ms(spans, "cells.entry");
  const double exec_ms = total_ms(spans, "exec.parallel_for");
  const double fit_ms = total_ms(spans, "core.lvf2_fit");
  result.set("unattributed_ms", unattributed_ms());
  result.set("trace_overhead_frac",
             (traced.wall_s - plain.wall_s) / plain.wall_s);
  result.set("core.em_fits", static_cast<double>(traced.em_fits));
  result.set("core.em_iterations", static_cast<double>(iterations));
  result.set("core.em_degraded", static_cast<double>(degraded));
  result.set("core.lvf2_fit_ms", fit_ms);
  result.set("core.lvf2_fit_share",
             entry_total > 0.0 ? fit_ms / entry_total : 0.0);
  result.set("cells.entry_p50_ms", entry.p50);
  result.set("cells.entry_p99_ms", entry.tail);
  result.set("spice.mc_ms", total_ms(spans, "spice.mc"));
  result.set("exec.busy_frac",
             exec_ms > 0.0 ? entry_total / (exec_ms * static_cast<double>(
                                                          exec::thread_count()))
                           : 0.0);
  result.set("cache.flush_ms", total_ms(spans, "cache.flush"));
  result.set("cache.bytes_written", static_cast<double>(traced.cache_bytes));
  result.set("liberty.write_ms", total_ms(spans, "liberty.write"));
  result.set("liberty.parse_ms", total_ms(spans, "liberty.parse"));
  result.set("liberty.bytes", static_cast<double>(traced.liberty_bytes));
  result.set("exec.speedup", exec_speedup(*job, ch));
  result.note("untraced_pass_s", plain.wall_s);
  result.note("traced_pass_s", traced.wall_s);
  result.note("entry_samples", static_cast<double>(entry.count));
  result.note("entry_p99_percentile", entry.tail_q * 100.0);
  return result;
}

}  // namespace lvf2bench
