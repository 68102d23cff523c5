// serve-warm: an in-process serve::Server on a Unix socket, answering
// a seeded request mix from a warm result cache. Zero EM runs while it
// is timed; its time goes to the wire protocol, the hot LRU, the cache
// read + JSON decode path, grid convolution and importance sampling.
//
// Set-up populates the result cache for a 128-entry working set (8
// paper-library cells x the 4x4 reduced grid at 2000 Monte-Carlo
// samples; seed-independent), then starts the server with a
// quarter-size LRU and connects the clients. Two closed-loop client
// connections then send the mix from request_mix.h for --seconds.
//
// The traced run splits the time in half between an untraced and a
// span-traced socket phase (the overhead), then replays the first
// kReplayRequests requests of client 0's stream in-process: a span
// around serve::handle_request on Server::context(), plus the layer
// calls behind each op timed from outside (cache lookup + decode,
// propagate_chain at the op's grid sizes, the importance sampler).

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.h"
#include "cells/characterize.h"
#include "cells/characterize_cache.h"
#include "core/lvf2_model.h"
#include "core/lvf_model.h"
#include "exec/pool.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "request_mix.h"
#include "serve/handlers.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "ssta/block_ssta.h"
#include "stats.h"
#include "stats/grid_pdf.h"
#include "stats/rng.h"
#include "workloads.h"
#include "yield/importance.h"

namespace lvf2bench {

namespace {

namespace fs = std::filesystem;
using namespace lvf2;

constexpr std::size_t kServeSamples = 2000;
constexpr std::size_t kGridStride = 2;
constexpr std::size_t kClients = 2;
/// Paper-library (X1) cells of the working set, arc 0 of each.
constexpr std::size_t kWorkingCells[] = {0, 2, 5, 8, 11, 14, 20, 23};
constexpr std::size_t kYieldMaxSamples = 16384;
/// Answered requests per wall_s block.
constexpr std::size_t kBlock = 200;
/// Every n-th request of each client is re-answered in-process.
constexpr std::size_t kCheckEvery = 50;
constexpr std::size_t kReplayRequests = 1500;

struct Key {
  std::string cell;
  std::size_t load_idx = 0;
  std::size_t slew_idx = 0;
};

serve::ServerOptions server_options(const std::string& socket_path,
                                    std::size_t working_set) {
  serve::ServerOptions options;
  options.listen = "unix:" + socket_path;
  options.lru_capacity = working_set / 4;
  options.library.drives = {1.0};
  options.characterize.grid = cells::SlewLoadGrid::reduced(kGridStride);
  options.characterize.mc_samples = kServeSamples;
  return options;
}

std::vector<Key> working_set(const cells::StandardCellLibrary& library,
                             const cells::SlewLoadGrid& grid) {
  std::vector<Key> keys;
  for (const std::size_t c : kWorkingCells) {
    for (std::size_t li = 0; li < grid.rows(); ++li) {
      for (std::size_t si = 0; si < grid.cols(); ++si) {
        keys.push_back(Key{library.cells().at(c).name, li, si});
      }
    }
  }
  return keys;
}

std::string request_body(std::uint64_t id, const MixRequest& r,
                          const Key& key) {
  std::string out = "{\"id\":" + std::to_string(id) + ",\"op\":\"" +
                    op_name(r.op) + "\",\"params\":{\"cell\":\"" + key.cell +
                    "\",\"arc\":0,\"load_idx\":" +
                    std::to_string(key.load_idx) +
                    ",\"slew_idx\":" + std::to_string(key.slew_idx);
  if (r.op == OpKind::kPathSsta) {
    out += ",\"depth\":" + std::to_string(r.depth);
  } else if (r.op == OpKind::kYieldHs) {
    out += ",\"sigma\":" + std::to_string(r.sigma) +
           ",\"max_samples\":" + std::to_string(kYieldMaxSamples);
  }
  return out + "}}";
}

/// One closed-loop client connection.
class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd_ < 0 || path.size() >= sizeof(addr.sun_path)) return;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool call(const std::string& body, std::string& reply) {
    return fd_ >= 0 && serve::write_frame(fd_, body).is_ok() &&
           serve::read_frame(fd_, reply).is_ok();
  }

 private:
  int fd_ = -1;
};

struct Answer {
  OpKind op = OpKind::kArcDist;
  double rtt_ms = 0.0;
  double server_ms = 0.0;
  double done_s = 0.0;  ///< completion time since the phase start
  bool ok = false;      ///< status ok
  bool full = false;    ///< degradation none
};

struct Sample {
  std::string request;
  std::string reply;
};

struct Phase {
  double seconds = 0.0;
  std::vector<Answer> answers;
  std::vector<Sample> samples;
  std::uint64_t em_fits = 0;
  std::uint64_t lru_hits = 0;
  std::uint64_t lru_misses = 0;
};

/// The serving stack of one set-up: cache armed read-only on the
/// populated directory, server started, clients connected.
struct Stack {
  std::unique_ptr<serve::Server> server;
  std::vector<std::unique_ptr<Client>> clients;

  ~Stack() {
    clients.clear();
    if (server) {
      server->request_stop();
      server->wait();
      server.reset();
    }
    cache::ResultCache::instance().disarm();
  }
};

/// Runs the clients closed-loop for `seconds`; client c continues
/// its stream from mixes[c].
Phase run_phase(Stack& stack, std::vector<RequestMix>& mixes,
                const std::vector<Key>& keys, double seconds,
                std::uint64_t& next_id) {
  Phase phase;
  obs::Counter& fits = obs::counter("em.fits");
  obs::Counter& lru_hit = obs::counter("serve.lru.hit");
  obs::Counter& lru_miss = obs::counter("serve.lru.miss");
  const std::uint64_t fits0 = fits.value();
  const std::uint64_t hit0 = lru_hit.value();
  const std::uint64_t miss0 = lru_miss.value();
  std::vector<std::vector<Answer>> answers(kClients);
  std::vector<std::vector<Sample>> samples(kClients);
  const std::uint64_t id_base = next_id;
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client& client = *stack.clients[c];
      std::string reply;
      for (std::uint64_t i = 0; seconds_since(start) < seconds; ++i) {
        const MixRequest r = mixes[c].next();
        const std::string body = request_body(
            id_base + i * kClients + c, r, keys[r.key]);
        Answer a;
        a.op = r.op;
        const Clock::time_point t0 = Clock::now();
        bool sent = false;
        {
          ScopedSpan span(std::string("serve.request.") + op_group(r.op));
          sent = client.call(body, reply);
        }
        a.rtt_ms = seconds_since(t0) * 1e3;
        a.done_s = seconds_since(start);
        if (sent) {
          if (const auto doc = obs::json_parse(reply)) {
            a.ok = doc->string_or("status", "") == "ok";
            a.full = doc->string_or("degradation", "") == "none";
            a.server_ms = doc->number_or("elapsed_ms", 0.0);
          }
        }
        answers[c].push_back(a);
        if (!sent) break;
        if (i % kCheckEvery == 0) samples[c].push_back(Sample{body, reply});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  phase.seconds = seconds_since(start);
  next_id += 1u << 24;
  for (std::size_t c = 0; c < kClients; ++c) {
    phase.answers.insert(phase.answers.end(), answers[c].begin(),
                         answers[c].end());
    phase.samples.insert(phase.samples.end(), samples[c].begin(),
                         samples[c].end());
  }
  phase.em_fits = fits.value() - fits0;
  phase.lru_hits = lru_hit.value() - hit0;
  phase.lru_misses = lru_miss.value() - miss0;
  return phase;
}

/// Populates the cache for the working set (the expensive, EM-bound
/// part of set-up); returns its wall time.
double populate(const std::string& cache_dir, const serve::ServerOptions& so,
                const std::vector<Key>& keys) {
  return time_s([&] {
    cache::ResultCache& cache = cache::ResultCache::instance();
    cache.arm(cache_dir, cache::Mode::kReadWrite);
    const cells::StandardCellLibrary library =
        cells::build_paper_library(so.library);
    const cells::Characterizer ch(so.corner, so.characterize);
    exec::parallel_for(keys.size(), 1, [&](std::size_t i) {
      const cells::Cell& cell = *library.find(keys[i].cell);
      ch.characterize_entry(cell, cell.arcs.front(), cell.arcs.front().label(),
                            keys[i].load_idx, keys[i].slew_idx);
    });
    cache.disarm();  // flushes the shards to disk
  });
}

/// Brings the serving stack up from the populated cache directory.
double start_stack(Stack& stack, const std::string& cache_dir,
                   const serve::ServerOptions& so,
                   const std::string& socket_path, bool& ok) {
  return time_s([&] {
    cache::ResultCache::instance().arm(cache_dir, cache::Mode::kReadOnly);
    stack.server = std::make_unique<serve::Server>(so);
    ok = stack.server->start().is_ok();
    std::string reply;
    for (std::size_t c = 0; ok && c < kClients; ++c) {
      stack.clients.push_back(std::make_unique<Client>(socket_path));
      ok = stack.clients.back()->call("{\"id\":0,\"op\":\"ping\"}", reply);
    }
  });
}

/// The "result" member of a response body, re-serialized at full
/// precision, with the status and degradation in front.
std::string comparable(const std::string& response) {
  const auto doc = obs::json_parse(response);
  if (!doc) return "unparseable";
  const obs::JsonValue* result = doc->find("result");
  return doc->string_or("status", "") + "|" +
         doc->string_or("degradation", "") + "|" +
         (result ? obs::json_write(*result, obs::JsonWriteOptions{17}) : "");
}

/// In-process answer to `body` on the server's handler context,
/// rendered like the socket response.
std::string answer_in_process(serve::HandlerContext& ctx,
                              const std::string& body) {
  serve::Request request;
  if (!serve::parse_request(body, request).is_ok()) return "bad request";
  const serve::HandlerResult r =
      serve::handle_request(ctx, request, serve::ExecMode::kFull);
  return serve::render_response(request.id, r.status, r.degradation, 0.0,
                                r.status.is_ok() ? &r.result : nullptr);
}

core::Lvf2Parameters lvf2_from_json(const obs::JsonValue& v) {
  const auto moments = [](const obs::JsonValue* m) {
    stats::SnMoments out;
    if (m != nullptr) {
      out.mean = m->number_or("mean", 0.0);
      out.stddev = m->number_or("stddev", 0.0);
      out.skewness = m->number_or("skewness", 0.0);
    }
    return out;
  };
  core::Lvf2Parameters p;
  p.lambda = v.number_or("lambda", 0.0);
  p.theta1 = moments(v.find("theta1"));
  p.theta2 = moments(v.find("theta2"));
  return p;
}

/// Geometric mean over the working set of the served LVF^2 tables'
/// binning-error reduction over the served LVF moments, against each
/// entry's golden Monte Carlo.
double served_qor(serve::HandlerContext& ctx, const std::vector<Key>& keys,
                  bool& all_ok) {
  const cells::Characterizer ch(ctx.corner, ctx.characterize);
  std::vector<double> reductions;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    MixRequest r;
    r.op = OpKind::kArcDist;
    const auto doc = obs::json_parse(
        answer_in_process(ctx, request_body(i, r, keys[i])));
    const obs::JsonValue* result = doc ? doc->find("result") : nullptr;
    const obs::JsonValue* lvf2 = result ? result->find("lvf2_delay") : nullptr;
    const obs::JsonValue* lvf = result ? result->find("delay") : nullptr;
    if (lvf2 == nullptr || lvf == nullptr) {
      all_ok = false;
      continue;
    }
    const cells::Cell& cell = *ctx.library.find(keys[i].cell);
    const spice::McResult mc = ch.golden_samples(
        cell, cell.arcs.front(), keys[i].load_idx, keys[i].slew_idx);
    const core::Lvf2Parameters lp = lvf2_from_json(*lvf2);
    const stats::SnMoments lm{lvf->number_or("mean", 0.0),
                              lvf->number_or("stddev", 0.0),
                              lvf->number_or("skewness", 0.0)};
    reductions.push_back(binning_reduction(
        mc.delay_ns, core::Lvf2Model::from_parameters(lp),
        core::LvfModel::from_moments(lm)));
  }
  return geometric_mean(reductions);
}

/// Output checks of a socket phase: every answer ok and undegraded, no
/// EM fit, sampled responses equal to in-process answers.
void check_phase(const Phase& phase, serve::HandlerContext& ctx,
                 RunResult& result) {
  std::uint64_t failed = 0;
  for (const Answer& a : phase.answers) failed += (a.ok && a.full) ? 0 : 1;
  std::uint64_t differ = 0;
  for (const Sample& s : phase.samples) {
    if (comparable(s.reply) != comparable(answer_in_process(ctx, s.request))) {
      ++differ;
    }
  }
  result.attempted += phase.answers.size();
  result.failed += failed;
  result.check(!phase.answers.empty(), "no request answered");
  result.check(failed == 0, std::to_string(failed) +
                                " answers not ok or degraded");
  result.check(phase.em_fits == 0, std::to_string(phase.em_fits) +
                                       " EM fits while serving");
  result.check(differ == 0,
               std::to_string(differ) + " of " +
                   std::to_string(phase.samples.size()) +
                   " sampled socket responses differ from handle_request");
}

struct ReplayStats {
  std::vector<double> lookup_us;
  std::vector<double> chain_ms;
  std::vector<double> is_ms;
  std::vector<double> is_samples;
  std::vector<double> ess_frac;
  std::uint64_t mismatches = 0;
};

/// In-process replay with spans: handle_request per request, then the
/// layer calls behind it, timed from outside.
ReplayStats replay(serve::HandlerContext& ctx, std::uint64_t seed,
                   std::size_t working_set_size,
                   const std::vector<Key>& keys) {
  ReplayStats out;
  RequestMix mix(seed, 0, working_set_size);
  const cells::Characterizer ch(ctx.corner, ctx.characterize);
  ScopedSpan pass_span("bench.pass");
  for (std::size_t i = 0; i < kReplayRequests; ++i) {
    const MixRequest r = mix.next();
    const Key& key = keys[r.key];
    serve::Request request;
    if (!serve::parse_request(request_body(i, r, key), request).is_ok()) {
      ++out.mismatches;
      continue;
    }
    serve::HandlerResult answer;
    {
      ScopedSpan span(std::string("serve.handle.") + op_group(r.op));
      answer = serve::handle_request(ctx, request, serve::ExecMode::kFull);
    }
    const cells::Cell& cell = *ctx.library.find(key.cell);
    const cells::TimingArc& arc = cell.arcs.front();
    const std::uint64_t cache_key =
        cells::entry_cache_key(ctx.corner, ctx.characterize, cell, arc,
                               arc.label(), key.load_idx, key.slew_idx);
    std::optional<cells::DecodedCacheEntry> entry;
    {
      ScopedSpan span("cache.lookup");
      const Clock::time_point t0 = Clock::now();
      if (auto doc = cache::ResultCache::instance().lookup(cache_key)) {
        entry = cells::decode_cached_entry(*doc);
      }
      out.lookup_us.push_back(seconds_since(t0) * 1e6);
    }
    if (!entry) {
      ++out.mismatches;
      continue;
    }
    const core::Lvf2Model model =
        core::Lvf2Model::from_parameters(entry->entry.lvf2_delay);
    const double mu = model.mean();
    const double sd = model.stddev();
    if (r.op == OpKind::kPathSsta) {
      ScopedSpan span("ssta.chain");
      const Clock::time_point t0 = Clock::now();
      const stats::GridPdf stage = stats::GridPdf::from_function(
          [&](double x) { return model.pdf(x); }, mu - 8.0 * sd,
          mu + 8.0 * sd, 512);
      const std::vector<stats::GridPdf> stages(
          static_cast<std::size_t>(r.depth), stage);
      ssta::SstaOptions options;
      options.grid_points = 1024;
      options.max_conv_points = 2048;
      const std::vector<stats::GridPdf> cumulative =
          ssta::propagate_chain(stages, {}, options);
      out.chain_ms.push_back(seconds_since(t0) * 1e3);
      const double served =
          answer.result.number_or("arrival_mean_ns", -1.0);
      if (served != cumulative.back().mean()) ++out.mismatches;
    } else if (r.op == OpKind::kYieldHs) {
      ScopedSpan span("yield.is");
      const Clock::time_point t0 = Clock::now();
      yield::IsConfig cfg;
      cfg.batch_samples = 8192;
      cfg.max_samples = kYieldMaxSamples;
      cfg.target_rel_err = 0.10;
      cfg.shards = 8;
      cfg.seed = stats::combine_seed(
          ch.condition_seed(cell.name, arc.label(), key.load_idx,
                            key.slew_idx),
          static_cast<std::uint64_t>(r.sigma * 100.0 + 0.5));
      const spice::ArcCondition condition{
          ctx.characterize.grid.slews_ns[key.slew_idx],
          ctx.characterize.grid.loads_pf[key.load_idx]};
      const yield::ImportanceSampler sampler(arc.stage, condition, ctx.corner,
                                             cfg);
      const yield::IsEstimate est = sampler.estimate(mu + r.sigma * sd);
      out.is_ms.push_back(seconds_since(t0) * 1e3);
      out.is_samples.push_back(static_cast<double>(est.samples));
      out.ess_frac.push_back(
          est.samples > 0 ? est.ess / static_cast<double>(est.samples) : 0.0);
      if (answer.result.number_or("p_fail", -1.0) != est.p_fail) {
        ++out.mismatches;
      }
    }
  }
  return out;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

}  // namespace

RunResult run_serve_warm(const WorkloadOptions& options) {
  RunResult result;
  const std::string socket_path = options.run_dir + "/serve.sock";
  const std::string cache_dir = options.run_dir + "/serve-cache";
  fs::create_directories(options.run_dir);
  serve::ServerOptions so = server_options(socket_path, 0);
  const cells::StandardCellLibrary library =
      cells::build_paper_library(so.library);
  const std::vector<Key> keys = working_set(library, so.characterize.grid);
  so.lru_capacity = keys.size() / 4;

  const double populate_s = populate(cache_dir, so, keys);
  std::vector<double> stack_setups;
  std::unique_ptr<Stack> stack;
  bool up = false;
  for (int i = 0; i < kSetupRepeats; ++i) {
    stack = std::make_unique<Stack>();  // tears the previous one down first
    stack_setups.push_back(
        start_stack(*stack, cache_dir, so, socket_path, up));
  }
  result.check(up, "server did not start or a client could not connect");
  if (!up) return result;
  serve::HandlerContext& ctx = stack->server->context();
  result.note("working_set", static_cast<double>(keys.size()));
  result.note("lru_capacity", static_cast<double>(so.lru_capacity));
  result.note("populate_s", populate_s);
  result.note("server_setup_s", median(stack_setups));

  std::vector<RequestMix> mixes;
  for (std::size_t c = 0; c < kClients; ++c) {
    mixes.emplace_back(options.seed, c, keys.size());
  }
  std::uint64_t next_id = 1;

  if (!options.trace) {
    result.set("setup_s", populate_s + median(stack_setups));
    Phase phase =
        run_phase(*stack, mixes, keys, options.seconds, next_id);
    check_phase(phase, ctx, result);
    std::vector<double> rtt;
    std::vector<double> done;
    for (const Answer& a : phase.answers) {
      rtt.push_back(a.rtt_ms);
      done.push_back(a.done_s);
    }
    std::sort(done.begin(), done.end());
    std::vector<double> blocks;
    double prev = 0.0;
    for (std::size_t end = kBlock; end <= done.size(); end += kBlock) {
      blocks.push_back(done[end - 1] - prev);
      prev = done[end - 1];
    }
    const LatencySummary lat = summarize(rtt);
    bool qor_ok = true;
    result.set("wall_s", blocks.empty() ? phase.seconds : median(blocks));
    result.set("items_per_s",
               static_cast<double>(phase.answers.size()) / phase.seconds);
    result.set("p50_ms", lat.p50);
    result.note("p99_ms", lat.tail);
    result.set("qor_bin_x", served_qor(ctx, keys, qor_ok));
    result.check(qor_ok, "arc_dist answers lack the LVF/LVF^2 tables");
    result.note("requests", static_cast<double>(lat.count));
    result.note("p99_ms_percentile", lat.tail_q * 100.0);
    result.note("wall_s_block_requests", static_cast<double>(kBlock));
    return result;
  }

  // Traced run.
  Phase plain =
      run_phase(*stack, mixes, keys, options.seconds / 2, next_id);
  check_phase(plain, ctx, result);
  SpanRecorder::instance().enable(true);
  Phase traced =
      run_phase(*stack, mixes, keys, options.seconds / 2, next_id);
  check_phase(traced, ctx, result);
  obs::Counter& fits = obs::counter("em.fits");
  const std::uint64_t fits0 = fits.value();
  const ReplayStats rs = replay(ctx, options.seed, keys.size(), keys);
  SpanRecorder::instance().enable(false);
  const std::uint64_t replay_fits = fits.value() - fits0;
  result.check(rs.mismatches == 0,
               std::to_string(rs.mismatches) +
                   " replayed layer results differ from handle_request");
  result.check(replay_fits == 0, "EM fits during the in-process replay");

  std::vector<double> wire;
  std::vector<double> rtt;
  std::uint64_t degraded = 0;
  for (const Answer& a : traced.answers) {
    wire.push_back(a.rtt_ms - a.server_ms);
  }
  for (const Answer& a : plain.answers) rtt.push_back(a.rtt_ms);
  for (const Phase* p : {&plain, &traced}) {
    for (const Answer& a : p->answers) degraded += a.full ? 0 : 1;
  }
  const LatencySummary rtt_tail = summarize(rtt);
  const double rps_plain =
      static_cast<double>(plain.answers.size()) / plain.seconds;
  const double rps_traced =
      static_cast<double>(traced.answers.size()) / traced.seconds;
  const std::uint64_t lru_hits = plain.lru_hits + traced.lru_hits;
  const std::uint64_t lru_total =
      lru_hits + plain.lru_misses + traced.lru_misses;
  const std::map<std::string, SpanRollup> spans =
      rollup(SpanRecorder::instance().snapshot());
  const auto handle = [&](const char* group) {
    const auto it = spans.find(std::string("serve.handle.") + group);
    return summarize(it == spans.end() ? std::vector<double>{}
                                       : it->second.durations_ms);
  };
  const std::uint64_t answered = plain.answers.size() + traced.answers.size();
  result.set("unattributed_ms", unattributed_ms());
  result.set("trace_overhead_frac", rps_plain / rps_traced - 1.0);
  result.set("core.em_fits",
             static_cast<double>(plain.em_fits + traced.em_fits + replay_fits));
  result.set("serve.wire_p50_ms", median(wire));
  result.set("serve.rtt_p99_ms", rtt_tail.tail);
  result.note("rtt_samples", static_cast<double>(rtt_tail.count));
  result.note("rtt_p99_percentile", rtt_tail.tail_q * 100.0);
  result.set("serve.lru_hit_frac",
             lru_total > 0 ? static_cast<double>(lru_hits) /
                                 static_cast<double>(lru_total)
                           : 0.0);
  result.set("cache.lookup_p50_us", median(rs.lookup_us));
  result.set("ssta.chain_p50_ms", median(rs.chain_ms));
  result.set("yield.is_p50_ms", median(rs.is_ms));
  result.set("yield.samples_mean", mean(rs.is_samples));
  result.set("yield.ess_frac", mean(rs.ess_frac));
  for (const char* group : {"lookup", "path_ssta", "yield_hs"}) {
    const LatencySummary s = handle(group);
    result.set(std::string("serve.handle_p50_ms.") + group, s.p50);
    result.set(std::string("serve.handle_p99_ms.") + group, s.tail);
    result.note(std::string("handle_samples.") + group,
                static_cast<double>(s.count));
    result.note(std::string("handle_p99_percentile.") + group,
                s.tail_q * 100.0);
  }
  result.set("serve.degraded_frac",
             answered > 0 ? static_cast<double>(degraded) /
                                static_cast<double>(answered)
                          : 0.0);
  result.note("rps_untraced", rps_plain);
  result.note("rps_traced", rps_traced);
  result.note("replay_requests", static_cast<double>(kReplayRequests));
  return result;
}

}  // namespace lvf2bench
