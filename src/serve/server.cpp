#include "serve/server.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <utility>

#include "core/cancel.h"
#include "exec/pool.h"
#include "obs/log.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/reqtrace.h"
#include "serve/telemetry.h"

namespace lvf2::serve {

namespace {

/// Server-minted request ids: unique per process, monotone, never 0.
/// Distinct from the client-chosen Request::id echoed in responses —
/// the rid names the request in traces and refusal payloads even when
/// clients reuse ids across connections.
std::atomic<std::uint64_t> g_next_rid{1};
std::atomic<std::uint64_t> g_next_conn{1};

double env_double(const char* name, double fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return fallback;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || !(v == v)) return fallback;
  return v;
}

std::size_t env_size(const char* name, std::size_t fallback) {
  const double v = env_double(name, -1.0);
  if (v < 0.0) return fallback;
  return static_cast<std::size_t>(v);
}

double now_elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

// The manifest's "serve" section. Fed exclusively from the global
// metrics registry (no server state), so the provider stays valid at
// atexit time, after the Server object is long gone.
obs::JsonValue serve_section() {
  static constexpr std::pair<const char*, const char*> kCounters[] = {
      {"accepted", "serve.accepted"},
      {"responded", "serve.responded"},
      {"completed_full", "serve.completed.full"},
      {"completed_degraded", "serve.completed.degraded"},
      {"failed", "serve.completed.failed"},
      {"rejected", "serve.rejected"},
      {"drain_refused", "serve.drain_refused"},
      {"shed_overload", "serve.shed.overload"},
      {"shed_deadline", "serve.shed.deadline"},
      {"shed_drain", "serve.shed.drain"},
      {"degraded_cached", "serve.degraded.cached"},
      {"degraded_single_sn", "serve.degraded.single_sn"},
      {"degraded_point_mass", "serve.degraded.point_mass"},
      {"lru_hit", "serve.lru.hit"},
      {"lru_miss", "serve.lru.miss"},
      {"io_retry", "serve.io.retry"},
      {"io_injected_hard", "serve.io.injected_hard"},
      {"connections", "serve.connections"}};
  obs::JsonValue out = obs::json_object();
  for (const auto& [key, counter] : kCounters) {
    out.object.emplace_back(key, obs::json_u64(obs::counter(counter).value()));
  }
  out.object.emplace_back(
      "queue_high_water",
      obs::json_number(obs::gauge("serve.queue.high_water").value()));
  out.object.emplace_back(
      "drained", obs::json_number(obs::gauge("serve.drained").value()));
  return out;
}

// A refused request (drain or admission-full) still leaves a trace
// record so the access log accounts for every parsed frame.
void trace_refusal(std::uint64_t rid, std::uint64_t conn_number,
                   const Request& request, const core::Status& status,
                   std::uint32_t bytes_in, std::size_t bytes_out) {
  if (!reqtrace_enabled()) return;
  RequestTrace t;
  t.rid = rid;
  t.conn = conn_number;
  t.bytes_in = bytes_in;
  t.bytes_out = static_cast<std::uint32_t>(bytes_out);
  RequestTrace::set_field(t.op, request.op);
  RequestTrace::set_field(t.status, core::to_string(status.code()));
  RequestTrace::set_field(t.degradation, "none");
  RequestTrace::set_field(t.mode, "refused");
  RequestTraceLog::instance().record(t);
}

}  // namespace

ServerOptions server_options_from_env() {
  ServerOptions options;
  if (const char* listen = std::getenv("LVF2_SERVE");
      listen != nullptr && *listen != '\0') {
    options.listen = listen;
  }
  options.default_deadline_ms = env_double("LVF2_DEADLINE_MS", 0.0);
  options.max_inflight = env_size("LVF2_MAX_INFLIGHT", 0);
  options.queue_capacity = env_size("LVF2_SERVE_QUEUE", 64);
  options.lru_capacity = env_size("LVF2_SERVE_LRU", kDefaultLruCapacity);
  options.characterize.mc_samples = env_size("LVF2_SERVE_SAMPLES", 2000);
  const std::size_t stride = env_size("LVF2_SERVE_GRID_STRIDE", 1);
  if (stride > 1) {
    options.characterize.grid = cells::SlewLoadGrid::reduced(stride);
  }
  return options;
}

Server::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      queue_(options_.queue_capacity,
             static_cast<std::size_t>(
                 static_cast<double>(options_.queue_capacity) *
                 options_.shed_fraction)) {
  context_.library = cells::build_paper_library(options_.library);
  context_.corner = options_.corner;
  context_.characterize = options_.characterize;
  context_.lru.set_capacity(options_.lru_capacity);
}

Server::~Server() {
  request_stop();
  wait();
}

core::Status Server::bind_listener() {
  const std::string& listen = options_.listen;
  if (listen.rfind("unix:", 0) == 0) {
    unix_path_ = listen.substr(5);
    if (unix_path_.empty()) {
      return core::Status::invalid_argument("empty unix socket path");
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (unix_path_.size() >= sizeof(addr.sun_path)) {
      return core::Status::invalid_argument("unix socket path too long");
    }
    std::memcpy(addr.sun_path, unix_path_.c_str(), unix_path_.size() + 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return core::Status::unavailable(std::string("socket(): ") +
                                       std::strerror(errno));
    }
    ::unlink(unix_path_.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return core::Status::unavailable("bind(" + unix_path_ +
                                       "): " + std::strerror(errno));
    }
  } else if (listen.rfind("tcp:", 0) == 0) {
    char* end = nullptr;
    const long port = std::strtol(listen.c_str() + 4, &end, 10);
    if (end == listen.c_str() + 4 || port < 0 || port > 65535) {
      return core::Status::invalid_argument("bad tcp port in \"" + listen +
                                            "\"");
    }
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return core::Status::unavailable(std::string("socket(): ") +
                                       std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return core::Status::unavailable("bind(" + listen +
                                       "): " + std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
    }
  } else {
    return core::Status::invalid_argument(
        "LVF2_SERVE must be unix:<path> or tcp:<port>, got \"" + listen +
        "\"");
  }
  if (::listen(listen_fd_, 64) != 0) {
    return core::Status::unavailable(std::string("listen(): ") +
                                     std::strerror(errno));
  }
  return core::Status::ok();
}

core::Status Server::start() {
  if (started_) return core::Status::invalid_argument("already started");
  if (::pipe(stop_pipe_) != 0) {
    return core::Status::unavailable(std::string("pipe(): ") +
                                     std::strerror(errno));
  }
  if (core::Status st = bind_listener(); !st.is_ok()) return st;
  obs::ManifestRecorder::instance().set_section_provider(
      "serve", serve_section);
  // The telemetry singleton is leaked, so this stays valid at atexit.
  // The section is the `metrics` op snapshot without the registry.
  obs::ManifestRecorder::instance().set_section_provider(
      "serve_telemetry", [] {
        return ServeTelemetry::instance().snapshot_json(
            /*with_registry=*/false);
      });
  {
    ServeTelemetry& telemetry = ServeTelemetry::instance();
    telemetry.set_deadline_budget_ms(options_.default_deadline_ms);
    // Cleared in wait(): the provider captures `this`.
    telemetry.set_queue_depth_provider([this] { return queue_.depth(); });
  }
  RequestTraceLog::instance().configure_from_env();
  started_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
  // Each dispatch thread serves one request at a time, start to
  // answer, so a request starts as soon as any thread is free.
  std::size_t dispatchers = options_.max_inflight;
  if (dispatchers == 0) dispatchers = exec::thread_count();
  for (std::size_t i = 0; i < dispatchers; ++i) {
    dispatch_threads_.emplace_back([this] {
      while (std::optional<PendingRequest> item = queue_.pop()) {
        process(*item);
      }
    });
  }
  obs::log_info("serve.started",
                {{"listen", options_.listen},
                 {"tcp_port", tcp_port_},
                 {"deadline_ms", options_.default_deadline_ms},
                 {"queue", options_.queue_capacity},
                 {"max_inflight", dispatchers}});
  return core::Status::ok();
}

void Server::accept_loop() {
  while (true) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) break;  // stop requested
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    obs::counter("serve.connections").add(1);
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->number = g_next_conn.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(conns_mutex_);
    // A connection accepted after request_stop() swept conns_ would
    // otherwise block its reader in read() forever, and wait() with it.
    if (draining_.load(std::memory_order_relaxed)) {
      ::shutdown(conn->fd, SHUT_RD);
    }
    conns_.push_back(conn);
    reader_threads_.emplace_back(
        [this, conn = std::move(conn)]() mutable { reader_loop(conn); });
  }
}

std::size_t Server::respond(Connection& conn, std::uint64_t id,
                            const core::Status& status,
                            std::string_view degradation, double elapsed_ms,
                            const obs::JsonValue* result,
                            double retry_after_ms) {
  const std::string body = render_response(id, status, degradation,
                                           elapsed_ms, result, retry_after_ms);
  std::lock_guard<std::mutex> lock(conn.write_mutex);
  if (conn.broken.load(std::memory_order_relaxed)) return 0;
  if (core::Status st = write_frame(conn.fd, body); !st.is_ok()) {
    obs::counter("serve.io.write_failed").add(1);
    obs::log_warn("serve.write_failed", {{"error", st.to_string()}});
    // A failed write can leave the peer mid-frame with no way to
    // re-synchronize; shut the socket down so the peer sees EOF (and
    // reconnects) instead of blocking forever on the half-sent frame,
    // and so our own reader loop tears the connection down.
    conn.broken.store(true, std::memory_order_relaxed);
    ::shutdown(conn.fd, SHUT_RDWR);
    return 0;
  }
  return body.size();
}

void Server::reader_loop(std::shared_ptr<Connection> conn) {
  std::string body;
  while (true) {
    const core::Status read_status = read_frame(conn->fd, body);
    if (!read_status.is_ok()) {
      if (read_status.code() != core::StatusCode::kCancelled) {
        obs::counter("serve.io.read_failed").add(1);
        // An oversized frame is answerable (the stream is positioned
        // at the next frame boundary only if we drop the connection,
        // so tell the peer why before closing).
        if (read_status.code() == core::StatusCode::kResourceExhausted) {
          respond(*conn, 0, read_status, "none", 0.0, nullptr);
        }
      }
      break;
    }
    const auto arrival = std::chrono::steady_clock::now();
    const std::uint32_t bytes_in = static_cast<std::uint32_t>(body.size());
    Request request;
    if (core::Status st = parse_request(body, request); !st.is_ok()) {
      // Malformed body inside a well-formed frame: the connection
      // survives, the frame gets its error back.
      respond(*conn, request.id, st, "none", 0.0, nullptr);
      continue;
    }
    const std::uint64_t rid =
        g_next_rid.fetch_add(1, std::memory_order_relaxed);
    ServeTelemetry::instance().record_request(request.op);
    if (draining_.load(std::memory_order_relaxed)) {
      obs::counter("serve.drain_refused").add(1);
      // The refusal payload names the server-minted request id so a
      // client (or operator grepping the access log) can correlate
      // which in-flight requests the drain turned away.
      const core::Status refusal = core::Status::unavailable(
          "server draining; request " + std::to_string(rid) +
          " not admitted");
      const std::size_t bytes_out =
          respond(*conn, request.id, refusal, "none", 0.0, nullptr,
                  retry_after_hint_ms(queue_.depth()));
      trace_refusal(rid, conn->number, request, refusal, bytes_in,
                    bytes_out);
      continue;
    }
    PendingRequest item;
    item.conn = conn;
    item.request = std::move(request);
    item.arrival = arrival;
    item.rid = rid;
    item.bytes_in = bytes_in;
    const std::uint64_t id = item.request.id;
    const std::string op = item.request.op;  // survives the push
    // try_push marks item.shed when admission crosses the watermark;
    // the dispatch thread reads the verdict off the queued item.
    if (queue_.try_push(std::move(item)) == Admit::kRejected) {
      obs::counter("serve.rejected").add(1);
      const core::Status refusal = core::Status::resource_exhausted(
          "admission queue full; request " + std::to_string(rid) +
          " not admitted");
      const std::size_t bytes_out =
          respond(*conn, id, refusal, "none", 0.0, nullptr,
                  retry_after_hint_ms(queue_.depth()));
      Request refused;
      refused.op = op;
      trace_refusal(rid, conn->number, refused, refusal, bytes_in,
                    bytes_out);
    } else {
      obs::counter("serve.accepted").add(1);
    }
  }
}

void Server::process(PendingRequest& item) {
  static obs::Histogram& latency = obs::histogram(
      "serve.latency_ms", {1, 2, 5, 10, 25, 50, 100, 250, 1000, 5000});
  // Timeline split: queue_ms covers arrival -> here (admission wait +
  // dispatch), exec_ms covers the handler + response write.
  const auto exec_start = std::chrono::steady_clock::now();
  const double queue_ms = std::chrono::duration<double, std::milli>(
                              exec_start - item.arrival)
                              .count();
  ServeTelemetry& telemetry = ServeTelemetry::instance();
  telemetry.inflight_add(1);
  ExecMode mode = ExecMode::kFull;
  if (draining_.load(std::memory_order_relaxed)) {
    // Drain shed: queued work still gets an answer, from the floor.
    obs::counter("serve.shed.drain").add(1);
    mode = ExecMode::kShedFloor;
  } else if (item.shed) {
    obs::counter("serve.shed.overload").add(1);
    mode = ExecMode::kShedLight;
  }

  double budget_ms = item.request.deadline_ms > 0.0
                         ? item.request.deadline_ms
                         : options_.default_deadline_ms;
  HandlerResult result;
  if (budget_ms > 0.0) {
    // The clock started at arrival: queue wait burns budget too.
    const double remaining = budget_ms - now_elapsed_ms(item.arrival);
    if (remaining <= 0.0) {
      obs::counter("serve.shed.deadline").add(1);
      mode = ExecMode::kShedFloor;
      result = handle_request(context_, item.request, mode);
    } else {
      core::DeadlineGuard guard(remaining);
      result = handle_request(context_, item.request, mode);
    }
  } else {
    result = handle_request(context_, item.request, mode);
  }

  const double elapsed_ms = now_elapsed_ms(item.arrival);
  latency.observe(elapsed_ms);
  if (!result.status.is_ok()) {
    obs::counter("serve.completed.failed").add(1);
  } else if (result.degradation != "none") {
    obs::counter("serve.completed.degraded").add(1);
  } else {
    obs::counter("serve.completed.full").add(1);
  }
  // Counted before the write: once a client holds its answer, a
  // `stats` request it sends next (possibly served on another dispatch
  // thread) must already count it.
  obs::counter("serve.responded").add(1);
  const std::size_t bytes_out =
      respond(*item.conn, item.request.id, result.status, result.degradation,
              elapsed_ms, result.status.is_ok() ? &result.result : nullptr);
  const double exec_ms = now_elapsed_ms(exec_start);
  telemetry.inflight_add(-1);
  telemetry.record_response(item.request.op, result.status.is_ok(),
                            result.degradation, queue_ms, exec_ms,
                            budget_ms);
  if (reqtrace_enabled()) {
    RequestTrace t;
    t.rid = item.rid;
    t.conn = item.conn->number;
    t.queue_ms = queue_ms;
    t.exec_ms = exec_ms;
    t.bytes_in = item.bytes_in;
    t.bytes_out = static_cast<std::uint32_t>(bytes_out);
    RequestTrace::set_field(t.op, item.request.op);
    RequestTrace::set_field(t.status, core::to_string(result.status.code()));
    RequestTrace::set_field(t.degradation, result.degradation);
    RequestTrace::set_field(t.mode, "ok");
    RequestTraceLog::instance().record(t);
  }
}

void Server::request_stop() {
  if (!started_ || stop_requested_.exchange(true)) return;
  draining_.store(true, std::memory_order_relaxed);
  obs::log_info("serve.draining", {{"queued", queue_.depth()}});
  // Wake the accept loop.
  const char byte = 1;
  while (::write(stop_pipe_[1], &byte, 1) < 0 && errno == EINTR) {
  }
  // Close admission: pending items drain (shed to the floor), new
  // frames get "draining".
  queue_.close();
  // Wake readers blocked in read(): shutting the read side delivers
  // EOF without disturbing in-flight response writes.
  std::lock_guard<std::mutex> lock(conns_mutex_);
  for (const std::weak_ptr<Connection>& weak : conns_) {
    if (auto conn = weak.lock()) ::shutdown(conn->fd, SHUT_RD);
  }
}

void Server::wait() {
  if (!started_ || joined_) return;
  if (!stop_requested_.load()) return;  // still serving
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& t : dispatch_threads_) t.join();
  dispatch_threads_.clear();
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (std::thread& t : reader_threads_) {
      if (t.joinable()) t.join();
    }
    reader_threads_.clear();
    conns_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
  for (int& fd : stop_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  obs::gauge("serve.queue.high_water")
      .set(static_cast<double>(queue_.high_water()));
  obs::gauge("serve.drained").set(1.0);
  // The provider captured `this`; the telemetry singleton outlives us.
  ServeTelemetry::instance().set_queue_depth_provider(nullptr);
  RequestTraceLog::instance().stop();
  joined_ = true;
  obs::log_info("serve.drained", {});
}

}  // namespace lvf2::serve
