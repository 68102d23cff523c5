#pragma once
// lvf2d server core: listener, per-connection readers, and the
// dispatch threads that execute admitted requests.
//
// Lifecycle:
//   Server s(options); s.start();       // bind + listen + threads up
//   ... requests flow ...
//   s.request_stop();                   // begin graceful drain
//   s.wait();                           // everything joined, stats final
//
// Graceful drain (request_stop): stop accepting connections, close
// the admission queue (readers answer new frames with kUnavailable
// "draining"), shed still-queued requests to the degradation floor
// (tagged, never dropped), let in-flight computes finish, shut the
// read side of every connection so blocked readers wake, then join.
// The process's atexit sinks (metrics, manifest) then flush as usual —
// the manifest's "serve" section is fed entirely from global counters
// so it stays valid at exit time.
//
// Threading: one accept thread, one reader thread per connection, and
// max_inflight dispatch threads. Each dispatch thread pops one request
// and runs it to its answer, so a slow request holds one thread and
// never delays the requests behind it on the others. Its DeadlineGuard
// arms the thread-local deadline for the checkpoint hooks in MC / EM /
// SSTA loops; an inner parallel_for (importance-sampling shards, MC on
// a cache miss) fans out to exec::Pool workers, which inherit it.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/status.h"
#include "serve/admission.h"
#include "serve/handlers.h"

namespace lvf2::serve {

struct ServerOptions {
  /// "unix:<path>" or "tcp:<port>" (loopback only; port 0 picks an
  /// ephemeral port, see Server::tcp_port()).
  std::string listen = "unix:/tmp/lvf2d.sock";
  /// Default per-request budget when the request carries none;
  /// <= 0 means no deadline (LVF2_DEADLINE_MS).
  double default_deadline_ms = 0.0;
  /// Dispatch threads, i.e. requests executed concurrently;
  /// 0 = exec::thread_count() (LVF2_MAX_INFLIGHT).
  std::size_t max_inflight = 0;
  /// Admission queue capacity (LVF2_SERVE_QUEUE).
  std::size_t queue_capacity = 64;
  /// Queue fill fraction above which admitted requests are marked for
  /// the shed chain.
  double shed_fraction = 0.75;
  /// Hot-entry LRU capacity (LVF2_SERVE_LRU; 0 disables).
  std::size_t lru_capacity = kDefaultLruCapacity;
  /// What to serve.
  cells::LibraryOptions library;
  cells::CharacterizeOptions characterize;
  spice::ProcessCorner corner = spice::ProcessCorner::tt_global_local_mc();
};

/// Options from the environment: LVF2_SERVE, LVF2_DEADLINE_MS,
/// LVF2_MAX_INFLIGHT, LVF2_SERVE_QUEUE, LVF2_SERVE_LRU,
/// LVF2_SERVE_SAMPLES, LVF2_SERVE_GRID_STRIDE (see README "Serving").
ServerOptions server_options_from_env();

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener and starts the accept + dispatch threads.
  core::Status start();

  /// Begins the graceful drain (idempotent, normal context — signal
  /// handlers should write a self-pipe and let the main thread call
  /// this).
  void request_stop();

  /// Joins every thread; returns once drained. Implies the drain has
  /// been requested.
  void wait();

  /// The bound TCP port (after start(); 0 for unix listeners).
  int tcp_port() const { return tcp_port_; }

  const ServerOptions& options() const { return options_; }
  HandlerContext& context() { return context_; }

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t number = 0;  ///< accept-order id, for request traces
    std::mutex write_mutex;
    /// Set when a response write failed: the peer is stuck mid-frame,
    /// so the stream can never be re-synchronized and must be torn
    /// down rather than reused.
    std::atomic<bool> broken{false};
    ~Connection();
  };

  struct PendingRequest {
    std::shared_ptr<Connection> conn;
    Request request;
    std::chrono::steady_clock::time_point arrival;
    std::uint64_t rid = 0;        ///< server-minted request id
    std::uint32_t bytes_in = 0;   ///< request frame payload bytes
    bool shed = false;  ///< admitted above the watermark
  };

  core::Status bind_listener();
  void accept_loop();
  void reader_loop(std::shared_ptr<Connection> conn);
  void process(PendingRequest& item);
  /// Returns the response payload bytes written (0 when the write
  /// failed or the connection was already broken) — the request
  /// trace's bytes_out.
  std::size_t respond(Connection& conn, std::uint64_t id,
                      const core::Status& status,
                      std::string_view degradation, double elapsed_ms,
                      const obs::JsonValue* result,
                      double retry_after_ms = 0.0);

  ServerOptions options_;
  HandlerContext context_;
  AdmissionQueue<PendingRequest> queue_;

  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  int tcp_port_ = 0;
  std::string unix_path_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_requested_{false};
  bool started_ = false;
  bool joined_ = false;

  std::thread accept_thread_;
  std::vector<std::thread> dispatch_threads_;
  std::mutex conns_mutex_;
  std::vector<std::thread> reader_threads_;
  std::vector<std::weak_ptr<Connection>> conns_;
};

}  // namespace lvf2::serve
