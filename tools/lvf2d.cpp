// lvf2d — the timing-query daemon. Serves the characterized paper
// library over a length-prefixed JSON protocol (see
// src/serve/protocol.h and README "Serving").
//
// Configuration is environment-first, matching every other lvf2
// sink:
//   LVF2_SERVE=unix:<path>|tcp:<port>   listen address (required
//                                       unless --listen is given)
//   LVF2_DEADLINE_MS=<ms>               default per-request budget
//   LVF2_MAX_INFLIGHT=<n>               dispatch threads (concurrent
//                                       requests)
//   LVF2_SERVE_QUEUE=<n>                admission queue capacity
//   LVF2_SERVE_LRU=<n>                  hot-entry LRU capacity
//   LVF2_SERVE_SAMPLES=<n>              MC samples per cold entry
//   LVF2_SERVE_GRID_STRIDE=<n>          reduced slew/load grid
// plus the usual LVF2_CACHE / LVF2_FAULTS / LVF2_MANIFEST /
// LVF2_METRICS knobs.
//
// SIGTERM / SIGINT begin a graceful drain: stop accepting, answer
// queued work from the degradation floor, finish in-flight computes,
// then exit 0 through main so the atexit sinks (metrics, manifest,
// cache flush) run. The handler only writes one byte to a self-pipe
// — everything non-async-signal-safe happens on the main thread.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include <unistd.h>

#include "serve/server.h"

namespace {

int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 1;
  // write() is async-signal-safe; a full pipe just means a signal is
  // already pending, which is all we need.
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lvf2;

  serve::ServerOptions options = serve::server_options_from_env();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--listen" && i + 1 < argc) {
      options.listen = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr,
                   "usage: lvf2d [--listen unix:<path>|tcp:<port>]\n"
                   "environment: LVF2_SERVE LVF2_DEADLINE_MS "
                   "LVF2_MAX_INFLIGHT LVF2_SERVE_QUEUE LVF2_SERVE_LRU "
                   "LVF2_SERVE_SAMPLES LVF2_SERVE_GRID_STRIDE\n");
      return 0;
    } else {
      std::fprintf(stderr, "lvf2d: unknown argument \"%s\"\n", arg.c_str());
      return 2;
    }
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::perror("lvf2d: pipe");
    return 1;
  }
  std::signal(SIGPIPE, SIG_IGN);
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  serve::Server server(std::move(options));
  if (core::Status st = server.start(); !st.is_ok()) {
    std::fprintf(stderr, "lvf2d: %s\n", st.to_string().c_str());
    return 1;
  }
  std::printf("lvf2d listening on %s%s\n",
              server.options().listen.c_str(),
              server.tcp_port() > 0
                  ? (" (port " + std::to_string(server.tcp_port()) + ")")
                        .c_str()
                  : "");
  std::fflush(stdout);

  // Block until a signal lands on the self-pipe.
  char byte = 0;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::fprintf(stderr, "lvf2d: draining\n");
  server.request_stop();
  server.wait();
  // Normal return: atexit sinks (metrics, manifest with the serve
  // section, cache flush) write now.
  return 0;
}
