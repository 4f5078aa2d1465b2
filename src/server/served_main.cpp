// cs-served: the solver-service daemon. Listens on a Unix-domain socket
// (or loopback TCP), keeps an LRU cache of factorizations keyed on system
// fingerprints, coalesces concurrent single-RHS requests into batched
// solves, and exits cleanly on SIGINT/SIGTERM or a client kShutdown.
// See DESIGN.md §16 and `bench_serve` for the matching load generator.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "common/cli.h"
#include "common/log.h"
#include "coupled/coupled.h"
#include "server/server.h"
#include "server/service.h"

namespace {

std::atomic<int> g_stop{0};

void handle_signal(int) { g_stop.store(1); }

}  // namespace

int main(int argc, char** argv) {
  using namespace cs;
  CliArgs args(argc, argv);
  args.describe("socket", "unix socket path to listen on (default "
                          "$TMPDIR/cs-served.sock)");
  args.describe("port", "listen on loopback TCP at this port instead of a "
                        "unix socket (0 picks a free port)");
  args.describe("strategy",
                "coupling strategy name (default multi-solve-compressed)");
  args.describe("eps", "low-rank compression tolerance (default 1e-4)");
  args.describe("cache-budget-mb",
                "byte budget of resident factorizations in MiB (0 = "
                "unlimited)");
  args.describe("max-entries",
                "max resident factorizations regardless of bytes "
                "(default 8)");
  args.describe("coalesce",
                "batch concurrent single-RHS requests into one solve "
                "(default true)");
  args.describe("window-us",
                "coalescing window the batch leader waits for stragglers "
                "(default 200)");
  args.describe("max-batch", "max RHS columns per coalesced solve "
                             "(default 256)");
  args.describe("spill", "spill evicted factorizations to checkpoint files "
                         "and restore instead of refactorizing");
  args.describe("spill-dir", "directory for eviction checkpoints (default "
                             "$TMPDIR)");
  args.describe("threads", "worker threads for the task-parallel layer "
                           "(0 = hardware default)");
  args.check("solver-as-a-service daemon: factorization cache + request "
             "coalescing over a framed socket protocol");

  server::ServeOptions opts;
  const std::string strategy = args.get(
      "strategy",
      coupled::strategy_name(coupled::Strategy::kMultiSolveCompressed));
  if (const auto s = coupled::strategy_from_name(strategy)) {
    opts.solver.strategy = *s;
  } else {
    std::fprintf(stderr, "unknown --strategy '%s' (see --help)\n",
                 strategy.c_str());
    return 2;
  }
  opts.solver.eps = args.get_double("eps", 1e-4);
  opts.solver.num_threads = static_cast<int>(args.get_int("threads", 0));
  opts.cache_budget_bytes = static_cast<std::size_t>(
      args.get_int("cache-budget-mb", 0) * (1ll << 20));
  opts.max_entries = static_cast<std::size_t>(args.get_int("max-entries", 8));
  opts.coalesce = args.get_bool("coalesce", true);
  opts.coalesce_window_us = static_cast<int>(args.get_int("window-us", 200));
  opts.max_batch = static_cast<index_t>(args.get_int("max-batch", 256));
  opts.spill_on_evict = args.get_bool("spill", false);
  opts.spill_dir = args.get("spill-dir", default_tmp_dir());

  // Fail fast on a bad configuration: the service constructor validates
  // the solver config (including ooc_dir) and the spill directory.
  std::unique_ptr<server::SolverService> service;
  try {
    service = std::make_unique<server::SolverService>(opts);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "cs-served: invalid configuration: %s\n", ex.what());
    return 2;
  }

  server::SocketServer srv(*service);
  srv.on_shutdown([] { g_stop.store(1); });
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  const std::string socket_path =
      args.get("socket", default_tmp_dir() + "/cs-served.sock");
  try {
    if (args.has("port")) {
      const int port = srv.listen_tcp(static_cast<int>(args.get_int(
          "port", 0)));
      std::printf("cs-served: listening on 127.0.0.1:%d\n", port);
    } else {
      srv.listen_unix(socket_path);
      std::printf("cs-served: listening on %s\n", socket_path.c_str());
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "cs-served: cannot listen: %s\n", ex.what());
    return 1;
  }
  std::fflush(stdout);

  while (g_stop.load() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  srv.stop();
  std::printf("cs-served: final stats %s\n", service->stats_json().c_str());
  return 0;
}
