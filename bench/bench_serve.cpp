// Serving-traffic driver for the solver daemon (DESIGN.md section 16):
// fires a closed-loop request storm of single-RHS solves at one scene and
// measures requests/sec and p50/p99 latency with the request coalescer
// off and on. The coalescer's claim is structural: N concurrent requests
// for the same fingerprint should collapse into a handful of batched
// solve calls against one cached factorization, so coalesced throughput
// at concurrency must beat the one-column-at-a-time service by a wide
// margin (CI asserts >= 2x at concurrency 16) while every answer stays
// bitwise identical to a direct single-RHS solve. --report writes a
// RunReport with one run per mode (cs-report renders it); --socket drives
// an external cs-served daemon over its unix socket instead of an
// in-process service.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/json.h"
#include "coupled/coupled.h"
#include "fembem/system.h"
#include "server/client.h"
#include "server/service.h"

using namespace cs;
using server::SceneSpec;
using server::ServeOptions;
using server::SolverService;

namespace {

/// Distinct deterministic request columns; requests cycle through them so
/// every batch mixes different right-hand sides.
constexpr int kDistinctCols = 8;

void fill_rhs(index_t nv, index_t ns, int c, std::vector<double>* b_v,
              std::vector<double>* b_s) {
  b_v->resize(static_cast<std::size_t>(nv));
  b_s->resize(static_cast<std::size_t>(ns));
  std::uint32_t s = 77777u + static_cast<std::uint32_t>(c) * 7919u;
  for (auto* vec : {b_v, b_s})
    for (double& x : *vec) {
      s = s * 1664525u + 1013904223u;
      x = 1.0 + double(s >> 8) / double(1u << 24);
    }
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// One load pass: `requests` solves spread over `concurrency` closed-loop
/// worker threads. Every reply is checked bitwise against the reference
/// solution of its column (solve() is per-column bitwise deterministic,
/// so coalescing may change throughput but never a single bit).
struct LoadResult {
  int requests = 0;
  int failures = 0;
  int mismatches = 0;
  double seconds = 0;
  double rps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  index_t max_batch = 0;
  std::uint64_t hits = 0, misses = 0, factorizations = 0;
  std::uint64_t batches = 0, columns = 0;
};

LoadResult run_pass(SolverService& service, const SceneSpec& scene,
                    int concurrency, int requests,
                    const std::vector<std::vector<double>>& ref_v,
                    const std::vector<std::vector<double>>& ref_s) {
  const index_t nv = static_cast<index_t>(ref_v[0].size());
  const index_t ns = static_cast<index_t>(ref_s[0].size());
  LoadResult out;
  out.requests = requests;

  std::vector<double> latencies_ms(static_cast<std::size_t>(requests), 0);
  std::atomic<int> next{0};
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::atomic<index_t> max_batch{0};

  Timer wall;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(concurrency));
  for (int w = 0; w < concurrency; ++w)
    workers.emplace_back([&] {
      std::vector<double> b_v, b_s;
      for (;;) {
        const int r = next.fetch_add(1);
        if (r >= requests) break;
        const int c = r % kDistinctCols;
        b_v = ref_v[static_cast<std::size_t>(c)];  // unsolved copy below
        b_s = ref_s[static_cast<std::size_t>(c)];
        fill_rhs(nv, ns, c, &b_v, &b_s);
        Timer t;
        const server::RequestResult res =
            service.solve(scene, b_v.data(), b_s.data());
        latencies_ms[static_cast<std::size_t>(r)] = t.seconds() * 1e3;
        if (!res.ok) {
          ++failures;
          continue;
        }
        index_t seen = max_batch.load();
        while (res.batch_columns > seen &&
               !max_batch.compare_exchange_weak(seen, res.batch_columns)) {
        }
        if (std::memcmp(b_v.data(), ref_v[static_cast<std::size_t>(c)].data(),
                        sizeof(double) * b_v.size()) != 0 ||
            std::memcmp(b_s.data(), ref_s[static_cast<std::size_t>(c)].data(),
                        sizeof(double) * b_s.size()) != 0)
          ++mismatches;
      }
    });
  for (auto& t : workers) t.join();

  out.seconds = wall.seconds();
  out.failures = failures.load();
  out.mismatches = mismatches.load();
  out.rps = out.seconds > 0 ? requests / out.seconds : 0;
  out.p50_ms = percentile(latencies_ms, 0.50);
  out.p99_ms = percentile(latencies_ms, 0.99);
  out.max_batch = max_batch.load();
  const server::ServiceCounters& c = service.counters();
  out.hits = c.cache_hits.load();
  out.misses = c.cache_misses.load();
  out.factorizations = c.factorizations.load();
  out.batches = c.coalesced_batches.load();
  out.columns = c.coalesced_columns.load();
  return out;
}

/// One pass's numbers as run metrics.
coupled::RunMetrics load_metrics(const LoadResult& r) {
  auto d = [](auto v) { return static_cast<double>(v); };
  return {{"requests", d(r.requests)},
          {"failures", d(r.failures)},
          {"mismatches", d(r.mismatches)},
          {"seconds", r.seconds},
          {"requests_per_second", r.rps},
          {"p50_ms", r.p50_ms},
          {"p99_ms", r.p99_ms},
          {"max_batch_columns", d(r.max_batch)},
          {"cache_hits", d(r.hits)},
          {"cache_misses", d(r.misses)},
          {"factorizations", d(r.factorizations)},
          {"coalesced_batches", d(r.batches)},
          {"coalesced_columns", d(r.columns)}};
}

/// A pass succeeds when every request was answered and every answer
/// matched bitwise.
bool load_ok(const LoadResult& r) {
  return r.failures == 0 && r.mismatches == 0;
}

void print_row(TablePrinter& table, const char* mode, const LoadResult& r) {
  table.add_row({mode, TablePrinter::fmt_int(r.requests),
                 TablePrinter::fmt(r.rps, 1),
                 TablePrinter::fmt(r.p50_ms, 2), TablePrinter::fmt(r.p99_ms, 2),
                 TablePrinter::fmt_int(static_cast<long long>(r.max_batch)),
                 TablePrinter::fmt_int(static_cast<long long>(r.hits)),
                 TablePrinter::fmt_int(static_cast<long long>(r.factorizations))});
}

/// External-daemon mode: the same closed-loop storm through one
/// ServeClient per worker against a cs-served unix socket. Identical
/// columns must come back bitwise identical across requests (the daemon
/// solves them through one cached factorization).
int run_socket_mode(CliArgs& args, bench::Observability& obs,
                    const SceneSpec& scene, int concurrency, int requests,
                    const std::string& socket_path) {
  server::ServeClient probe;
  probe.connect_unix(socket_path);
  probe.ping();
  const server::ServeClient::Description d = probe.describe(scene);
  const index_t nv = static_cast<index_t>(d.nv);
  const index_t ns = static_cast<index_t>(d.ns);
  log_info("[serve] daemon scene: nv=", d.nv, " ns=", d.ns,
           d.resident ? " (resident)" : " (cold)");

  // First occurrence of each column is the reference; later replies for
  // the same column must match it bitwise.
  std::vector<std::vector<double>> seen_v(kDistinctCols), seen_s(kDistinctCols);
  std::mutex seen_mu;
  std::vector<double> latencies_ms(static_cast<std::size_t>(requests), 0);
  std::atomic<int> next{0}, failures{0}, mismatches{0};
  std::atomic<std::uint32_t> max_batch{0};

  Timer wall;
  std::vector<std::thread> workers;
  for (int w = 0; w < concurrency; ++w)
    workers.emplace_back([&] {
      server::ServeClient client;
      try {
        client.connect_unix(socket_path);
      } catch (const std::exception& ex) {
        log_error("[serve] worker connect failed: ", ex.what());
        ++failures;
        return;
      }
      std::vector<double> b_v, b_s;
      for (;;) {
        const int r = next.fetch_add(1);
        if (r >= requests) break;
        const int c = r % kDistinctCols;
        fill_rhs(nv, ns, c, &b_v, &b_s);
        Timer t;
        try {
          const auto reply = client.solve(scene, b_v, b_s);
          latencies_ms[static_cast<std::size_t>(r)] = t.seconds() * 1e3;
          if (!reply.ok) {
            ++failures;
            continue;
          }
          std::uint32_t seen = max_batch.load();
          while (reply.batch_columns > seen &&
                 !max_batch.compare_exchange_weak(seen, reply.batch_columns)) {
          }
        } catch (const std::exception& ex) {
          log_error("[serve] request failed: ", ex.what());
          ++failures;
          continue;
        }
        std::lock_guard<std::mutex> g(seen_mu);
        auto& rv = seen_v[static_cast<std::size_t>(c)];
        auto& rs = seen_s[static_cast<std::size_t>(c)];
        if (rv.empty()) {
          rv = b_v;
          rs = b_s;
        } else if (std::memcmp(rv.data(), b_v.data(),
                               sizeof(double) * rv.size()) != 0 ||
                   std::memcmp(rs.data(), b_s.data(),
                               sizeof(double) * rs.size()) != 0) {
          ++mismatches;
        }
      }
    });
  for (auto& t : workers) t.join();
  const double seconds = wall.seconds();

  const std::string stats = probe.stats_json();
  std::printf("\nserving %d requests over %d connections: %.2f s, %.1f req/s, "
              "p50 %.2f ms, p99 %.2f ms, %d failures, %d mismatches\n",
              requests, concurrency, seconds,
              seconds > 0 ? requests / seconds : 0,
              percentile(latencies_ms, 0.5), percentile(latencies_ms, 0.99),
              failures.load(), mismatches.load());
  std::printf("daemon stats: %s\n", stats.c_str());

  LoadResult lr;
  lr.requests = requests;
  lr.failures = failures.load();
  lr.mismatches = mismatches.load();
  lr.seconds = seconds;
  lr.rps = seconds > 0 ? requests / seconds : 0;
  lr.p50_ms = percentile(latencies_ms, 0.5);
  lr.p99_ms = percentile(latencies_ms, 0.99);
  lr.max_batch = static_cast<index_t>(max_batch.load());
  // The cache/coalescer counters live daemon-side; lift them out of the
  // stats reply so the socket run carries them like an in-process pass.
  json::Value daemon;
  std::string err;
  if (json::parse(stats, &daemon, &err)) {
    auto u64 = [&](const char* key) {
      const json::Value* v = daemon.find(key);
      return v != nullptr && v->is_number()
                 ? static_cast<std::uint64_t>(v->number)
                 : 0u;
    };
    lr.hits = u64("cache_hit");
    lr.misses = u64("cache_miss");
    lr.factorizations = u64("factorizations");
    lr.batches = u64("coalesced_batches");
    lr.columns = u64("coalesced_columns");
  }
  if (!load_ok(lr)) ++bench::unexpected_failures();
  obs.add("socket", "cs-served", nullptr, load_ok(lr), load_metrics(lr));
  if (args.get_bool("shutdown-daemon", false)) {
    log_info("[serve] asking the daemon to shut down");
    probe.shutdown_server();
  }
  return bench::exit_status();
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  args.describe("n", "total unknowns of the scene (default 3000)");
  args.describe("requests", "total solve requests per pass (default 64)");
  args.describe("concurrency", "closed-loop client threads (default 16)");
  args.describe("strategy", "coupling strategy name (default multi-solve)");
  args.describe("eps", "low-rank accuracy (default 1e-4)");
  args.describe("window", "coalescing window in microseconds (default 200)");
  args.describe("max-batch", "max columns per coalesced solve (default 256)");
  args.describe("socket",
                "drive an external cs-served daemon at this unix socket "
                "instead of the in-process service");
  args.describe("shutdown-daemon",
                "with --socket: send a shutdown request when done");
  bench::describe_threads(args);
  bench::describe_precision(args);
  bench::Observability::describe(args);
  args.check(
      "Solver-as-a-service load generator: requests/sec and p50/p99 "
      "latency of concurrent single-RHS solves against the factorization "
      "cache, coalesced vs uncoalesced. Every reply is validated bitwise "
      "against a direct solve of the same column.");
  bench::Observability obs(args, "bench_serve");

  SceneSpec scene;
  scene.total_unknowns = args.get_int("n", 3000);
  const int concurrency = static_cast<int>(args.get_int("concurrency", 16));
  const int requests = static_cast<int>(args.get_int("requests", 64));

  const std::string socket_path = args.get("socket", "");
  if (!socket_path.empty())
    return run_socket_mode(args, obs, scene, concurrency, requests,
                           socket_path);

  ServeOptions opts;
  opts.solver.strategy = bench::strategy_by_name(
      args.get("strategy", coupled::strategy_name(coupled::Strategy::kMultiSolve)));
  opts.solver.eps = args.get_double("eps", 1e-4);
  opts.coalesce_window_us = static_cast<int>(args.get_int("window", 200));
  opts.max_batch = static_cast<index_t>(args.get_int("max-batch", 256));
  bench::apply_threads(args, opts.solver);
  bench::apply_precision(args, opts.solver);

  // Reference solutions: each distinct column solved alone against a
  // directly factorized handle with the same config. The service must
  // reproduce these bitwise in both modes.
  log_info("[serve] building scene and reference solutions: N=",
           scene.total_unknowns);
  fembem::SystemParams prm;
  prm.total_unknowns = static_cast<index_t>(scene.total_unknowns);
  const auto sys = fembem::make_pipe_system<double>(prm);
  const auto handle = coupled::factorize_coupled(sys, opts.solver);
  if (!handle.ok()) {
    log_error("[serve] reference factorization failed: ",
              handle.stats().failure);
    return 1;
  }
  const index_t nv = sys.nv();
  const index_t ns = sys.ns();
  std::vector<std::vector<double>> ref_v(kDistinctCols), ref_s(kDistinctCols);
  for (int c = 0; c < kDistinctCols; ++c) {
    fill_rhs(nv, ns, c, &ref_v[c], &ref_s[c]);
    la::MatrixView<double> Bv(ref_v[c].data(), nv, 1, nv);
    la::MatrixView<double> Bs(ref_s[c].data(), ns, 1, ns);
    if (!handle.solve(Bv, Bs).success) {
      log_error("[serve] reference solve failed");
      return 1;
    }
  }

  auto run_mode = [&](bool coalesce) {
    ServeOptions o = opts;
    o.coalesce = coalesce;
    SolverService service(o);
    // Warm the cache outside the timed window: the pass measures serving
    // throughput, not the one-off factorization (which the report still
    // shows via the counters: 1 factorization, requests-1 hits).
    std::vector<double> warm_v, warm_s;
    fill_rhs(nv, ns, 0, &warm_v, &warm_s);
    if (!service.solve(scene, warm_v.data(), warm_s.data()).ok)
      log_error("[serve] warm-up solve failed");
    log_info("[serve] ", coalesce ? "coalesced" : "uncoalesced", " pass: ",
             requests, " requests over ", concurrency, " threads ...");
    LoadResult r = run_pass(service, scene, concurrency, requests, ref_v,
                            ref_s);
    log_info("[serve]   -> ", TablePrinter::fmt(r.rps, 1), " req/s, p99 ",
             TablePrinter::fmt(r.p99_ms, 2), " ms, max batch ",
             static_cast<long long>(r.max_batch));
    return r;
  };

  const LoadResult uncoalesced = run_mode(false);
  const LoadResult coalesced = run_mode(true);

  TablePrinter table({"mode", "requests", "req/s", "p50 ms", "p99 ms",
                      "max batch", "hits", "factorizations"});
  print_row(table, "uncoalesced", uncoalesced);
  print_row(table, "coalesced", coalesced);
  std::printf("\nserving traffic, N=%lld, concurrency %d\n",
              static_cast<long long>(scene.total_unknowns), concurrency);
  table.print();

  const double speedup =
      uncoalesced.rps > 0 ? coalesced.rps / uncoalesced.rps : 0;
  std::printf("\ncoalesced vs uncoalesced: %.2fx requests/sec "
              "(%d columns in %d batched solves)\n",
              speedup, static_cast<int>(coalesced.columns),
              static_cast<int>(coalesced.batches));

  // Self-validation: the cache must have hit (one factorization per
  // pass including warm-up), and every reply must be bitwise right.
  bool valid = true;
  for (const LoadResult* r : {&uncoalesced, &coalesced}) {
    if (!load_ok(*r)) {
      std::fprintf(stderr, "VALIDATION: %d failures, %d bitwise mismatches\n",
                   r->failures, r->mismatches);
      valid = false;
    }
    if (r->factorizations != 1) {
      std::fprintf(stderr,
                   "VALIDATION: expected exactly 1 factorization per pass, "
                   "saw %d (cache miss on a repeat fingerprint)\n",
                   static_cast<int>(r->factorizations));
      valid = false;
    }
    if (r->hits < static_cast<std::uint64_t>(r->requests)) {
      std::fprintf(stderr, "VALIDATION: only %d cache hits for %d requests\n",
                   static_cast<int>(r->hits), r->requests);
      valid = false;
    }
  }
  if (!valid) ++bench::unexpected_failures();

  const std::string strategy = coupled::strategy_name(opts.solver.strategy);
  obs.add("uncoalesced", strategy, &opts.solver, load_ok(uncoalesced),
          load_metrics(uncoalesced));
  obs.add("coalesced", strategy, &opts.solver, load_ok(coalesced),
          load_metrics(coalesced));
  return bench::exit_status();
}
