// Measured network costs for the RPC transport — the numbers that replace
// the ServiceLatencyModel's padding (400 us RTT, 125 MB/s, one RTT per
// delegation batch) with bytes actually on the wire:
//   * request RTT: p50/p95 of payload-free Stat round trips,
//   * fetch bandwidth: large-payload Fetch throughput,
//   * per-item delegation cost: N singleton Executes vs ExecuteBatch(N) —
//     the one-round-trip batching win, now measured instead of modeled,
//   * the PR 2 zipf workload through an unmodified ParallelInvoker over
//     localhost TCP.
// Emits BENCH_rpc_transport.json with measured-vs-modeled side by side.
//
// Modes:
//   ./rpc_transport                 in-process loopback server (default)
//   ./rpc_transport --serve [port]  run only the server, until killed
//   JOINOPT_RPC_CONNECT=host:port ./rpc_transport
//                                   measure against an external server
// The server seeds its store deterministically, so an external server and
// the client agree on contents (run --serve with the same build).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "joinopt/common/hash.h"
#include "joinopt/common/random.h"
#include "joinopt/net/socket.h"
#include "joinopt/engine/async_api.h"
#include "joinopt/engine/latency_service.h"
#include "joinopt/engine/parallel_invoker.h"
#include "joinopt/engine/plan_exec.h"
#include "joinopt/net/rpc_client.h"
#include "joinopt/net/rpc_server.h"
#include "joinopt/store/log_store.h"

namespace joinopt {
namespace bench {
namespace {

struct Config {
  uint64_t num_keys = 2048;
  size_t payload_bytes = 4096;
  size_t big_payload_bytes = 1u << 20;  // bandwidth probes
  uint64_t num_big_keys = 16;
  int rtt_samples = 2000;
  int exec_items = 512;
  int batch_size = 64;
  double zipf_z = 0.99;
  int64_t zipf_ops = 8000;
  int window = 256;
};

/// The same cheap deterministic UDF bench/parallel_api uses; registered
/// server-side, passed client-side so local and delegated results agree.
UserFn MixUdf() {
  return [](Key key, const std::string& params, const std::string& value) {
    uint64_t acc = Mix64(key) ^ Fnv1a(params);
    size_t limit = value.size() < 256 ? value.size() : 256;
    for (size_t i = 0; i < limit; i += 8) {
      acc = Mix64(acc + static_cast<unsigned char>(value[i]));
    }
    return std::to_string(acc & 0xffff);
  };
}

/// Big keys live above the regular key space.
Key BigKey(const Config& cfg, uint64_t i) { return cfg.num_keys + i; }

/// Deterministic store contents shared by --serve and the loopback mode.
void SeedStore(LogStructuredStore* store, const Config& cfg) {
  for (Key k = 0; k < cfg.num_keys; ++k) {
    std::string payload(cfg.payload_bytes,
                        static_cast<char>('a' + (k % 26)));
    store->Put(k, std::move(payload));
  }
  for (uint64_t i = 0; i < cfg.num_big_keys; ++i) {
    std::string payload(cfg.big_payload_bytes,
                        static_cast<char>('A' + (i % 26)));
    store->Put(BigKey(cfg, i), std::move(payload));
  }
}

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

struct Measured {
  double rtt_p50 = 0, rtt_p95 = 0;
  LatencyRecorder rtt;  ///< p50/p99/p999 over the same samples
  double fetch_bandwidth = 0;  // bytes/sec, 1 MiB payloads
  double exec_singleton_per_item = 0;
  double exec_batch_per_item = 0;
  int64_t bytes_out = 0, bytes_in = 0;
};

Measured MeasureTransport(RpcClientService& remote, const Config& cfg) {
  Measured m;

  // Warm the connection + caches.
  for (int i = 0; i < 32; ++i) (void)remote.Stat(static_cast<Key>(i));

  std::vector<double> rtts;
  rtts.reserve(static_cast<size_t>(cfg.rtt_samples));
  for (int i = 0; i < cfg.rtt_samples; ++i) {
    Key k = static_cast<Key>(i) % cfg.num_keys;
    double t0 = PlanNowSeconds();
    auto stat = remote.Stat(k);
    double dt = PlanNowSeconds() - t0;
    if (stat.ok()) {
      rtts.push_back(dt);
      m.rtt.Observe(dt);
    }
  }
  m.rtt_p50 = Percentile(rtts, 0.50);
  m.rtt_p95 = Percentile(rtts, 0.95);

  double bytes = 0;
  double t0 = PlanNowSeconds();
  for (uint64_t i = 0; i < cfg.num_big_keys; ++i) {
    auto fetched = remote.Fetch(BigKey(cfg, i));
    if (fetched.ok()) bytes += static_cast<double>(fetched->value.size());
  }
  double fetch_seconds = PlanNowSeconds() - t0;
  m.fetch_bandwidth = fetch_seconds > 0 ? bytes / fetch_seconds : 0;

  // N singleton Executes vs the same N through ExecuteBatch.
  UserFn fn = MixUdf();
  std::vector<std::pair<Key, std::string>> items;
  for (int i = 0; i < cfg.exec_items; ++i) {
    items.emplace_back(static_cast<Key>(i) % cfg.num_keys, "p");
  }
  double singleton_best = 1e30, batch_best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    t0 = PlanNowSeconds();
    for (const auto& [key, params] : items) {
      auto r = remote.Execute(key, params, fn);
      if (!r.ok()) std::exit(1);
    }
    singleton_best = std::min(singleton_best, PlanNowSeconds() - t0);

    t0 = PlanNowSeconds();
    for (size_t off = 0; off < items.size();
         off += static_cast<size_t>(cfg.batch_size)) {
      size_t end = std::min(items.size(),
                            off + static_cast<size_t>(cfg.batch_size));
      std::vector<std::pair<Key, std::string>> chunk(
          items.begin() + static_cast<long>(off),
          items.begin() + static_cast<long>(end));
      for (const auto& r : remote.ExecuteBatch(chunk, fn)) {
        if (!r.ok()) std::exit(1);
      }
    }
    batch_best = std::min(batch_best, PlanNowSeconds() - t0);
  }
  m.exec_singleton_per_item =
      singleton_best / static_cast<double>(cfg.exec_items);
  m.exec_batch_per_item = batch_best / static_cast<double>(cfg.exec_items);

  RpcClientStats cs = remote.stats();
  m.bytes_out = cs.bytes_out;
  m.bytes_in = cs.bytes_in;
  return m;
}

struct ZipfResult {
  int threads = 0;
  double seconds = 0;
  double ops_per_sec = 0;
  double hit_rate = 0;
  int64_t delegated = 0;
  int64_t delegation_batches = 0;
  int64_t transport_errors = 0;
};

/// The PR 2 zipf workload, verbatim, with the RPC client as the service.
ZipfResult RunZipf(RpcClientService& remote, const Config& cfg,
                   int threads) {
  Rng rng(42);
  ZipfDistribution zipf(cfg.num_keys, cfg.zipf_z);
  std::vector<Key> trace;
  trace.reserve(static_cast<size_t>(cfg.zipf_ops));
  for (int64_t i = 0; i < cfg.zipf_ops; ++i) {
    trace.push_back(static_cast<Key>(zipf.Sample(rng)));
  }

  ParallelInvokerOptions opt;
  opt.num_threads = threads;
  ParallelInvoker invoker(&remote, MixUdf(), opt);

  double t0 = PlanNowSeconds();
  size_t i = 0;
  while (i < trace.size()) {
    size_t end = std::min(i + static_cast<size_t>(cfg.window), trace.size());
    for (size_t j = i; j < end; ++j) invoker.SubmitComp(trace[j], "p");
    for (size_t j = i; j < end; ++j) {
      auto r = invoker.FetchComp(trace[j], "p");
      if (!r.ok()) {
        std::fprintf(stderr, "fetch failed: %s\n",
                     r.status().ToString().c_str());
        std::exit(1);
      }
    }
    i = end;
  }
  invoker.Barrier();
  double elapsed = PlanNowSeconds() - t0;

  ParallelInvokerStats s = invoker.stats();
  ZipfResult out;
  out.threads = threads;
  out.seconds = elapsed;
  out.ops_per_sec = static_cast<double>(trace.size()) / elapsed;
  out.hit_rate = static_cast<double>(s.served_from_cache) /
                 static_cast<double>(trace.size());
  out.delegated = s.delegated;
  out.delegation_batches = s.delegation_batches;
  out.transport_errors = s.transport_errors;
  return out;
}

// ---- connection-count scaling -----------------------------------------

struct ConnScaleResult {
  int connections = 0;
  double ops_per_sec = 0;
  LatencyRecorder latency;
  int64_t server_threads = 0;
  int64_t rss_bytes = 0;
};

/// VmRSS of this process (server + clients share it in loopback mode — the
/// delta across rows is what matters, dominated by per-connection state).
int64_t CurrentRssBytes() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  int64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %" PRId64 " kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb * 1024;
}

/// One row: `num_conns` idle connections held open against a fresh
/// server, RTT probes measured through the idle swarm: threads and memory
/// per idle connection.
ConnScaleResult RunConnScale(const Config& cfg, int num_conns) {
  LogStructuredStore store;
  SeedStore(&store, cfg);
  LogStoreDataService service(&store);
  RpcServerOptions sopts;
  sopts.accept_backlog = 512;
  RpcServer server(&service, MixUdf(), sopts);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "conn-scale server failed: %s\n",
                 started.ToString().c_str());
    std::exit(1);
  }

  std::vector<UniqueFd> idle;
  idle.reserve(static_cast<size_t>(num_conns));
  for (int i = 0; i < num_conns; ++i) {
    auto conn = TcpConnect(server.host(), server.port(), 10.0);
    if (!conn.ok()) {
      std::fprintf(stderr, "idle connect %d failed: %s\n", i,
                   conn.status().ToString().c_str());
      std::exit(1);
    }
    idle.push_back(std::move(conn).value());
  }
  // Let the acceptor catch up before sampling gauges.
  while (server.stats().live_connections < num_conns) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  RpcClientOptions copts;
  copts.endpoints.push_back(RpcEndpoint{server.host(), server.port()});
  RpcClientService remote(copts);
  for (int i = 0; i < 32; ++i) (void)remote.Stat(static_cast<Key>(i));

  ConnScaleResult r;
  int probes = std::max(200, cfg.rtt_samples / 4);
  double t0 = PlanNowSeconds();
  for (int i = 0; i < probes; ++i) {
    Key k = static_cast<Key>(i) % cfg.num_keys;
    double s0 = PlanNowSeconds();
    auto stat = remote.Stat(k);
    if (stat.ok()) r.latency.Observe(PlanNowSeconds() - s0);
  }
  double elapsed = PlanNowSeconds() - t0;
  r.connections = num_conns;
  r.ops_per_sec = elapsed > 0 ? probes / elapsed : 0;
  r.server_threads = server.stats().server_threads;
  r.rss_bytes = CurrentRssBytes();
  return r;
}

std::vector<ConnScaleResult> RunConnScaling(const Config& cfg,
                                            double scale) {
  // 10k connections only at scale >= 4: this axis is expensive on small
  // CI boxes.
  std::vector<int> counts = {100, 1000};
  if (scale >= 4.0) counts.push_back(10000);

  std::printf("\nconnection scaling (idle connections held open):\n");
  std::printf("%12s %12s %12s %12s %10s %10s\n", "conns", "ops/sec",
              "p50 us", "p999 us", "threads", "rss MB");
  std::vector<ConnScaleResult> rows;
  for (int n : counts) {
    ConnScaleResult r = RunConnScale(cfg, n);
    std::printf("%12d %12.0f %12.1f %12.1f %10" PRId64 " %9.1f\n",
                r.connections, r.ops_per_sec, r.latency.p50() * 1e6,
                r.latency.p999() * 1e6, r.server_threads,
                static_cast<double>(r.rss_bytes) / 1e6);
    std::fflush(stdout);
    rows.push_back(std::move(r));
  }
  return rows;
}

int Serve(const Config& cfg, uint16_t port) {
  LogStructuredStore store;
  SeedStore(&store, cfg);
  LogStoreDataService service(&store);
  RpcServerOptions sopts;
  sopts.port = port;
  RpcServer server(&service, MixUdf(), sopts);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server failed to start: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("rpc_transport server on %s:%u (%" PRIu64
              " keys, %zu B payloads; Ctrl-C to stop)\n",
              server.host().c_str(), server.port(), cfg.num_keys,
              cfg.payload_bytes);
  std::fflush(stdout);
  for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
}

}  // namespace

int Main(int argc, char** argv) {
  double scale = BenchScale();
  Config cfg;
  cfg.rtt_samples = std::max(200, static_cast<int>(cfg.rtt_samples * scale));
  cfg.exec_items = std::max(64, static_cast<int>(cfg.exec_items * scale));
  cfg.zipf_ops = std::max<int64_t>(
      512, static_cast<int64_t>(static_cast<double>(cfg.zipf_ops) * scale));

  if (argc > 1 && std::strcmp(argv[1], "--serve") == 0) {
    uint16_t port = argc > 2
                        ? static_cast<uint16_t>(std::atoi(argv[2]))
                        : 7070;
    return Serve(cfg, port);
  }

  PrintHeader("rpc_transport: measured network vs ServiceLatencyModel",
              "batch ExecuteBatch per-item cost << singleton Execute cost; "
              "loopback RTT well under the modeled 400 us WAN-ish default");

  // Local server unless JOINOPT_RPC_CONNECT points elsewhere.
  std::unique_ptr<LogStructuredStore> store;
  std::unique_ptr<LogStoreDataService> inner;
  std::unique_ptr<RpcServer> server;
  RpcClientOptions copts;
  const char* connect = std::getenv("JOINOPT_RPC_CONNECT");
  if (connect != nullptr) {
    std::string spec(connect);
    size_t colon = spec.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "JOINOPT_RPC_CONNECT must be host:port\n");
      return 1;
    }
    copts.endpoints.push_back(
        RpcEndpoint{spec.substr(0, colon),
                    static_cast<uint16_t>(std::atoi(spec.c_str() + colon + 1))});
    std::printf("connecting to external server %s\n", connect);
  } else {
    store = std::make_unique<LogStructuredStore>();
    SeedStore(store.get(), cfg);
    inner = std::make_unique<LogStoreDataService>(store.get());
    server = std::make_unique<RpcServer>(inner.get(), MixUdf());
    Status started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "server failed to start: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    copts.endpoints.push_back(RpcEndpoint{server->host(), server->port()});
  }
  RpcClientService remote(copts);

  ServiceLatencyModel model;  // the padding these measurements replace
  Measured m = MeasureTransport(remote, cfg);

  std::printf("\n%-34s %14s %14s\n", "metric", "measured", "modeled");
  std::printf("%-34s %11.1f us %11.1f us\n", "request RTT p50",
              m.rtt_p50 * 1e6, model.execute_rtt * 1e6);
  std::printf("%-34s %11.1f us %14s\n", "request RTT p95", m.rtt_p95 * 1e6,
              "-");
  m.rtt.PrintLine("request RTT tail");
  std::printf("%-34s %11.1f MB/s %9.1f MB/s\n", "fetch bandwidth (1 MiB)",
              m.fetch_bandwidth / 1e6, model.bandwidth_bytes_per_sec / 1e6);
  std::printf("%-34s %11.2f us %11.1f us\n", "Execute per item (singleton)",
              m.exec_singleton_per_item * 1e6,
              (model.execute_rtt + model.execute_per_item) * 1e6);
  std::printf("%-34s %11.2f us %11.1f us\n",
              "Execute per item (batch of 64)",
              m.exec_batch_per_item * 1e6,
              (model.execute_rtt / cfg.batch_size + model.execute_per_item) *
                  1e6);
  double batch_win = m.exec_batch_per_item > 0
                         ? m.exec_singleton_per_item / m.exec_batch_per_item
                         : 0;
  std::printf("%-34s %13.2fx\n", "batching win (per item)", batch_win);

  std::printf("\nzipf workload over TCP (z=%.2f, %" PRId64 " ops):\n",
              cfg.zipf_z, cfg.zipf_ops);
  std::printf("%8s %12s %14s %10s %10s %8s\n", "threads", "seconds",
              "ops/sec", "hit_rate", "delegated", "batches");
  std::vector<ZipfResult> zipf_results;
  for (int threads : {1, 4, 8}) {
    ZipfResult r = RunZipf(remote, cfg, threads);
    std::printf("%8d %12.3f %14.0f %9.1f%% %10" PRId64 " %8" PRId64 "\n",
                r.threads, r.seconds, r.ops_per_sec, 100.0 * r.hit_rate,
                r.delegated, r.delegation_batches);
    std::fflush(stdout);
    if (r.transport_errors > 0) {
      std::fprintf(stderr, "unexpected transport errors: %" PRId64 "\n",
                   r.transport_errors);
      return 1;
    }
    zipf_results.push_back(r);
  }

  // Connection scaling needs its own servers, so it only runs in loopback
  // mode (an external server's thread/RSS gauges aren't visible anyway).
  std::vector<ConnScaleResult> conn_rows;
  if (connect == nullptr) conn_rows = RunConnScaling(cfg, scale);

  RecoveryCounters rec = remote.recovery_counters();
  RpcClientStats cs = remote.stats();
  std::printf("\nwire traffic: %.1f MB out, %.1f MB in, %" PRId64
              " connections; recovery: %" PRId64 " timeouts, %" PRId64
              " retries, %" PRId64 " failovers\n",
              static_cast<double>(cs.bytes_out) / 1e6,
              static_cast<double>(cs.bytes_in) / 1e6,
              cs.connections_opened, rec.timeouts, rec.retries,
              rec.failovers);

  FILE* json = std::fopen("BENCH_rpc_transport.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_rpc_transport.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"rpc_transport\",\n");
  std::fprintf(json, "  \"scale\": %.3f,\n", scale);
  std::fprintf(json, "  \"external_server\": %s,\n",
               connect != nullptr ? "true" : "false");
  std::fprintf(json, "  \"measured\": {\n");
  std::fprintf(json, "    \"rtt_seconds_p50\": %.6e,\n", m.rtt_p50);
  std::fprintf(json, "    \"rtt_seconds_p95\": %.6e,\n", m.rtt_p95);
  std::fprintf(json, "    ");
  m.rtt.JsonFields(json, "rtt");
  std::fprintf(json, ",\n");
  std::fprintf(json, "    \"fetch_bandwidth_bytes_per_sec\": %.6e,\n",
               m.fetch_bandwidth);
  std::fprintf(json, "    \"execute_per_item_singleton_seconds\": %.6e,\n",
               m.exec_singleton_per_item);
  std::fprintf(json, "    \"execute_per_item_batch_seconds\": %.6e,\n",
               m.exec_batch_per_item);
  std::fprintf(json, "    \"batching_win\": %.3f,\n", batch_win);
  std::fprintf(json, "    \"bytes_out\": %" PRId64 ",\n", cs.bytes_out);
  std::fprintf(json, "    \"bytes_in\": %" PRId64 "\n", cs.bytes_in);
  std::fprintf(json, "  },\n");
  std::fprintf(json, "  \"modeled\": {\n");
  std::fprintf(json, "    \"rtt_seconds\": %.6e,\n", model.execute_rtt);
  std::fprintf(json, "    \"bandwidth_bytes_per_sec\": %.6e,\n",
               model.bandwidth_bytes_per_sec);
  std::fprintf(json, "    \"execute_per_item_seconds\": %.6e\n",
               model.execute_per_item);
  std::fprintf(json, "  },\n");
  std::fprintf(json, "  \"zipf_over_tcp\": [\n");
  for (size_t i = 0; i < zipf_results.size(); ++i) {
    const ZipfResult& r = zipf_results[i];
    std::fprintf(json,
                 "    {\"threads\": %d, \"seconds\": %.4f, \"ops_per_sec\": "
                 "%.1f, \"hit_rate\": %.4f, \"delegated\": %" PRId64
                 ", \"delegation_batches\": %" PRId64 "}%s\n",
                 r.threads, r.seconds, r.ops_per_sec, r.hit_rate,
                 r.delegated, r.delegation_batches,
                 i + 1 < zipf_results.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"connection_scaling\": [\n");
  for (size_t i = 0; i < conn_rows.size(); ++i) {
    const ConnScaleResult& r = conn_rows[i];
    std::fprintf(json,
                 "    {\"connections\": %d, "
                 "\"ops_per_sec\": %.1f, \"server_threads\": %" PRId64
                 ", \"rss_bytes\": %" PRId64 ", ",
                 r.connections, r.ops_per_sec, r.server_threads, r.rss_bytes);
    r.latency.JsonFields(json, "rtt");
    std::fprintf(json, "}%s\n", i + 1 < conn_rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_rpc_transport.json\n");

  // The acceptance bar: batching over real sockets must beat singletons.
  if (m.exec_batch_per_item >= m.exec_singleton_per_item) {
    std::fprintf(stderr,
                 "FAIL: batched Execute not cheaper than singletons\n");
    return 1;
  }
  return 0;
}

}  // namespace bench
}  // namespace joinopt

int main(int argc, char** argv) { return joinopt::bench::Main(argc, argv); }
