// joinpath: the repository's end-to-end benchmark. It drives the preMap/map
// join API (ParallelInvoker::SubmitComp / FetchComp) against a live 3-node
// loopback ClusterDeployment and prints, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//   joinpath --workload <zipf_hit|uniform_rent|zipf_rw> --seed <n>
//            --seconds <s> --trace <0|1> [--inject-wrong-result <n>]
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced slices of the measured phase, reports the per-layer metrics
// from the traced slices, the attribution of tuple latency to layers, and
// the tracing overhead (traced against untraced throughput), and writes
// every span to .bench_out/<workload>.spans.tsv. README.md in this
// directory explains the workloads and the metric map.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "joinopt/cluster/deployment.h"
#include "joinopt/common/random.h"
#include "joinopt/common/sync.h"
#include "joinopt/engine/hedging_manager.h"
#include "layers.h"
#include "result_check.h"
#include "trace.h"

extern char** environ;

namespace perfbench {
namespace {

using joinopt::ClusterDeployment;
using joinopt::ClusterDeploymentOptions;
using joinopt::HedgingConfig;
using joinopt::HedgingManager;
using joinopt::Key;
using joinopt::ParallelInvoker;
using joinopt::ParallelInvokerOptions;
using joinopt::Rng;
using joinopt::UpdateSubscriber;
using joinopt::ZipfDistribution;

// ---- fixed configuration (identical for every workload) -----------------

constexpr int kDataNodes = 3;
constexpr int kRegionsPerNode = 4;
constexpr int kReplication = 2;
/// Read-key universe: 32x the invoker cache (both tiers), so zipf traffic
/// keeps a miss tail and uniform traffic rarely reuses a key.
constexpr uint64_t kUniverse = 1u << 20;
constexpr size_t kValueBytes = 100;
constexpr double kMemoryTierItems = 8192;
constexpr double kDiskTierItems = 24576;
constexpr int kInvokerThreads = 2;
/// CPUs the whole process runs on once the reference results are built.
constexpr int kCpus = 2;
/// Closed-loop window: the feeder submits kWindow tuples, then claims them
/// in order.
constexpr int kWindow = 64;
constexpr double kZipfZ = 0.99;
constexpr int64_t kWarmupTuples = 300'000;
/// Deployments built and warmed up per run; setup_s and warmup_s are
/// their medians.
constexpr int kSetups = 2;
/// Write-probe keys [kUniverse, kUniverse + kProbeKeys): never read, so the
/// probe measures the write path without invalidating read keys.
constexpr uint64_t kProbeKeys = 1024;
/// Slices of the measured phase in a traced run (untraced, traced, ...).
constexpr int kTraceSlices = 4;
/// Window length for the medians the end-to-end metrics report.
constexpr double kMeasureWindowS = 1.0;

struct Workload {
  const char* name;
  bool zipf;
  /// Open-loop writer rate (puts/s) and whether it writes the read keys
  /// (zipf, same distribution as the reads) or the probe keys.
  double write_rate;
  bool writes_read_keys;
};

constexpr Workload kWorkloads[] = {
    {"zipf_hit", true, 500, false},
    {"uniform_rent", false, 500, false},
    {"zipf_rw", true, 1000, true},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  int inject_wrong = 0;
};

double NowS() { return static_cast<double>(NowNs()) * 1e-9; }

/// Progress on stderr, stamped with seconds since the program started.
void Progress(const char* what) {
  static const double start = NowS();
  std::fprintf(stderr, "[%7.2f s] %s\n", NowS() - start, what);
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

/// Restricts the calling thread, and every thread it starts afterwards, to
/// the `n` highest-numbered CPUs it may run on; returns how many it got (0
/// on failure).
///
/// The join path is latency-bound: it keeps about 1.5 CPUs busy, and every
/// tuple crosses several thread wake-ups. On a VM, a wake-up that lands on
/// an idle vCPU waits for the hypervisor to run it, so with all 4 vCPUs in
/// play a few percent of host steal halved throughput for seconds at a
/// time. On one vCPU the run followed that vCPU's speed, which swung by
/// 20% with no steal at all. Two vCPUs stay busy enough that hand-offs
/// rarely wake an idle one, and the run averages over two vCPUs' speed.
int PinToCpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return 0;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  int got = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && got < n; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &chosen);
    ++got;
  }
  return got > 0 && sched_setaffinity(0, sizeof(chosen), &chosen) == 0 ? got
                                                                       : 0;
}

/// The CPUs the calling thread may run on, as "2,3".
std::string CpuList() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return "?";
  std::string out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (!out.empty()) out += ",";
    out += std::to_string(cpu);
  }
  return out;
}

/// Cumulative (steal, total) CPU ticks, from /proc/stat, of the CPUs this
/// process may run on. Steal is time a runnable vCPU waited for the
/// hypervisor: interference from outside the machine.
std::pair<double, double> StealTicks() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return {0, 0};
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  double steal = 0, total = 0;
  char line[512];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    int cpu = -1;
    unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    if (std::sscanf(line, "cpu%d %llu %llu %llu %llu %llu %llu %llu %llu",
                    &cpu, &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                    &v[7]) != 9 ||
        cpu < 0 || cpu >= CPU_SETSIZE || !CPU_ISSET(cpu, &allowed)) {
      continue;
    }
    for (unsigned long long x : v) total += static_cast<double>(x);
    steal += static_cast<double>(v[7]);
  }
  std::fclose(f);
  return {steal, total};
}

/// Steal share between two StealTicks() readings.
double StealShare(std::pair<double, double> from,
                  std::pair<double, double> to) {
  return to.second > from.second
             ? (to.first - from.first) / (to.second - from.second)
             : 0.0;
}

/// A "Name: <n> kB"-style field of /proc/self/status (0 when absent).
int64_t ProcStatus(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  int64_t value = 0;
  size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      value = std::strtoll(line + len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return value;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  size_t idx = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size()))) - 1;
  idx = std::min(idx, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return v[idx];
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// ---- the system under test ------------------------------------------------

/// One deployment + invoker + subscriber. Each member uses the ones
/// declared before it, so the reverse-order destruction tears down the
/// subscriber first and the deployment last.
struct Stack {
  std::shared_ptr<HedgingManager> hedging;
  std::unique_ptr<ClusterDeployment> deploy;
  std::unique_ptr<TimedService> timed;
  std::unique_ptr<ParallelInvoker> invoker;
  std::unique_ptr<UpdateSubscriber> subscriber;
};

/// Starts the deployment, seeds every read and probe key on all replicas
/// and builds the invoker; null on failure (reported on stderr).
std::unique_ptr<Stack> BuildStack(uint64_t seed,
                                  std::atomic<int>* corrupt_remaining) {
  auto stack = std::make_unique<Stack>();
  stack->hedging = std::make_shared<HedgingManager>(HedgingConfig::FromEnv());

  ClusterDeploymentOptions opts;
  opts.topology.num_data_nodes = kDataNodes;
  opts.topology.regions_per_node = kRegionsPerNode;
  opts.topology.replication_factor = kReplication;
  opts.start_controller = true;
  opts.start_anti_entropy = false;
  opts.client.balance_reads = true;
  opts.client.hedging = stack->hedging;
  opts.client.read_consistency = joinopt::ReadConsistency::kAny;
  stack->deploy = std::make_unique<ClusterDeployment>(
      RemoteUdf(corrupt_remaining), opts);
  joinopt::Status started = stack->deploy->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "deployment failed to start: %s\n",
                 started.ToString().c_str());
    return nullptr;
  }
  for (uint64_t k = 0; k < kUniverse + kProbeKeys; ++k) {
    auto version = stack->deploy->Seed(k, SeedValue(seed, k, kValueBytes));
    if (!version.ok()) {
      std::fprintf(stderr, "seeding key %" PRIu64 " failed: %s\n", k,
                   version.status().ToString().c_str());
      return nullptr;
    }
  }

  ParallelInvokerOptions iopts;
  iopts.num_threads = kInvokerThreads;
  iopts.decision.cache.memory_capacity_bytes = kMemoryTierItems * kValueBytes;
  iopts.decision.cache.disk_capacity_bytes = kDiskTierItems * kValueBytes;
  stack->timed = std::make_unique<TimedService>(&stack->deploy->client());
  stack->invoker = std::make_unique<ParallelInvoker>(stack->timed.get(),
                                                     LocalUdf(), iopts);
  stack->subscriber = stack->deploy->MakeSubscriber(stack->invoker.get());
  double deadline = NowS() + 10.0;
  while (!stack->subscriber->AllSnapshotsSeen()) {
    if (NowS() > deadline) {
      std::fprintf(stderr, "subscriber never saw every node's snapshot\n");
      return nullptr;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return stack;
}

// ---- open-loop writer -----------------------------------------------------

struct PutRecord {
  double scheduled = 0;  // when the put was due
  double sent = 0;
  double acked = 0;
  bool ok = false;
};

/// Sends replicated Puts at a fixed rate on its own thread. A late writer
/// sends immediately and never skips, so a stall shows as latency on every
/// put scheduled behind it.
class Writer {
 public:
  Writer(Stack* stack, ResultChecker* checker, const Workload& w,
         uint64_t seed)
      : stack_(stack), checker_(checker), workload_(w), seed_(seed),
        write_counts_(kUniverse + kProbeKeys, 0) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Writer() { Stop(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  /// Valid after Stop().
  const std::vector<PutRecord>& records() const { return records_; }

 private:
  void Loop() {
    Rng rng(seed_ ^ 0x3217e5ULL);
    ZipfDistribution zipf(kUniverse, kZipfZ);
    double interval = 1.0 / workload_.write_rate;
    double next = NowS();
    while (!stop_.load(std::memory_order_relaxed)) {
      double now = NowS();
      if (now < next) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::min(next - now, 5e-3)));
        continue;
      }
      Key key = workload_.writes_read_keys
                    ? zipf.Sample(rng)
                    : kUniverse + rng.NextBounded(kProbeKeys);
      uint64_t n = ++write_counts_[key];
      std::string value = WriteValue(seed_, key, n, kValueBytes);
      if (workload_.writes_read_keys) {
        checker_->RecordWrite(key, Digest(key, value));
      }
      PutRecord rec;
      rec.scheduled = next;
      int64_t sent_ns = NowNs();
      rec.sent = static_cast<double>(sent_ns) * 1e-9;
      auto version = stack_->deploy->client().Put(key, value);
      int64_t acked_ns = NowNs();
      rec.acked = static_cast<double>(acked_ns) * 1e-9;
      rec.ok = version.ok();
      if (Tracer::Get().on()) {
        Tracer::Get().Record(kPut, sent_ns, acked_ns, key, kNoTuple);
      }
      records_.push_back(rec);
      next += interval;
    }
  }

  Stack* stack_;
  ResultChecker* checker_;
  Workload workload_;
  uint64_t seed_;
  std::vector<uint32_t> write_counts_;  // writer thread only
  std::vector<PutRecord> records_;      // writer thread until Stop()
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---- closed-loop feeder ---------------------------------------------------

/// One kMeasureWindowS slice of a measured phase. End-to-end figures are
/// medians over windows, so a few seconds of host interference move them
/// less than a whole-run mean.
struct Window {
  double start = 0, end = 0;  // seconds, steady clock
  int64_t tuples = 0;
  double p50_us = 0, p99_us = 0;  // SubmitComp call -> FetchComp return
  double steal = 0;  // share of CPU time the hypervisor withheld
  double cpu_us = 0;  // process CPU per tuple
  double hit = 0, delegated = 0, fetched = 0;  // per tuple, from stats()
};

struct FeedResult {
  int64_t tuples = 0;
  int64_t failed = 0;
  int64_t mismatches = 0;
  double seconds = 0;
  std::vector<Window> windows;  // only when asked for
};

/// The closed loop on the main thread: submits kWindow tuples, claims them
/// in order and checks every result.
class Feeder {
 public:
  Feeder(Stack* stack, ResultChecker* checker, const Workload& w,
         uint64_t seed)
      : stack_(stack), checker_(checker), workload_(w),
        rng_(seed ^ 0xd21e7ULL), zipf_(kUniverse, kZipfZ) {}

  /// Runs submit/claim rounds until `max_tuples` tuples or `seconds`
  /// elapse; with `windows`, also records per-window throughput and
  /// latency.
  FeedResult Run(int64_t max_tuples, double seconds, bool windows) {
    FeedResult out;
    double cpu0 = CpuSeconds();
    double t0 = NowS();
    double deadline = t0 + seconds;
    std::vector<double> latency_us;
    Window win;
    win.start = t0;
    auto steal0 = StealTicks();
    double wcpu0 = cpu0;
    joinopt::ParallelInvokerStats inv0 = stack_->invoker->stats();
    Key keys[kWindow];
    uint32_t ids[kWindow];
    std::string params[kWindow];
    int64_t submit_ns[kWindow];
    while (out.tuples < max_tuples && NowS() < deadline) {
      for (int j = 0; j < kWindow; ++j) {
        keys[j] = workload_.zipf ? zipf_.Sample(rng_)
                                 : rng_.NextBounded(kUniverse);
        ids[j] = next_tuple_++;
        params[j] = std::to_string(ids[j]);
        submit_ns[j] = NowNs();
        ScopedSpan span(kSubmit, keys[j], ids[j]);
        stack_->invoker->SubmitComp(keys[j], params[j]);
      }
      for (int j = 0; j < kWindow; ++j) {
        joinopt::StatusOr<std::string> result = [&] {
          ScopedSpan span(kFetchComp, keys[j], ids[j]);
          return stack_->invoker->FetchComp(keys[j], params[j]);
        }();
        int64_t done_ns = NowNs();
        ++out.tuples;
        if (!result.ok()) {
          ++out.failed;
          if (out.failed <= 5) {
            std::fprintf(stderr, "tuple %u key %" PRIu64 " failed: %s\n",
                         ids[j], keys[j],
                         result.status().ToString().c_str());
          }
        } else if (!checker_->Matches(keys[j], params[j], *result)) {
          ++out.mismatches;
          if (out.mismatches <= 5) {
            std::fprintf(stderr,
                         "MISMATCH tuple %u key %" PRIu64 ": got %s\n",
                         ids[j], keys[j], result->c_str());
          }
        }
        if (windows) {
          latency_us.push_back(static_cast<double>(done_ns - submit_ns[j]) *
                               1e-3);
        }
      }
      SampleThreads();
      double now = NowS();
      bool last = out.tuples >= max_tuples || now >= deadline;
      if (windows && (now - win.start >= kMeasureWindowS || last)) {
        win.end = now;
        win.tuples = static_cast<int64_t>(latency_us.size());
        win.p50_us = Quantile(latency_us, 0.50);
        win.p99_us = Quantile(latency_us, 0.99);
        auto steal1 = StealTicks();
        win.steal = StealShare(steal0, steal1);
        double wcpu1 = CpuSeconds();
        joinopt::ParallelInvokerStats inv1 = stack_->invoker->stats();
        double n = static_cast<double>(std::max<int64_t>(win.tuples, 1));
        win.cpu_us = (wcpu1 - wcpu0) * 1e6 / n;
        win.hit = static_cast<double>(inv1.served_from_cache -
                                      inv0.served_from_cache) / n;
        win.delegated =
            static_cast<double>(inv1.delegated - inv0.delegated) / n;
        win.fetched = static_cast<double>(inv1.fetched_then_computed -
                                          inv0.fetched_then_computed) / n;
        wcpu0 = wcpu1;
        inv0 = inv1;
        // A short tail window would weigh as much as a full one.
        if (win.end - win.start >= 0.5 * kMeasureWindowS) {
          out.windows.push_back(win);
        }
        latency_us.clear();
        win = Window();
        win.start = now;
        steal0 = steal1;
      }
    }
    out.seconds = NowS() - t0;
    return out;
  }

  int64_t threads_peak() const { return threads_peak_; }

 private:
  void SampleThreads() {
    double now = NowS();
    if (now - last_thread_sample_ < 0.1) return;
    last_thread_sample_ = now;
    threads_peak_ = std::max(threads_peak_, ProcStatus("Threads"));
  }

  Stack* stack_;
  ResultChecker* checker_;
  Workload workload_;
  Rng rng_;
  ZipfDistribution zipf_;
  uint32_t next_tuple_ = 0;
  double last_thread_sample_ = 0;
  int64_t threads_peak_ = 0;
};

/// Marks the third of `windows` (rounded up) with the least steal; ties go
/// to the earlier window.
///
/// Host steal only ever slows the program, and on a shared VM it comes in
/// episodes of 5-20 s at 10-30%, during which throughput falls 2-3x. The
/// end-to-end metrics are medians over the calmest third of a run's
/// windows, so episodes that cover less than two thirds of the run do not
/// move them, while anything the program itself does shows in every
/// window. Every window is still printed, and every tuple is checked.
std::vector<bool> CalmestWindows(const std::vector<Window>& windows) {
  std::vector<size_t> order(windows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return windows[a].steal < windows[b].steal;
  });
  std::vector<bool> calm(windows.size(), false);
  for (size_t i = 0; i < (windows.size() + 2) / 3; ++i) calm[order[i]] = true;
  return calm;
}

// ---- counters read from every layer's stats() ----------------------------

using Counters = std::map<std::string, double>;

Counters ReadCounters(Stack& s) {
  Counters c;
  joinopt::ParallelInvokerStats inv = s.invoker->stats();
  c["inv.submitted"] = static_cast<double>(inv.submitted);
  c["inv.served_from_cache"] = static_cast<double>(inv.served_from_cache);
  c["inv.fetched_then_computed"] =
      static_cast<double>(inv.fetched_then_computed);
  c["inv.delegated"] = static_cast<double>(inv.delegated);
  c["inv.coalesced_fetches"] = static_cast<double>(inv.coalesced_fetches);
  c["inv.held_first_requests"] =
      static_cast<double>(inv.held_first_requests);
  c["inv.on_demand_runs"] = static_cast<double>(inv.on_demand_runs);
  c["inv.delegation_batches"] = static_cast<double>(inv.delegation_batches);
  c["inv.transport_errors"] = static_cast<double>(inv.transport_errors);

  joinopt::DecisionEngineStats eng = s.invoker->MergedEngineStats();
  c["eng.hits"] =
      static_cast<double>(eng.local_memory_hits + eng.local_disk_hits);
  c["eng.buys"] = static_cast<double>(eng.fetch_memory + eng.fetch_disk);
  c["eng.rents"] = static_cast<double>(eng.compute_requests);
  c["eng.first_requests"] = static_cast<double>(eng.first_requests);
  c["eng.update_invalidations"] =
      static_cast<double>(eng.update_invalidations);

  joinopt::TieredCacheStats cache = s.invoker->MergedCacheStats();
  c["cache.hits"] = static_cast<double>(cache.memory_hits + cache.disk_hits);
  c["cache.misses"] = static_cast<double>(cache.misses);
  c["cache.discards"] = static_cast<double>(cache.discards);
  c["cache.admission_rejections"] =
      static_cast<double>(cache.admission_rejections);
  c["cache.invalidations"] = static_cast<double>(cache.invalidations);

  joinopt::ClusterClientService& client = s.deploy->client();
  joinopt::ClusterClientStats cl = client.stats();
  c["client.failovers"] = static_cast<double>(cl.node_failovers);
  c["client.batches_split"] = static_cast<double>(cl.batches_split);
  double conns = 0;
  for (int i = 0; i < kDataNodes; ++i) {
    conns += static_cast<double>(
        client.node_client(static_cast<joinopt::NodeId>(i))
            .stats()
            .connections_opened);
  }
  c["client.connections_opened"] = conns;

  double requests = 0, bytes_in = 0, bytes_out = 0, server_threads = 0;
  double gets = 0, puts = 0, compactions = 0, rewritten = 0;
  double live_bytes = 0, total_bytes = 0;
  for (int i = 0; i < kDataNodes; ++i) {
    joinopt::ClusterDataNode& node = s.deploy->data_node(i);
    if (const joinopt::RpcServer* server = node.server()) {
      joinopt::RpcServerStats st = server->stats();
      requests += static_cast<double>(st.requests);
      bytes_in += static_cast<double>(st.bytes_in);
      bytes_out += static_cast<double>(st.bytes_out);
      server_threads += static_cast<double>(st.server_threads);
    }
    joinopt::LogStoreStats store = node.service().StoreStats();
    gets += static_cast<double>(store.gets);
    puts += static_cast<double>(store.puts);
    compactions += static_cast<double>(store.compactions);
    rewritten += static_cast<double>(store.records_rewritten);
    live_bytes += static_cast<double>(store.live_bytes);
    total_bytes += static_cast<double>(store.total_bytes);
  }
  c["server.requests"] = requests;
  c["server.bytes_in"] = bytes_in;
  c["server.bytes_out"] = bytes_out;
  c["server.threads"] = server_threads;
  c["store.gets"] = gets;
  c["store.puts"] = puts;
  c["store.compactions"] = compactions;
  c["store.records_rewritten"] = rewritten;
  c["store.live_bytes"] = live_bytes;
  c["store.total_bytes"] = total_bytes;

  joinopt::HedgingStats hedge = s.hedging->stats();
  c["hedge.primaries"] = static_cast<double>(hedge.primaries);
  c["hedge.granted"] = static_cast<double>(hedge.hedges_granted);
  c["hedge.denied"] = static_cast<double>(hedge.hedges_denied);

  joinopt::UpdateSubscriberStats sub = s.subscriber->stats();
  c["sub.notifications"] = static_cast<double>(sub.notifications);
  c["sub.gaps_detected"] = static_cast<double>(sub.gaps_detected);
  c["sub.resyncs"] = static_cast<double>(sub.resyncs);
  return c;
}

void Accumulate(Counters& sum, const Counters& before,
                const Counters& after) {
  for (const auto& [name, value] : after) {
    sum[name] += value - before.at(name);
  }
}

// ---- attribution of tuple latency to layers ------------------------------

struct Attribution {
  int64_t tuples = 0;
  double tuple_us = 0;      // sum of SubmitComp call -> FetchComp return
  double wait_us = 0;       // sum of FetchComp call -> return (feeder wait)
  double cluster_us = 0;    // union of cluster-verb spans in the wait
  double udf_local_us = 0;  // local UDF time not under a cluster span
  double remote_udf_us = 0;  // server UDF inside the tuple's batches
  std::map<std::string, double> verb_us;  // clipped time per verb
};

double UnionLength(std::vector<std::pair<int64_t, int64_t>>& iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0;
  int64_t cur_s = 0, cur_e = -1;
  for (auto [s, e] : iv) {
    if (s > cur_e) {
      if (cur_e > cur_s) total += static_cast<double>(cur_e - cur_s);
      cur_s = s;
      cur_e = e;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (cur_e > cur_s) total += static_cast<double>(cur_e - cur_s);
  return total;
}

/// For each traced tuple, the feeder's wait in FetchComp = cluster verbs
/// (spans carrying its tuple id, or its key when the verb carries no
/// params) + local UDF + the rest (engine self time and queueing). Spans
/// are clipped to the wait; overlaps count once.
Attribution Attribute(const std::vector<Span>& spans) {
  struct TupleSpan {
    int64_t submit = -1, start = -1, end = -1;
    Key key = 0;
  };
  std::unordered_map<uint32_t, TupleSpan> tuples;
  std::unordered_map<uint32_t, std::vector<const Span*>> by_tuple;
  std::unordered_map<Key, std::vector<const Span*>> by_key;
  for (const Span& s : spans) {
    switch (s.name) {
      case kSubmit:
        tuples[s.tuple].submit = s.start_ns;
        break;
      case kFetchComp:
        tuples[s.tuple].start = s.start_ns;
        tuples[s.tuple].end = s.end_ns;
        tuples[s.tuple].key = s.key;
        break;
      case kBatchItem:
      case kExecute:
      case kUdfLocal:
      case kUdfRemote:
        by_tuple[s.tuple].push_back(&s);
        break;
      case kFetch:
      case kStat:
      case kOwner:
        by_key[s.key].push_back(&s);
        break;
      default:
        break;
    }
  }
  int64_t longest = 0;
  for (auto& [key, list] : by_key) {
    std::sort(list.begin(), list.end(), [](const Span* a, const Span* b) {
      return a->start_ns < b->start_ns;
    });
    for (const Span* s : list) {
      longest = std::max(longest, s->end_ns - s->start_ns);
    }
  }

  Attribution out;
  std::vector<std::pair<int64_t, int64_t>> cluster_iv, all_iv;
  for (const auto& [id, t] : tuples) {
    if (t.submit < 0 || t.start < 0) continue;  // one side not traced
    cluster_iv.clear();
    all_iv.clear();
    auto clip = [&](const Span* s, bool cluster) {
      int64_t a = std::max(s->start_ns, t.start);
      int64_t b = std::min(s->end_ns, t.end);
      if (b <= a) return;
      if (cluster) cluster_iv.emplace_back(a, b);
      all_iv.emplace_back(a, b);
      out.verb_us[kNames[s->name]] += static_cast<double>(b - a) * 1e-3;
    };
    if (auto it = by_tuple.find(id); it != by_tuple.end()) {
      for (const Span* s : it->second) {
        if (s->name == kUdfRemote) {
          int64_t a = std::max(s->start_ns, t.start);
          int64_t b = std::min(s->end_ns, t.end);
          if (b > a) out.remote_udf_us += static_cast<double>(b - a) * 1e-3;
          continue;
        }
        clip(s, s->name != kUdfLocal);
      }
    }
    if (auto it = by_key.find(t.key); it != by_key.end()) {
      const auto& list = it->second;
      auto first = std::lower_bound(
          list.begin(), list.end(), t.start - longest,
          [](const Span* s, int64_t v) { return s->start_ns < v; });
      for (auto sp = first; sp != list.end() && (*sp)->start_ns < t.end;
           ++sp) {
        clip(*sp, true);
      }
    }
    double cluster = UnionLength(cluster_iv);
    double attributed = UnionLength(all_iv);
    ++out.tuples;
    out.tuple_us += static_cast<double>(t.end - t.submit) * 1e-3;
    out.wait_us += static_cast<double>(t.end - t.start) * 1e-3;
    out.cluster_us += cluster * 1e-3;
    out.udf_local_us += (attributed - cluster) * 1e-3;
  }
  return out;
}

// ---- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

const char* BackendName(joinopt::RpcBackend b) {
  switch (b) {
    case joinopt::RpcBackend::kThreadPerConnection:
      return "threaded";
    case joinopt::RpcBackend::kReactor:
      return "reactor";
    default:
      return "unresolved";
  }
}

/// The run context: host, build, the backend that served, the environment
/// overrides in effect, the seed and every workload parameter.
void PrintContext(Stack& s, const Args& a) {
  std::string backends;
  for (int i = 0; i < kDataNodes; ++i) {
    const joinopt::RpcServer* server = s.deploy->data_node(i).server();
    if (i > 0) backends += ",";
    backends += server ? BackendName(server->active_backend()) : "stopped";
  }
  std::string env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "JOINOPT_RPC_BACKEND=", 20) == 0 ||
        std::strncmp(*e, "JOINOPT_HEDGE_", 14) == 0) {
      if (!env.empty()) env += ";";
      env += *e;
    }
  }
  std::printf(
      "# context {\"cores\": %u, \"cpus_used\": %s, \"compiler\": %s, "
      "\"build_type\": %s, "
      "\"lock_order_check\": %s, \"backend\": %s, \"env\": %s, "
      "\"workload\": %s, \"seed\": %" PRIu64 ", \"seconds\": %g, "
      "\"trace\": %d, \"universe\": %" PRIu64 ", \"value_bytes\": %zu, "
      "\"zipf_z\": %g, \"memory_tier_items\": %g, \"disk_tier_items\": %g, "
      "\"memory_tier_bytes\": %g, \"disk_tier_bytes\": %g, "
      "\"window\": %d, \"invoker_threads\": %d, \"invoker_shards\": %d, "
      "\"warmup_tuples\": %" PRId64 ", \"put_rate\": %g, "
      "\"put_keys\": %s, \"probe_keys\": %" PRIu64 ", \"nodes\": %d, "
      "\"regions_per_node\": %d, \"replication\": %d, \"udf_rounds\": %d}\n",
      std::thread::hardware_concurrency(), JsonString(CpuList()).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      joinopt::SyncChecksEnabled() ? "true" : "false",
      JsonString(backends).c_str(), JsonString(env).c_str(),
      JsonString(a.workload->name).c_str(), a.seed, a.seconds,
      a.trace ? 1 : 0, kUniverse, kValueBytes, kZipfZ, kMemoryTierItems,
      kDiskTierItems, kMemoryTierItems * kValueBytes,
      kDiskTierItems * kValueBytes, kWindow, kInvokerThreads,
      s.invoker->num_shards(), kWarmupTuples, a.workload->write_rate,
      a.workload->writes_read_keys ? "\"read keys (zipf)\""
                                   : "\"probe keys (uniform)\"",
      kProbeKeys, kDataNodes, kRegionsPerNode, kReplication, kUdfRounds);
}

struct PutSummary {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> latency_us;  // scheduled -> acked
  std::vector<double> late_ms;     // scheduled -> sent
};

/// Puts scheduled inside any of `windows` ([start, end) in seconds).
PutSummary SummarizePuts(
    const std::vector<PutRecord>& records,
    const std::vector<std::pair<double, double>>& windows) {
  PutSummary out;
  for (const PutRecord& r : records) {
    bool inside = false;
    for (auto [a, b] : windows) inside |= r.scheduled >= a && r.scheduled < b;
    if (!inside) continue;
    ++out.attempted;
    if (!r.ok) {
      ++out.failed;
      continue;
    }
    out.latency_us.push_back((r.acked - r.scheduled) * 1e6);
    out.late_ms.push_back((r.sent - r.scheduled) * 1e3);
  }
  return out;
}

// ---- main ------------------------------------------------------------------

int Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: joinpath --workload "
               "<zipf_hit|uniform_rent|zipf_rw> --seed <n> --seconds <s> "
               "--trace <0|1> [--inject-wrong-result <n>]\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) args.workload = &w;
      }
      if (args.workload == nullptr) return Usage("unknown workload");
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--inject-wrong-result") {
      args.inject_wrong = std::atoi(value);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (args.workload == nullptr || !have_seed || !(args.seconds > 0)) {
    return Usage("--workload, --seed and --seconds are required");
  }
  const Workload& w = *args.workload;
  std::printf("# joinpath workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              w.name, args.seed, args.seconds, args.trace ? 1 : 0);

  Progress("building reference results");
  ResultChecker checker(args.seed, kUniverse, kValueBytes,
                        static_cast<int>(std::thread::hardware_concurrency()));
  std::atomic<int> corrupt_remaining{0};
  if (PinToCpus(kCpus) == 0) {
    std::fprintf(stderr, "could not restrict the benchmark's CPUs\n");
    return 1;
  }

  // kSetups fresh deployments, each set up and then warmed up with a fixed
  // tuple count through its cold cache while its writer runs. setup_s and
  // warmup_s are the medians; the last deployment serves the run.
  std::vector<double> setup_s, warmup_s, warmup_steal;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<Writer> writer;
  std::unique_ptr<Feeder> feeder;
  int64_t attempted = 0, failed = 0, mismatches = 0;
  for (int i = 0; i < kSetups; ++i) {
    feeder.reset();
    writer.reset();
    stack.reset();
    // Hand the torn-down deployment's memory back to the kernel, so every
    // deployment starts from the same resident set and rss_peak_mb does not
    // depend on how the allocator reused the last one's pages.
    malloc_trim(0);
    Progress("setting up");
    double t0 = NowS();
    stack = BuildStack(args.seed, &corrupt_remaining);
    if (!stack) return 1;
    setup_s.push_back(NowS() - t0);
    writer = std::make_unique<Writer>(stack.get(), &checker, w, args.seed);
    feeder = std::make_unique<Feeder>(stack.get(), &checker, w, args.seed);
    Progress("warming up");
    auto steal0 = StealTicks();
    FeedResult warm = feeder->Run(kWarmupTuples, 1e9, false);
    warmup_s.push_back(warm.seconds);
    warmup_steal.push_back(StealShare(steal0, StealTicks()));
    attempted += warm.tuples;
    failed += warm.failed;
    mismatches += warm.mismatches;
  }
  PrintContext(*stack, args);
  corrupt_remaining.store(args.inject_wrong);

  Progress("measuring");
  std::vector<Metric> metrics;

  if (!args.trace) {
    double t0 = NowS();
    FeedResult run = feeder->Run(INT64_MAX, args.seconds, true);
    double t1 = NowS();
    writer->Stop();
    stack->invoker->Barrier();
    PutSummary puts = SummarizePuts(writer->records(), {{t0, t1}});
    attempted += run.tuples + puts.attempted;
    failed += run.failed + puts.failed;
    mismatches += run.mismatches;
    int64_t all_attempted = attempted;
    int64_t all_failed = failed + mismatches;

    // Per-window figures; the metrics are medians over the calmest third.
    std::vector<bool> calm = CalmestWindows(run.windows);
    std::vector<double> tps, p50, p99, put_p50, put_p99, cpu_us, steal;
    std::printf("# window  start_s  tuples/s  p50_us  p99_us  puts  "
                "put_p50_us  put_p99_us  steal  cpu_us  hit  deleg  fetch  "
                "calm\n");
    for (size_t i = 0; i < run.windows.size(); ++i) {
      const Window& win = run.windows[i];
      PutSummary wp = SummarizePuts(writer->records(), {{win.start, win.end}});
      double win_tps =
          static_cast<double>(win.tuples) / (win.end - win.start);
      double win_put_p50 = Quantile(wp.latency_us, 0.50);
      double win_put_p99 = Quantile(wp.latency_us, 0.99);
      steal.push_back(win.steal);
      std::printf("# %6zu %8.2f %9.0f %7.0f %7.0f %5zu %11.0f %11.0f %6.3f "
                  "%7.2f %5.3f %5.3f %5.3f  %s\n",
                  i + 1, win.start - t0, win_tps, win.p50_us, win.p99_us,
                  wp.latency_us.size(), win_put_p50, win_put_p99, win.steal,
                  win.cpu_us, win.hit, win.delegated, win.fetched,
                  calm[i] ? "*" : "");
      if (!calm[i]) continue;
      tps.push_back(win_tps);
      p50.push_back(win.p50_us);
      p99.push_back(win.p99_us);
      put_p50.push_back(win_put_p50);
      put_p99.push_back(win_put_p99);
      cpu_us.push_back(win.cpu_us);
    }
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"tuples_per_s", Median(tps), "1/s"},
        {"tuple_p50_us", Median(p50), "us"},
        {"put_p50_us", Median(put_p50), "us"},
        {"cpu_us_per_tuple", Median(cpu_us), "us"},
        {"rss_peak_mb",
         static_cast<double>(ProcStatus("VmHWM")) / 1024.0, "MB"},
        {"ok_ratio",
         1.0 - static_cast<double>(all_failed) /
                   static_cast<double>(std::max<int64_t>(all_attempted, 1)),
         "ratio"},
    };
    std::printf("# measured %" PRId64 " tuples and %" PRId64
                " puts in %.3f s (%zu windows of %.0f s, median steal "
                "%.3f); setup runs:",
                run.tuples, puts.attempted, run.seconds, run.windows.size(),
                kMeasureWindowS, Median(steal));
    for (double s : setup_s) std::printf(" %.3f", s);
    std::printf(" s; warm-up runs:");
    for (size_t i = 0; i < warmup_s.size(); ++i) {
      std::printf(" %.3f s (steal %.3f)", warmup_s[i], warmup_steal[i]);
    }
    std::printf("\n");
    for (const Metric& m : metrics) {
      std::printf("# %-18s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    // Reported, not gated: on a shared VM these spread past any bound the
    // benchmark may set over runs of the same code (see README.md).
    std::printf("# %-18s %14.4f s (not in BENCHMARK.json)\n", "warmup_s",
                Median(warmup_s));
    std::printf("# %-18s %14.4f us (not in BENCHMARK.json)\n",
                "tuple_p99_us", Median(p99));
    std::printf("# %-18s %14.4f us (not in BENCHMARK.json)\n", "put_p99_us",
                Median(put_p99));
    std::printf("# %-18s %14.6f ratio (= 1 - ok_ratio)\n", "failed_ratio",
                static_cast<double>(all_failed) /
                    static_cast<double>(std::max<int64_t>(all_attempted, 1)));
  } else {
    // Alternate untraced and traced slices so both see the same cache and
    // writer state; per-layer counters are summed over traced slices only.
    Tracer& tracer = Tracer::Get();
    double slice = args.seconds / kTraceSlices;
    double measure_start = NowS();
    Counters traced;
    int64_t untraced_tuples = 0, traced_tuples = 0;
    double untraced_s = 0, traced_s = 0;
    std::vector<std::pair<double, double>> traced_windows;
    for (int i = 0; i < kTraceSlices; ++i) {
      bool on = i % 2 == 1;
      Counters before = ReadCounters(*stack);
      tracer.set_on(on);
      double t0 = NowS();
      FeedResult run = feeder->Run(INT64_MAX, slice, false);
      double t1 = NowS();
      tracer.set_on(false);
      Counters after = ReadCounters(*stack);
      attempted += run.tuples;
      failed += run.failed;
      mismatches += run.mismatches;
      if (on) {
        Accumulate(traced, before, after);
        traced_tuples += run.tuples;
        traced_s += run.seconds;
        traced_windows.emplace_back(t0, t1);
      } else {
        untraced_tuples += run.tuples;
        untraced_s += run.seconds;
      }
    }
    writer->Stop();
    stack->invoker->Barrier();
    PutSummary all_puts = SummarizePuts(
        writer->records(), {{measure_start, NowS()}});
    attempted += all_puts.attempted;
    failed += all_puts.failed;
    PutSummary puts = SummarizePuts(writer->records(), traced_windows);
    Counters end = ReadCounters(*stack);

    auto hists = tracer.MergedHists();
    std::vector<Span> spans = tracer.AllSpans();
    Attribution attr = Attribute(spans);
    double n = static_cast<double>(std::max<int64_t>(traced_tuples, 1));
    double kt = n / 1000.0;
    auto per_kt = [&](const char* c) { return traced[c] / kt; };
    auto calls = [&](SpanName name) {
      return static_cast<double>(hists[name].stats().count()) / kt;
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    double decisions =
        traced["eng.hits"] + traced["eng.buys"] + traced["eng.rents"];
    double tps_untraced =
        ratio(static_cast<double>(untraced_tuples), untraced_s);
    double tps_traced = ratio(static_cast<double>(traced_tuples), traced_s);
    double at = static_cast<double>(std::max<int64_t>(attr.tuples, 1));
    metrics = {
        {"engine.submit_block_us", hists[kSubmit].stats().sum() / n, "us"},
        {"engine.fetchcomp_wait_p50_us", hists[kFetchComp].Quantile(0.5),
         "us"},
        {"engine.hit_ratio", ratio(traced["inv.served_from_cache"], n),
         "ratio"},
        {"engine.delegated_ratio", ratio(traced["inv.delegated"], n), "ratio"},
        {"engine.fetched_ratio", ratio(traced["inv.fetched_then_computed"], n),
         "ratio"},
        {"engine.items_per_batch",
         ratio(traced["inv.delegated"], traced["inv.delegation_batches"]),
         "items"},
        {"engine.coalesced_fetches", per_kt("inv.coalesced_fetches"),
         "1/ktuple"},
        {"engine.held_first_requests", per_kt("inv.held_first_requests"),
         "1/ktuple"},
        {"engine.on_demand_runs", per_kt("inv.on_demand_runs"), "1/ktuple"},
        {"engine.transport_errors", per_kt("inv.transport_errors"),
         "1/ktuple"},
        {"skirental.buy_ratio", ratio(traced["eng.buys"], decisions), "ratio"},
        {"skirental.rent_ratio", ratio(traced["eng.rents"], decisions),
         "ratio"},
        {"skirental.first_requests", per_kt("eng.first_requests"), "1/ktuple"},
        {"skirental.update_invalidations", per_kt("eng.update_invalidations"),
         "1/ktuple"},
        {"skirental.tc_model_us",
         stack->invoker->MergedLocalComputeSeconds() * 1e6, "us"},
        {"cache.hit_ratio",
         ratio(traced["cache.hits"],
               traced["cache.hits"] + traced["cache.misses"]),
         "ratio"},
        {"cache.evictions_per_ktuple", per_kt("cache.discards"), "1/ktuple"},
        {"cache.admission_rejections", per_kt("cache.admission_rejections"),
         "1/ktuple"},
        {"cache.invalidations", per_kt("cache.invalidations"), "1/ktuple"},
        {"cluster.fetch_calls", calls(kFetch), "1/ktuple"},
        {"cluster.fetch_p50_us", hists[kFetch].Quantile(0.5), "us"},
        {"cluster.fetch_p99_us", hists[kFetch].Quantile(0.99), "us"},
        {"cluster.batch_calls", calls(kBatch), "1/ktuple"},
        {"cluster.batch_p50_us", hists[kBatch].Quantile(0.5), "us"},
        {"cluster.batch_p99_us", hists[kBatch].Quantile(0.99), "us"},
        {"cluster.stat_calls", calls(kStat), "1/ktuple"},
        {"cluster.stat_p50_us", hists[kStat].Quantile(0.5), "us"},
        {"cluster.owner_calls", calls(kOwner), "1/ktuple"},
        {"cluster.owner_us", hists[kOwner].stats().mean(), "us"},
        {"cluster.put_us", hists[kPut].Quantile(0.5), "us"},
        {"cluster.failovers", per_kt("client.failovers"), "1/ktuple"},
        {"cluster.batches_split", per_kt("client.batches_split"), "1/ktuple"},
        {"net.requests_per_tuple", ratio(traced["server.requests"], n),
         "1/tuple"},
        {"net.bytes_in_per_tuple", ratio(traced["server.bytes_in"], n), "B"},
        {"net.bytes_out_per_tuple", ratio(traced["server.bytes_out"], n), "B"},
        {"net.connections_opened", end["client.connections_opened"], "count"},
        {"net.server_threads", end["server.threads"], "count"},
        {"proc.threads_peak", static_cast<double>(feeder->threads_peak()),
         "count"},
        {"net.hedge_rate",
         ratio(traced["hedge.granted"], traced["hedge.primaries"]),
         "ratio"},
        {"net.hedges_denied", per_kt("hedge.denied"), "1/ktuple"},
        {"store.gets_per_tuple", ratio(traced["store.gets"], n), "1/tuple"},
        {"store.puts", ratio(traced["store.puts"], traced_s), "1/s"},
        {"store.compactions", ratio(traced["store.compactions"], traced_s),
         "1/s"},
        {"store.records_rewritten",
         ratio(traced["store.records_rewritten"], traced_s), "1/s"},
        {"store.space_amp",
         ratio(end["store.total_bytes"], end["store.live_bytes"]), "ratio"},
        {"udf.local_calls", calls(kUdfLocal), "1/ktuple"},
        {"udf.local_us", hists[kUdfLocal].stats().mean(), "us"},
        {"udf.remote_calls", calls(kUdfRemote), "1/ktuple"},
        {"udf.remote_us", hists[kUdfRemote].stats().mean(), "us"},
        {"subscriber.notifications",
         ratio(traced["sub.notifications"], traced_s), "1/s"},
        {"subscriber.gaps_detected", traced["sub.gaps_detected"], "count"},
        {"subscriber.resyncs", traced["sub.resyncs"], "count"},
        {"bench.writer_late_p99_ms", Quantile(puts.late_ms, 0.99), "ms"},
        {"attr.tuple_us", attr.tuple_us / at, "us"},
        {"attr.wait_us", attr.wait_us / at, "us"},
        {"attr.cluster_us", attr.cluster_us / at, "us"},
        {"attr.udf_local_us", attr.udf_local_us / at, "us"},
        {"attr.remainder_us",
         (attr.wait_us - attr.cluster_us - attr.udf_local_us) / at, "us"},
        {"attr.remote_udf_us", attr.remote_udf_us / at, "us"},
        {"trace.tps_ratio", ratio(tps_traced, tps_untraced), "ratio"},
        {"trace.spans_dropped", static_cast<double>(tracer.dropped()),
         "count"},
    };

    std::printf("# per-layer metrics (traced slices: %" PRId64
                " tuples in %.3f s)\n",
                traced_tuples, traced_s);
    for (const Metric& m : metrics) {
      std::printf("# %-32s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf(
        "# attribution over %" PRId64 " traced tuples (mean us per tuple)\n"
        "#   tuple latency (SubmitComp call -> FetchComp return) %10.2f\n"
        "#   feeder wait (FetchComp call -> return)              %10.2f\n"
        "#   = cluster verbs                                     %10.2f"
        "   (sk+sv)/netBw: cluster.fetch_p50_us=%.1f "
        "net.bytes_in/out_per_tuple=%.0f/%.0f\n"
        "#     of which server UDF (tc_j)                        %10.2f"
        "   tc_j: udf.remote_us=%.2f\n"
        "#   + local UDF (tc_i)                                  %10.2f"
        "   tc: udf.local_us=%.2f beside skirental.tc_model_us=%.2f\n"
        "#   + unattributed (engine self time + queueing)        %10.2f\n"
        "#   tDisk: store.gets_per_tuple=%.3f store.puts=%.1f/s "
        "store.compactions=%.3f/s (LogStore in memory)\n",
        attr.tuples, attr.tuple_us / at, attr.wait_us / at,
        attr.cluster_us / at,
        hists[kFetch].Quantile(0.5), ratio(traced["server.bytes_in"], n),
        ratio(traced["server.bytes_out"], n), attr.remote_udf_us / at,
        hists[kUdfRemote].stats().mean(), attr.udf_local_us / at,
        hists[kUdfLocal].stats().mean(),
        stack->invoker->MergedLocalComputeSeconds() * 1e6,
        (attr.wait_us - attr.cluster_us - attr.udf_local_us) / at,
        ratio(traced["store.gets"], n), ratio(traced["store.puts"], traced_s),
        ratio(traced["store.compactions"], traced_s));
    for (const auto& [verb, us] : attr.verb_us) {
      std::printf("#     clipped %-20s %10.2f us/tuple\n", verb.c_str(),
                  us / at);
    }
    std::printf("# tracing overhead: untraced %.0f tuples/s, traced %.0f "
                "tuples/s (ratio %.3f); %zu spans kept, %lld dropped, "
                "%d threads\n",
                tps_untraced, tps_traced, ratio(tps_traced, tps_untraced),
                spans.size(), static_cast<long long>(tracer.dropped()),
                tracer.threads());
    std::error_code ec;
    std::filesystem::create_directories(".bench_out", ec);
    std::string path = std::string(".bench_out/") + w.name + ".spans.tsv";
    if (!Tracer::WriteTsv(spans, path)) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
    } else {
      std::printf("# spans written to %s\n", path.c_str());
    }
  }

  Progress("reporting");
  if (mismatches > 0) {
    std::printf("# %" PRId64 " results did not match the reference\n",
                mismatches);
  }
  PrintResult(mismatches == 0, attempted, failed + mismatches, metrics);
  Progress("tearing down");
  return mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  int rc = perfbench::Main(argc, argv);
  perfbench::Progress("done");
  return rc;
}
