#include "joinopt/chaos/chaos_runner.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <thread>
#include <utility>

#include "joinopt/cluster/deployment.h"
#include "joinopt/cluster/subscriber.h"
#include "joinopt/engine/hedging_manager.h"
#include "joinopt/net/net_fault.h"

namespace joinopt {

namespace {

using Clock = std::chrono::steady_clock;

void SleepSeconds(double s) {
  if (s > 0) std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

}  // namespace

int64_t ReadVmRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtoll(line.c_str() + 6, nullptr, 10);
    }
  }
  return -1;
}

FaultSchedule BuildSoakSchedule(const ChaosSoakOptions& options,
                                double fault_window, Rng& rng) {
  FaultSchedule schedule;
  if (fault_window <= 0.5 || options.num_nodes < 2) return schedule;

  // One kill (paired with a same-port restart) per segment, except the
  // middle segment, which hosts the controller crash — so kills never
  // overlap the detector outage, and at most one node is dark at a time
  // (a majority of every replica chain stays live throughout).
  int segments = std::max(3, static_cast<int>(fault_window / 8.0) + 1);
  double seg = fault_window / segments;
  int controller_seg = segments / 2;
  NodeId prev_victim = kInvalidNode;
  for (int s = 0; s < segments; ++s) {
    double at = s * seg + rng.Uniform(0.05, 0.25) * seg;
    double dur = std::min(0.35 * seg, 1.5);
    if (s == controller_seg) {
      schedule.CrashController(at);
      schedule.RestartController(at + dur);
    } else {
      NodeId victim =
          static_cast<NodeId>(rng.NextBounded(
              static_cast<uint64_t>(options.num_nodes)));
      if (victim == prev_victim) {
        victim = static_cast<NodeId>((victim + 1) % options.num_nodes);
      }
      schedule.CrashNode(at, victim);
      schedule.RestartNode(at + dur, victim);
      prev_victim = victim;
    }
  }

  // Half-open partitions between any two identities, the compute side
  // (id num_nodes) included: node→compute drops answers to requests that
  // still arrive — the classic half-open failure.
  int n_partitions = std::max(1, static_cast<int>(fault_window / 15.0));
  const uint64_t ids = static_cast<uint64_t>(options.num_nodes) + 1;
  for (int p = 0; p < n_partitions; ++p) {
    double hi = std::max(0.7, std::min(1.5, fault_window * 0.25));
    double dur = rng.Uniform(0.5, hi);
    double at = rng.Uniform(0.0, std::max(0.05, fault_window - dur - 0.05));
    int32_t from = static_cast<int32_t>(rng.NextBounded(ids));
    int32_t to = static_cast<int32_t>(rng.NextBounded(ids - 1));
    if (to >= from) ++to;  // distinct endpoints
    schedule.PartitionLinkOneWay(at, static_cast<NodeId>(from),
                                 static_cast<NodeId>(to));
    schedule.HealLinkOneWay(at + dur, static_cast<NodeId>(from),
                            static_cast<NodeId>(to));
  }
  return schedule;
}

ChaosSoakReport RunChaosSoak(const ChaosSoakOptions& options) {
  ChaosSoakReport report;
  report.seed = options.seed;
  report.seconds = options.seconds;
  Rng rng(options.seed);

  const double calib =
      std::max(1.0, options.seconds * options.calibration_fraction);
  const double settle =
      std::max({1.5, options.seconds * options.settle_fraction,
                4.0 * options.anti_entropy_period + 0.5});
  const double fault_window =
      std::max(1.0, options.seconds - calib - settle);

  ClusterDeploymentOptions dopts;
  dopts.topology.num_data_nodes = options.num_nodes;
  dopts.topology.regions_per_node = options.regions_per_node;
  dopts.topology.replication_factor = options.replication_factor;
  dopts.client.read_consistency = options.read_consistency;
  dopts.client.recovery.request_timeout = 0.25;
  dopts.client.recovery.max_attempts = 5;
  dopts.client.recovery.backoff_base = 5e-3;
  dopts.client.recovery.backoff_max = 60e-3;
  dopts.client.connect_deadline = 0.25;
  dopts.client.hedging = std::make_shared<HedgingManager>();
  dopts.client.hedge_idempotent_batches = true;
  dopts.start_anti_entropy = true;
  dopts.anti_entropy.period = options.anti_entropy_period;
  // Soak stores hold ~100 kB live per node; the default 4 MB segments never
  // seal at that volume, so overwrite garbage piles up in the active segment
  // all soak long and the RSS gate reads it as a leak. Small segments keep
  // the compactor cycling and the footprint tracking live data.
  dopts.store.segment_bytes = 256 * 1024;

  UserFn fn = [](Key, const std::string&, const std::string& value) {
    return value;  // echo: batch results stay corruption-checkable
  };
  ClusterDeployment dep(fn, dopts);
  Status started = dep.Start();
  if (!started.ok()) {
    report.failures.push_back("deployment failed to start: " +
                              started.message());
    return report;
  }

  InvariantOracle oracle(options.read_consistency);

  // Pre-populate every key: reads rarely miss and every key carries a
  // durable floor into the fault window.
  for (uint64_t k = 0; k < options.num_keys; ++k) {
    std::string value = SoakWorkload::MakeValue(k, 0, options.value_bytes);
    PutOutcome outcome;
    auto version = dep.client().Put(k, value, &outcome);
    if (version.ok()) {
      oracle.RecordPut(k, *version, Fnv1a(value), outcome.fully_replicated());
    }
  }

  // Live Subscribe streams: counting sinks, but the reconnect + epoch-bump
  // re-sync machinery runs for real under every restart below.
  UpdateSubscriberOptions sub_opts;
  sub_opts.net_identity = dep.compute_identity();
  std::vector<NodeId> all_nodes;
  for (int i = 0; i < options.num_nodes; ++i) {
    all_nodes.push_back(static_cast<NodeId>(i));
  }
  auto subscriber = std::make_unique<UpdateSubscriber>(
      &dep.topology(), all_nodes, [](Key, uint64_t) {},
      [](NodeId, int) -> int64_t { return 0; }, sub_opts);

  SoakWorkloadOptions wopts;
  wopts.threads = options.workload_threads;
  wopts.seed = options.seed * 0x9E3779B97F4A7C15ULL + 1;
  wopts.num_keys = options.num_keys;
  wopts.zipf_z = options.zipf_z;
  wopts.put_fraction = options.put_fraction;
  wopts.batch_fraction = options.batch_fraction;
  wopts.value_bytes = options.value_bytes;
  SoakWorkload workload(&dep.client(), &oracle, fn, wopts);

  // Checkpoint: per-node region epochs must never regress; RSS sampled for
  // the growth gate.
  std::vector<std::vector<RegionEpoch>> prev_epochs(
      static_cast<size_t>(options.num_nodes));
  auto checkpoint = [&] {
    for (int i = 0; i < options.num_nodes; ++i) {
      auto epochs = dep.data_node(i).service().EpochSnapshot();
      auto& prev = prev_epochs[static_cast<size_t>(i)];
      for (size_t r = 0; r < epochs.size() && r < prev.size(); ++r) {
        if (epochs[r].epoch < prev[r].epoch) {
          oracle.AddViolation(
              "epoch regression: node " + std::to_string(i) + " region " +
              std::to_string(r) + " " + std::to_string(prev[r].epoch) +
              " -> " + std::to_string(epochs[r].epoch));
        }
      }
      prev = std::move(epochs);
    }
  };
  auto run_phase = [&](double duration) {
    double remaining = duration;
    while (remaining > 1e-9) {
      double step = std::min(options.checkpoint_interval, remaining);
      SleepSeconds(step);
      remaining -= step;
      checkpoint();
    }
  };

  // ---- calibration: the fault-free floor ----
  int64_t ops0 = workload.ops_completed();
  run_phase(calib);
  int64_t ops1 = workload.ops_completed();
  report.calibration_ops_per_sec =
      static_cast<double>(ops1 - ops0) / calib;
  report.rss_baseline_kb = ReadVmRssKb();

  // ---- fault window: replay the seeded schedule ----
  FaultSchedule schedule = BuildSoakSchedule(options, fault_window, rng);
  std::vector<FaultEvent> events = schedule.Sorted();
  std::vector<bool> dead(static_cast<size_t>(options.num_nodes), false);
  bool controller_down = false;
  auto fault_start = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - fault_start).count();
  };
  size_t idx = 0;
  while (true) {
    double next = idx < events.size() ? events[idx].time : fault_window;
    double wait = next - elapsed();
    while (wait > 1e-9) {
      SleepSeconds(std::min(wait, options.checkpoint_interval));
      checkpoint();
      wait = next - elapsed();
    }
    if (idx >= events.size()) break;
    const FaultEvent& e = events[idx++];
    switch (e.kind) {
      case FaultKind::kNodeCrash:
        dep.KillDataNode(e.node);
        dead[static_cast<size_t>(e.node)] = true;
        ++report.kills;
        break;
      case FaultKind::kNodeRestart: {
        Status s = dep.RestartDataNode(e.node);
        if (s.ok()) {
          dead[static_cast<size_t>(e.node)] = false;
          ++report.restarts;
        } else {
          oracle.AddViolation("restart failed: node " +
                              std::to_string(e.node) + ": " + s.message());
        }
        break;
      }
      case FaultKind::kLinkPartitionOneWay:
        NetFaultInjector::Instance().BlockOneWay(e.node, e.peer);
        ++report.partitions;
        break;
      case FaultKind::kLinkHealOneWay:
        NetFaultInjector::Instance().HealOneWay(e.node, e.peer);
        ++report.heals;
        break;
      case FaultKind::kControllerCrash:
        dep.KillController();
        controller_down = true;
        ++report.controller_crashes;
        break;
      case FaultKind::kControllerRestart:
        dep.RestartController();
        controller_down = false;
        break;
      default:
        break;  // disk/degrade kinds have no wire equivalent
    }
  }
  int64_t ops2 = workload.ops_completed();
  report.faulted_ops_per_sec =
      static_cast<double>(ops2 - ops1) / fault_window;
  report.throughput_ratio =
      report.calibration_ops_per_sec > 0
          ? report.faulted_ops_per_sec / report.calibration_ops_per_sec
          : 0.0;

  // ---- settle: heal everything, let repair converge ----
  NetFaultInjector::Instance().HealAll();
  if (controller_down) dep.RestartController();
  for (int i = 0; i < options.num_nodes; ++i) {
    if (!dead[static_cast<size_t>(i)]) continue;
    if (dep.RestartDataNode(i).ok()) ++report.restarts;
    dead[static_cast<size_t>(i)] = false;
  }
  run_phase(settle);
  workload.Stop();
  // Quiescent now: force final sweeps so convergence doesn't hinge on
  // timer alignment (two passes — the second propagates tie-break bumps).
  if (dep.anti_entropy() != nullptr) {
    dep.anti_entropy()->SweepOnce();
    dep.anti_entropy()->SweepOnce();
  }
  report.rss_end_kb = ReadVmRssKb();
  subscriber->Stop();

  // ---- end-state audit ----
  for (int r = 0; r < dep.topology().num_regions(); ++r) {
    bool have_first = false;
    RegionSummary first;
    for (NodeId n : dep.topology().RegionReplicas(r)) {
      auto summary = dep.data_node(n).service().SummarizeRegion(r);
      if (!summary.ok()) continue;
      if (!have_first) {
        first = *summary;
        have_first = true;
        continue;
      }
      if (summary->checksum != first.checksum ||
          summary->count != first.count) {
        oracle.AddViolation("replicas diverged after settle: region " +
                            std::to_string(r) + " node " +
                            std::to_string(n));
        break;
      }
    }
  }
  for (const auto& [key, expected] : oracle.DurableSnapshot()) {
    uint64_t best_version = 0;
    uint64_t best_hash = 0;
    for (NodeId n : dep.topology().ReplicasOf(key)) {
      auto fetched = dep.data_node(n).service().Fetch(key);
      if (!fetched.ok()) continue;
      if (fetched->version >= best_version) {
        best_version = fetched->version;
        best_hash = Fnv1a(fetched->value);
      }
    }
    if (best_version < expected.durable_version) {
      oracle.AddViolation("lost acked write: key " + std::to_string(key) +
                          " durable v" +
                          std::to_string(expected.durable_version) +
                          " best surviving v" + std::to_string(best_version));
    } else if (best_version == expected.durable_version &&
               best_hash != expected.durable_hash) {
      oracle.AddViolation("durable write bytes mutated: key " +
                          std::to_string(key) + " v" +
                          std::to_string(best_version));
    }
  }

  // ---- gather ----
  report.workload = workload.stats();
  report.oracle = oracle.stats();
  report.violation_samples = oracle.violations();
  if (dep.anti_entropy() != nullptr) {
    AntiEntropyStats repair = dep.anti_entropy()->stats();
    report.repair_mismatches = repair.mismatches;
    report.repair_syncs = repair.syncs;
    report.repair_records_shipped = repair.records_shipped;
  }
  for (int i = 0; i < options.num_nodes; ++i) {
    RecoveryCounters counters =
        dep.client().node_client(static_cast<NodeId>(i)).recovery_counters();
    report.batch_hedges_sent += counters.batch_hedges_sent;
    report.batch_hedges_absorbed += counters.batch_hedges_absorbed;
  }
  for (int i = 0; i < options.num_nodes; ++i) {
    LogStoreStats ss = dep.data_node(i).service().StoreStats();
    report.store_live_kb += static_cast<int64_t>(ss.live_bytes) / 1024;
    report.store_total_kb += static_cast<int64_t>(ss.total_bytes) / 1024;
    report.store_compactions += ss.compactions;
  }
  UpdateSubscriberStats sub_stats = subscriber->stats();
  report.subscriber_notifications = sub_stats.notifications;
  report.subscriber_resyncs = sub_stats.resyncs;

  // ---- gates ----
  if (report.oracle.violations > 0) {
    report.failures.push_back(
        std::to_string(report.oracle.violations) +
        " invariant violation(s); first: " +
        (report.violation_samples.empty() ? std::string("<none>")
                                          : report.violation_samples[0]));
  }
  if (report.throughput_ratio < options.min_throughput_fraction) {
    report.failures.push_back(
        "throughput under faults fell below the floor: ratio " +
        std::to_string(report.throughput_ratio) + " < " +
        std::to_string(options.min_throughput_fraction));
  }
  // Under TSan the allocator's shadow state grows with thread/heap churn,
  // so VmRSS measures the sanitizer, not the system: report the numbers
  // but gate only in uninstrumented builds (the Release CI job gates).
  bool rss_meaningful = true;
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  rss_meaningful = false;  // gcc spelling
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  rss_meaningful = false;  // clang spelling
#endif
#endif
  if (report.rss_baseline_kb > 0 && report.rss_end_kb > 0) {
    int64_t grown = report.rss_end_kb - report.rss_baseline_kb;
    report.rss_growth =
        static_cast<double>(grown) /
        static_cast<double>(report.rss_baseline_kb);
    if (rss_meaningful && report.rss_growth > options.max_rss_growth &&
        grown > options.rss_slack_kb) {
      report.failures.push_back(
          "RSS grew " + std::to_string(grown) + " kB (" +
          std::to_string(report.rss_growth * 100.0) + "%) over the soak");
    }
  }
  if (report.kills < 2 || report.restarts < 2 || report.partitions < 1 ||
      report.controller_crashes != 1) {
    report.failures.push_back("schedule under-delivered: kills=" +
                              std::to_string(report.kills) + " restarts=" +
                              std::to_string(report.restarts) +
                              " partitions=" +
                              std::to_string(report.partitions) +
                              " controller_crashes=" +
                              std::to_string(report.controller_crashes));
  }
  report.passed = report.failures.empty();

  subscriber.reset();
  dep.Stop();
  NetFaultInjector::Instance().HealAll();
  return report;
}

}  // namespace joinopt
