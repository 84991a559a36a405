// ChaosRunner: the soak harness (DESIGN.md §16). RunChaosSoak stands up a
// real multi-node ClusterDeployment on loopback — live anti-entropy on,
// controller on, Subscribe streams attached — drives it with a SoakWorkload
// for `seconds`, and replays a seeded FaultSchedule against it from a chaos
// thread: node kills paired with same-port restarts, half-open socket
// partitions (NetFaultInjector), and a controller crash window. Throughout,
// a checkpoint loop samples per-node region epochs (must never regress) and
// process RSS (must stay bounded), and the InvariantOracle checks every
// read the workload completes.
//
// Phase structure: [calibration | faults | settle]. Calibration measures
// the fault-free throughput floor before anything breaks; the fault window
// replays the schedule; settle heals every partition, restarts anything
// still dark, forces anti-entropy sweeps and then audits end state — every
// region's content checksum equal across its replica chain, and every
// durable (fully-replicated) write still present at or above its acked
// version.
//
// Determinism: the schedule is a pure function of (seed, options). Faults
// land at wall-clock offsets, so interleavings vary run to run — what is
// reproducible is the scenario, and the invariants must hold under every
// interleaving. The report carries the seed so a failing scenario can be
// replayed.
#ifndef JOINOPT_CHAOS_CHAOS_RUNNER_H_
#define JOINOPT_CHAOS_CHAOS_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "joinopt/chaos/soak_workload.h"
#include "joinopt/cluster/cluster_client.h"
#include "joinopt/fault/fault_schedule.h"
#include "joinopt/net/rpc_server.h"

namespace joinopt {

struct ChaosSoakOptions {
  /// Total wall-clock run length, split into calibration / faults / settle.
  double seconds = 10.0;
  uint64_t seed = 1;

  // Cluster shape.
  int num_nodes = 4;
  int regions_per_node = 4;
  int replication_factor = 3;

  // Workload shape (see SoakWorkloadOptions).
  int workload_threads = 4;
  uint64_t num_keys = 512;
  double zipf_z = 0.9;
  double put_fraction = 0.30;
  double batch_fraction = 0.10;
  size_t value_bytes = 48;
  ReadConsistency read_consistency = ReadConsistency::kOwnerOnly;

  // Fault pacing.
  double calibration_fraction = 0.15;  ///< of `seconds`, min 1s
  double settle_fraction = 0.20;       ///< of `seconds`, min 1.5s
  double checkpoint_interval = 0.25;   ///< epoch/RSS sampling cadence
  double anti_entropy_period = 0.10;   ///< live repair sweep pause

  // Gates.
  double min_throughput_fraction = 0.5;  ///< faulted rate vs calibration
  double max_rss_growth = 0.10;          ///< fractional, calib end → run end
  /// Absolute growth under this never fails the RSS gate (small baselines
  /// make the fraction meaningless).
  int64_t rss_slack_kb = 8 * 1024;
};

struct ChaosSoakReport {
  uint64_t seed = 0;
  double seconds = 0;
  bool passed = false;
  std::vector<std::string> failures;  ///< gate-level failure descriptions

  // Faults actually injected.
  int kills = 0;
  int restarts = 0;
  int partitions = 0;
  int heals = 0;
  int controller_crashes = 0;

  // Workload + oracle.
  SoakWorkloadStats workload;
  OracleStats oracle;
  std::vector<std::string> violation_samples;

  // Throughput gate inputs.
  double calibration_ops_per_sec = 0;
  double faulted_ops_per_sec = 0;
  double throughput_ratio = 0;

  // RSS gate inputs (kilobytes, from /proc/self/status VmRSS).
  int64_t rss_baseline_kb = 0;
  int64_t rss_end_kb = 0;
  double rss_growth = 0;
  // Store accounting across all nodes at run end — the first place to
  // look when the RSS gate trips (log-structured stores grow with write
  // traffic until compaction reclaims overwritten records).
  int64_t store_live_kb = 0;
  int64_t store_total_kb = 0;
  int64_t store_compactions = 0;

  // Repair + hedging observability.
  int64_t repair_mismatches = 0;
  int64_t repair_syncs = 0;
  int64_t repair_records_shipped = 0;
  int64_t batch_hedges_sent = 0;
  int64_t batch_hedges_absorbed = 0;
  int64_t subscriber_notifications = 0;
  int64_t subscriber_resyncs = 0;
};

/// Current process RSS in kB (VmRSS from /proc/self/status), -1 when the
/// proc file is unavailable (non-Linux).
int64_t ReadVmRssKb();

/// The seeded scenario generator. Rails: only one node dark at a time,
/// every kill paired with a restart, the controller crash gets its own
/// kill-free segment, and with the default fractions the schedule always
/// contains >= 2 kills, >= 2 restarts, >= 1 half-open partition and exactly
/// 1 controller crash. `fault_window` is the schedule's time span; event
/// times are relative to the fault phase start.
FaultSchedule BuildSoakSchedule(const ChaosSoakOptions& options,
                                double fault_window, Rng& rng);

/// Runs the whole soak. Blocking; returns the filled report (passed ==
/// false lists which gates failed). Prints nothing — callers own output.
ChaosSoakReport RunChaosSoak(const ChaosSoakOptions& options);

}  // namespace joinopt

#endif  // JOINOPT_CHAOS_CHAOS_RUNNER_H_
