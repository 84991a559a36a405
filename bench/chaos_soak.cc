// Chaos soak driver (DESIGN.md §16): stands up a real multi-node
// ClusterDeployment on loopback and runs RunChaosSoak — seeded kills,
// same-port restarts, half-open partitions and a controller crash against
// live zipf Put/Fetch/ExecuteBatch traffic — then prints the report and
// writes BENCH_chaos_soak.json.
//
// Flags:
//   --seconds=N   total soak length (default 10; CI uses 60, nightly 600)
//   --seed=N      scenario seed (printed in the report; replays the schedule)
//   --nodes=N     data nodes (default 4, rf=3)
//   --gate        exit nonzero unless every gate passes (CI mode)
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.h"
#include "joinopt/chaos/chaos_runner.h"

namespace joinopt {
namespace bench {
namespace {

bool ParseInt64Flag(const char* arg, const char* name, int64_t* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = std::strtoll(arg + len + 1, nullptr, 10);
  return true;
}

void WriteJson(const ChaosSoakReport& r, const ChaosSoakOptions& opts) {
  FILE* json = std::fopen("BENCH_chaos_soak.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_chaos_soak.json\n");
    return;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"chaos_soak\",\n");
  std::fprintf(json, "  \"seed\": %" PRIu64 ",\n", r.seed);
  std::fprintf(json, "  \"seconds\": %.1f,\n", r.seconds);
  std::fprintf(json, "  \"nodes\": %d,\n", opts.num_nodes);
  std::fprintf(json, "  \"replication_factor\": %d,\n",
               opts.replication_factor);
  std::fprintf(json, "  \"passed\": %s,\n", r.passed ? "true" : "false");
  std::fprintf(json, "  \"faults\": {\n");
  std::fprintf(json, "    \"kills\": %d,\n", r.kills);
  std::fprintf(json, "    \"restarts\": %d,\n", r.restarts);
  std::fprintf(json, "    \"partitions\": %d,\n", r.partitions);
  std::fprintf(json, "    \"heals\": %d,\n", r.heals);
  std::fprintf(json, "    \"controller_crashes\": %d\n",
               r.controller_crashes);
  std::fprintf(json, "  },\n");
  std::fprintf(json, "  \"workload\": {\n");
  std::fprintf(json, "    \"ops\": %" PRId64 ",\n", r.workload.ops);
  std::fprintf(json, "    \"puts\": %" PRId64 ",\n", r.workload.puts);
  std::fprintf(json, "    \"puts_durable\": %" PRId64 ",\n",
               r.workload.puts_durable);
  std::fprintf(json, "    \"fetches\": %" PRId64 ",\n", r.workload.fetches);
  std::fprintf(json, "    \"batches\": %" PRId64 ",\n", r.workload.batches);
  std::fprintf(json, "    \"op_errors\": %" PRId64 "\n",
               r.workload.op_errors);
  std::fprintf(json, "  },\n");
  std::fprintf(json, "  \"oracle\": {\n");
  std::fprintf(json, "    \"reads_checked\": %" PRId64 ",\n",
               r.oracle.reads_checked);
  std::fprintf(json, "    \"durable_puts\": %" PRId64 ",\n",
               r.oracle.durable_puts);
  std::fprintf(json, "    \"violations\": %" PRId64 "\n",
               r.oracle.violations);
  std::fprintf(json, "  },\n");
  std::fprintf(json, "  \"throughput\": {\n");
  std::fprintf(json, "    \"calibration_ops_per_sec\": %.1f,\n",
               r.calibration_ops_per_sec);
  std::fprintf(json, "    \"faulted_ops_per_sec\": %.1f,\n",
               r.faulted_ops_per_sec);
  std::fprintf(json, "    \"ratio\": %.4f\n", r.throughput_ratio);
  std::fprintf(json, "  },\n");
  std::fprintf(json, "  \"rss\": {\n");
  std::fprintf(json, "    \"baseline_kb\": %" PRId64 ",\n", r.rss_baseline_kb);
  std::fprintf(json, "    \"end_kb\": %" PRId64 ",\n", r.rss_end_kb);
  std::fprintf(json, "    \"growth\": %.4f\n", r.rss_growth);
  std::fprintf(json, "  },\n");
  std::fprintf(json, "  \"store\": {\n");
  std::fprintf(json, "    \"live_kb\": %" PRId64 ",\n", r.store_live_kb);
  std::fprintf(json, "    \"total_kb\": %" PRId64 ",\n", r.store_total_kb);
  std::fprintf(json, "    \"compactions\": %" PRId64 "\n",
               r.store_compactions);
  std::fprintf(json, "  },\n");
  std::fprintf(json, "  \"repair\": {\n");
  std::fprintf(json, "    \"mismatches\": %" PRId64 ",\n",
               r.repair_mismatches);
  std::fprintf(json, "    \"syncs\": %" PRId64 ",\n", r.repair_syncs);
  std::fprintf(json, "    \"records_shipped\": %" PRId64 "\n",
               r.repair_records_shipped);
  std::fprintf(json, "  },\n");
  std::fprintf(json, "  \"hedging\": {\n");
  std::fprintf(json, "    \"batch_hedges_sent\": %" PRId64 ",\n",
               r.batch_hedges_sent);
  std::fprintf(json, "    \"batch_hedges_absorbed\": %" PRId64 "\n",
               r.batch_hedges_absorbed);
  std::fprintf(json, "  },\n");
  std::fprintf(json, "  \"subscriber\": {\n");
  std::fprintf(json, "    \"notifications\": %" PRId64 ",\n",
               r.subscriber_notifications);
  std::fprintf(json, "    \"resyncs\": %" PRId64 "\n", r.subscriber_resyncs);
  std::fprintf(json, "  }\n");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("wrote BENCH_chaos_soak.json\n");
}

}  // namespace
}  // namespace bench
}  // namespace joinopt

int main(int argc, char** argv) {
  using namespace joinopt;
  using namespace joinopt::bench;

  ChaosSoakOptions opts;
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    int64_t v = 0;
    if (ParseInt64Flag(argv[i], "--seconds", &v)) {
      opts.seconds = static_cast<double>(v);
    } else if (ParseInt64Flag(argv[i], "--seed", &v)) {
      opts.seed = static_cast<uint64_t>(v);
    } else if (ParseInt64Flag(argv[i], "--nodes", &v)) {
      opts.num_nodes = static_cast<int>(v);
    } else if (ParseInt64Flag(argv[i], "--put_pct", &v)) {
      opts.put_fraction = static_cast<double>(v) / 100.0;
    } else if (ParseInt64Flag(argv[i], "--batch_pct", &v)) {
      opts.batch_fraction = static_cast<double>(v) / 100.0;
    } else if (std::strcmp(argv[i], "--gate") == 0) {
      gate = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seconds=N] [--seed=N] [--nodes=N] "
                   "[--put_pct=N] [--batch_pct=N] [--gate]\n",
                   argv[0]);
      return 2;
    }
  }

  PrintHeader(
      "Chaos soak: sustained kills/restarts/half-open partitions + live "
      "anti-entropy",
      "the networked cluster survives a seeded fault schedule with zero "
      "invariant violations — no lost acked write, no stale read beyond "
      "the consistency mode, monotone epochs, bounded RSS — and repair "
      "re-converges replicas live, without restart");

  std::printf("soak: %ds, seed=%" PRIu64 ", %d nodes (rf=%d)\n",
              static_cast<int>(opts.seconds), opts.seed, opts.num_nodes,
              opts.replication_factor);
  std::fflush(stdout);

  ChaosSoakReport r = RunChaosSoak(opts);

  std::printf("\nfaults injected: %d kills, %d restarts, %d half-open "
              "partitions (%d healed), %d controller crash(es)\n",
              r.kills, r.restarts, r.partitions, r.heals,
              r.controller_crashes);
  std::printf("workload: %" PRId64 " ops (%" PRId64 " puts, %" PRId64
              " durable, %" PRId64 " fetches, %" PRId64 " batches, %" PRId64
              " transport errors)\n",
              r.workload.ops, r.workload.puts, r.workload.puts_durable,
              r.workload.fetches, r.workload.batches, r.workload.op_errors);
  std::printf("throughput: calibration %.0f ops/s, under faults %.0f ops/s "
              "(ratio %.2f, floor 0.50)\n",
              r.calibration_ops_per_sec, r.faulted_ops_per_sec,
              r.throughput_ratio);
  std::printf("rss: %" PRId64 " kB -> %" PRId64 " kB (%.1f%% growth)\n",
              r.rss_baseline_kb, r.rss_end_kb, r.rss_growth * 100.0);
  std::printf("stores: %" PRId64 " kB live / %" PRId64 " kB total across "
              "nodes, %" PRId64 " compactions\n",
              r.store_live_kb, r.store_total_kb, r.store_compactions);
  std::printf("anti-entropy: %" PRId64 " mismatches repaired via %" PRId64
              " syncs, %" PRId64 " records shipped\n",
              r.repair_mismatches, r.repair_syncs, r.repair_records_shipped);
  std::printf("hedged batches: %" PRId64 " sent, %" PRId64
              " absorbed by server-side dedup\n",
              r.batch_hedges_sent, r.batch_hedges_absorbed);
  std::printf("subscribers: %" PRId64 " notifications, %" PRId64 " resyncs\n",
              r.subscriber_notifications, r.subscriber_resyncs);
  std::printf("oracle: %" PRId64 " reads checked, %" PRId64 " violations\n",
              r.oracle.reads_checked, r.oracle.violations);
  for (const std::string& sample : r.violation_samples) {
    std::printf("  violation: %s\n", sample.c_str());
  }
  if (r.passed) {
    std::printf("PASSED (seed=%" PRIu64 " replays this scenario)\n", r.seed);
  } else {
    std::printf("FAILED (seed=%" PRIu64 "):\n", r.seed);
    for (const std::string& f : r.failures) {
      std::printf("  gate: %s\n", f.c_str());
    }
  }

  WriteJson(r, opts);
  return gate && !r.passed ? 1 : 0;
}
