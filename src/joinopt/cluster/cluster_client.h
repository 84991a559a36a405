// Owner-aware cluster client: a DataService that routes every verb to the
// data node the ClusterTopology says owns the key, over one single-endpoint
// RpcClientService per node. This is the compute-node view of the cluster —
// what a ParallelInvoker holds instead of a single server's client.
//
// Routing and failover: the replica chain is re-read from the topology on
// *every* attempt, so a controller promotion between attempts redirects the
// retry to the new primary instead of hammering the corpse. Reads
// (Fetch/Stat) pick a live replica by power-of-two-choices over the shared
// NodeLoadView (DESIGN.md §15): sample two candidates, send to the one with
// the lower (outstanding+1) * expected-latency score, so a slow-but-idle
// node repels traffic that a pure least-outstanding policy would dump on
// it. Writes and Execute/ExecuteBatch go primary-first — delegated compute
// must run where the optimizer placed it. A transport error reports the
// node to the failure listener (the controller's fast path), feeds a
// request_timeout-sized latency penalty to the load view, backs off with
// deterministic jitter, and retries; attempts are bounded by
// recovery.max_attempts and exhaustion counts tuples_failed.
//
// Exactly-once batches: ExecuteBatch splits items by current owner and
// ships each group via ExecuteBatchTagged with a tag that stays stable
// across retries — even when the retry lands on a different node after a
// promotion — so a replayed batch whose original response was lost is
// answered from the server's dedup cache instead of re-executing.
//
// Piggybacked stats (Section 4.3): every compute response carries each ok
// item's (size, version). Under ReadConsistency::kAny the client parks
// them in a bounded StatPiggyback table, and the Stat that follows a
// delegated item is answered from it without a round trip: a value the
// primary returned a moment ago is no staler than what a catching-up
// follower may serve under kAny. kOwnerOnly and kQuorumVersion must also
// see writes acked after the compute request, so their Stat always reads
// the wire. The client's own Put clears the key's entry.
//
// OwnerOf never leaves the process: the topology *is* the ownership oracle
// (zero RPCs — the test asserts this), which is the payoff of sharing the
// RegionMap instead of asking a data node per key.
//
// Threading contract: every DataService method is safe to call from any
// number of threads concurrently (the ParallelInvoker's workers all share
// one instance). Internal locks: rec_mu_ (rank kClientRecovery=800,
// counters + jitter RNG), the NodeLoadView's per-node locks (rank
// kNodeLoadView=270) and the piggyback table's (rank kStatPiggyback=830);
// none is held across an RPC, so a stalled remote never wedges routing.
// The failure listener and the topology's own lock run outside all of
// them. Rank table: DESIGN.md §12.
#ifndef JOINOPT_CLUSTER_CLUSTER_CLIENT_H_
#define JOINOPT_CLUSTER_CLUSTER_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "joinopt/cluster/topology.h"
#include "joinopt/common/lock_ranks.h"
#include "joinopt/common/random.h"
#include "joinopt/common/status.h"
#include "joinopt/common/sync.h"
#include "joinopt/engine/async_api.h"
#include "joinopt/engine/types.h"
#include "joinopt/loadbalance/node_load_view.h"
#include "joinopt/net/rpc_client.h"
#include "joinopt/net/stat_piggyback.h"

namespace joinopt {

/// What a read (Fetch/Stat) is allowed to return (DESIGN.md §16). The
/// write path acks a Put after the primary (and every *live* follower)
/// applied it, so the modes trade latency against which replica's history
/// the caller may observe.
enum class ReadConsistency {
  /// Any live replica, picked by power-of-two-choices. Fastest; may miss
  /// writes a partitioned or catching-up follower has not applied yet.
  kAny,
  /// Always the current primary (chain head after promotions). Sees every
  /// write the cluster acked while that primary was in charge; after a
  /// promotion the new primary is the most conservative live choice.
  kOwnerOnly,
  /// Read a majority of the replica chain and return the highest version.
  /// Survives any minority of stale replicas: a write acked by all live
  /// replicas is always visible. Costs quorum-many RPCs per read.
  kQuorumVersion,
};

/// What one replicated Put actually did — the receipt the chaos oracle
/// uses to decide whether a write is guaranteed durable under faults.
struct PutOutcome {
  uint64_t primary_version = 0;
  int replicas_acked = 0;    ///< replicas whose Put returned OK
  int replicas_skipped = 0;  ///< marked-down replicas skipped (re-sync owed)
  int replicas_failed = 0;   ///< live replicas whose Put failed
  /// Every replica in the chain applied the write: no single crash — and
  /// no minority of crashes — can lose it.
  bool fully_replicated() const {
    return replicas_acked > 0 && replicas_skipped == 0 &&
           replicas_failed == 0;
  }
};

struct ClusterClientOptions {
  /// Retry/backoff discipline across nodes (per-node RPCs run with exactly
  /// one attempt and io deadline = request_timeout; this layer owns the
  /// rotation).
  RecoveryConfig recovery;
  /// Spread reads across live replicas by power-of-two-choices over the
  /// node load view (outstanding counts x expected latency).
  bool balance_reads = true;
  /// Shared load view sized to the topology's node count. Null (the
  /// default) makes the client own a private one; the engine layer passes
  /// the view it also feeds cost-model estimates into, so read balancing
  /// sees tCompute/tFetch before any direct latency sample exists.
  NodeLoadView* load_view = nullptr;
  double connect_deadline = 1.0;
  uint64_t seed = 0xc105731e;
  /// Staleness contract for Fetch/Stat (see ReadConsistency).
  ReadConsistency read_consistency = ReadConsistency::kAny;
  /// Shared hedging manager handed to every per-node transport client —
  /// one latency-quantile pool and one hedge budget for the whole cluster
  /// view. Null disables hedging at this layer.
  std::shared_ptr<HedgingManager> hedging;
  /// With `hedging` set: duplicate straggling tagged batches against the
  /// owner after the hedge delay; the server's replay-dedup cache absorbs
  /// the duplicate (see RpcClientOptions::hedge_idempotent_batches).
  bool hedge_idempotent_batches = false;
  /// Logical endpoint id for NetFaultInjector partitions; -1 opts out.
  /// ClusterDeployment tags its client with num_nodes (nodes use their own
  /// ids), so injected half-open links cut compute↔node paths.
  int32_t net_identity = -1;

  ClusterClientOptions() {
    recovery.enabled = true;
    recovery.request_timeout = 2.0;
    recovery.backoff_base = 10e-3;
    recovery.backoff_max = 200e-3;
    recovery.max_attempts = 4;
  }
};

struct ClusterClientStats {
  int64_t calls = 0;  ///< verb invocations (a batch counts once per group)
  /// Attempts that landed on a different node than the first choice.
  int64_t node_failovers = 0;
  /// ExecuteBatch calls that split into >1 per-owner group.
  int64_t batches_split = 0;
  /// Replica writes skipped because the topology had the node marked down.
  int64_t skipped_replica_writes = 0;
  /// Fetch/Stat calls served by a kQuorumVersion majority read.
  int64_t quorum_reads = 0;
  /// Quorum reads whose replicas disagreed on the version — each one is a
  /// staleness window kAny would have been exposed to.
  int64_t quorum_divergence = 0;
};

class ClusterClientService : public DataService {
 public:
  /// Every data node must already have its endpoint published in
  /// `topology` (ClusterDeployment starts the nodes first).
  ClusterClientService(ClusterTopology* topology,
                       ClusterClientOptions options = {});

  // DataService verbs, owner-routed.
  StatusOr<Fetched> Fetch(Key key) override;
  StatusOr<std::string> Execute(Key key, const std::string& params,
                                const UserFn& fn) override;
  std::vector<StatusOr<std::string>> ExecuteBatch(
      const std::vector<std::pair<Key, std::string>>& items,
      const UserFn& fn) override;
  /// Under kAny answered from the stat the last compute response for `key`
  /// piggybacked, if one is parked; otherwise read per the consistency
  /// mode.
  StatusOr<ItemStat> Stat(Key key) const override;
  /// Local topology lookup — zero RPCs.
  NodeId OwnerOf(Key key) const override;

  /// Writes to every live replica of the key's region (primary must
  /// succeed; follower failures are reported and skipped). Returns the
  /// primary's new version. `outcome` (optional) reports how many replicas
  /// actually acked — the durability receipt the chaos oracle consumes.
  StatusOr<uint64_t> Put(Key key, const std::string& value,
                         PutOutcome* outcome = nullptr);

  /// Called with the NodeId on every transport error — the controller's
  /// failure fast path. Must be thread-safe; set before first use.
  void set_failure_listener(std::function<void(NodeId)> listener) {
    failure_listener_ = std::move(listener);
  }

  RecoveryCounters recovery_counters() const;
  ClusterClientStats stats() const;
  uint64_t client_id() const { return client_id_; }
  /// Direct access to one node's transport client (tests).
  RpcClientService& node_client(NodeId node) {
    return *clients_[static_cast<size_t>(node)];
  }
  /// The load view reads balance over (the shared one from the options, or
  /// the private one this client owns).
  NodeLoadView& load_view() const { return *load_view_; }
  /// Stats parked from compute responses (tests).
  const StatPiggyback& stat_piggyback() const { return piggyback_; }

 private:
  /// One owner-routed call with the retry/failover rotation. `read`
  /// enables replica balancing; `op` runs one attempt against one node and
  /// returns true on success (in-band errors count as success: they came
  /// from a live node and are never retried). The Status out-param carries
  /// the transport error on false.
  template <typename Op>
  Status RoutedCall(Key key, bool read, const Op& op) const;
  /// Candidate nodes for this attempt, refreshed from the topology.
  std::vector<NodeId> Candidates(Key key, bool read) const;
  /// kQuorumVersion read path: majority of the replica chain, highest
  /// version wins (NotFound counts as a version-0 vote).
  StatusOr<Fetched> QuorumFetch(Key key) const;
  StatusOr<ItemStat> QuorumStat(Key key) const;
  /// True when Stat may be answered from a piggybacked stat (kAny).
  bool UsesPiggyback() const {
    return options_.read_consistency == ReadConsistency::kAny;
  }
  void NoteFailure(NodeId node, const Status& status) const;
  double BackoffSeconds(int attempt) const;

  ClusterTopology* topology_;
  ClusterClientOptions options_;
  std::vector<std::unique_ptr<RpcClientService>> clients_;  // per node
  /// Cross-node balancing signal: outstanding counts + latency EWMAs +
  /// cost-model estimates, possibly shared with the engine layer.
  std::unique_ptr<NodeLoadView> owned_load_view_;
  NodeLoadView* load_view_ = nullptr;
  std::atomic<uint64_t> batch_seq_{0};
  uint64_t client_id_ = 0;
  /// Stats parked by Execute/ExecuteBatch for the next Stat of each key;
  /// only written and read under kAny.
  mutable StatPiggyback piggyback_;
  /// Set once before the client is shared across threads (see the setter's
  /// contract); read-only afterwards, hence not lock-guarded.
  std::function<void(NodeId)> failure_listener_;

  mutable Mutex rec_mu_{lock_rank::kClientRecovery,
                        "ClusterClientService::rec_mu_"};
  mutable RecoveryCounters rec_ JOINOPT_GUARDED_BY(rec_mu_);
  mutable Rng jitter_rng_ JOINOPT_GUARDED_BY(rec_mu_);

  struct AtomicStats {
    std::atomic<int64_t> calls{0};
    std::atomic<int64_t> node_failovers{0};
    std::atomic<int64_t> batches_split{0};
    std::atomic<int64_t> skipped_replica_writes{0};
    std::atomic<int64_t> quorum_reads{0};
    std::atomic<int64_t> quorum_divergence{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace joinopt

#endif  // JOINOPT_CLUSTER_CLUSTER_CLIENT_H_
