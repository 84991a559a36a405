// One simulated data node of a multi-node deployment: a WritableDataService
// over its own LogStructuredStore, served by its own RpcServer. The service
// answers OwnerOf from the *shared* ClusterTopology (cluster-wide placement,
// not the per-store shard hash LogStoreDataService uses), tracks per-region
// (epoch, seq) pairs, and fans UpdateEvents out to registered sinks — the
// server side of the §4.2.3 invalidation path over real sockets.
//
// Crash/restart semantics (what the fault tests drive): Stop() kills the
// RpcServer — in-flight connections are severed and the port goes dark —
// but the store survives, like a process whose durable log outlived it.
// Restart() brings a fresh RpcServer up on the SAME port and bumps every
// hosted region's epoch (seq resets to 0): subscriber registrations died
// with the old server, so updates applied between crash and resubscribe
// were never notified. The epoch bump is what forces reconnecting
// subscribers into a targeted re-sync instead of trusting stale sequence
// numbers.
//
// Threading contract: service methods run on RpcServer pool threads;
// Stop/Restart/running() may race them from test or controller threads.
// Three locks, in ascending rank (one thread may hold them only in this
// order): lifecycle_mu_ (kNodeLifecycle=480, server ptr + pinned port,
// held across RpcServer::Start), store_mu_ (kNodeStore=500, the log
// store), update_mu_ (kNodeUpdateFanout=600, region epochs + sink list,
// held across the per-sink fan-out, which takes each subscribed
// connection's kReactorConn=780). Rank table: DESIGN.md §12.
#ifndef JOINOPT_CLUSTER_DATA_NODE_H_
#define JOINOPT_CLUSTER_DATA_NODE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "joinopt/cluster/topology.h"
#include "joinopt/common/lock_ranks.h"
#include "joinopt/common/status.h"
#include "joinopt/common/sync.h"
#include "joinopt/engine/async_api.h"
#include "joinopt/net/rpc_server.h"
#include "joinopt/net/update_hub.h"
#include "joinopt/store/log_store.h"

namespace joinopt {

/// The in-process service. Thread-safe: the store is guarded by a
/// shared_mutex (LogStructuredStore allows concurrent readers but only a
/// single writer), region epochs and the sink list by a plain mutex.
class ClusterNodeService : public WritableDataService {
 public:
  ClusterNodeService(NodeId node, ClusterTopology* topology,
                     const LogStoreConfig& store_config = {});

  // DataService (read verbs hit the local store; a key this node does not
  // host simply comes back NotFound — routing is the client's job).
  StatusOr<Fetched> Fetch(Key key) override;
  StatusOr<std::string> Execute(Key key, const std::string& params,
                                const UserFn& fn) override;
  StatusOr<ItemStat> Stat(Key key) const override;
  NodeId OwnerOf(Key key) const override;

  // WritableDataService.
  StatusOr<uint64_t> Put(Key key, const std::string& value) override;
  /// ApplyIfNewer with the primary's version as floor; answers with the
  /// key's resulting local version (== `version` when applied, the newer
  /// local version when this replica already superseded the write).
  StatusOr<uint64_t> PutReplica(Key key, const std::string& value,
                                uint64_t version) override;
  std::vector<RegionEpoch> EpochSnapshot() const override;
  void AddUpdateSink(UpdateSink* sink) override;
  void RemoveUpdateSink(UpdateSink* sink) override;

  // Anti-entropy (DESIGN.md §16): the server side of live replica repair.
  /// Order-independent content digest of one region: count + a wrapping
  /// sum of per-record hashes over (key, value). Equal digests mean equal
  /// contents regardless of write order; versions are excluded because
  /// per-key counters may legitimately differ by history.
  StatusOr<RegionSummary> SummarizeRegion(int32_t region) const override;
  /// Merges a peer's records (newest version per key wins, applied with a
  /// version floor so counters align), then returns this node's post-merge
  /// snapshot of the region. Applied records fan out update events like
  /// ordinary Puts, so subscribers invalidate repaired keys.
  StatusOr<std::vector<RegionRecord>> SyncRegion(
      int32_t region, const std::vector<RegionRecord>& records) override;

  /// Atomic "apply unless I already have something newer": stores `value`
  /// at version max(current + 1, `version`) iff current < `version`, or iff
  /// current == `version` with a different, lexicographically smaller local
  /// value (a deterministic tie-break: concurrent writers can hand the same
  /// version number to different values on different replicas, and without
  /// a common winner those replicas would never converge). Returns true
  /// when applied (with the update event fanned out). The version-aware
  /// merge primitive shared by anti-entropy and the restart catch-up path —
  /// never overwrites a newer local write.
  bool ApplyIfNewer(Key key, const std::string& value, uint64_t version);

  /// Live (key, version, value) records of one region, read consistently
  /// under the store lock.
  std::vector<RegionRecord> RegionRecords(int32_t region) const;

  /// Restart hook: bumps every region's epoch and zeroes its seq, modelling
  /// the loss of the subscriber registrations (see file comment).
  void BumpEpochs();

  /// Live records whose key satisfies `pred`, read under the store lock —
  /// the safe way to copy region contents between nodes (the restart
  /// catch-up path in ClusterDeployment).
  std::vector<std::pair<Key, std::string>> SnapshotWhere(
      const std::function<bool(Key)>& pred) const;

  NodeId node() const { return node_; }
  LogStructuredStore& store() { return store_; }
  const LogStructuredStore& store() const { return store_; }

  /// Store counters read under the store lock (safe against concurrent
  /// writers — the bare store() accessor is not).
  LogStoreStats StoreStats() const {
    ReaderMutexLock lock(store_mu_);
    return store_.stats();
  }

 private:
  /// Bumps the key's region seq and pushes the event to every sink.
  void FanOutUpdate(Key key, uint64_t version) JOINOPT_EXCLUDES(update_mu_);

  NodeId node_;
  ClusterTopology* topology_;

  /// Snapshot predicates read the topology while this is held
  /// (kNodeStore < kTopology makes that nesting legal).
  mutable SharedMutex store_mu_{lock_rank::kNodeStore,
                                "ClusterNodeService::store_mu_"};
  LogStructuredStore store_ JOINOPT_GUARDED_BY(store_mu_);

  /// Guards epochs_ and sinks_; held across the sink fan-out (which takes
  /// each sink's kReactorConn lock) so a subscriber snapshot cannot
  /// interleave mid-update.
  mutable Mutex update_mu_{lock_rank::kNodeUpdateFanout,
                           "ClusterNodeService::update_mu_"};
  std::vector<RegionEpoch> epochs_
      JOINOPT_GUARDED_BY(update_mu_);  // indexed by region
  std::vector<UpdateSink*> sinks_ JOINOPT_GUARDED_BY(update_mu_);
};

/// Service + server, bundled with crash/restart controls.
class ClusterDataNode {
 public:
  ClusterDataNode(NodeId node, ClusterTopology* topology, UserFn fn,
                  RpcServerOptions server_options = {},
                  const LogStoreConfig& store_config = {});
  ~ClusterDataNode();

  /// Starts the RpcServer and publishes host:port into the topology.
  Status Start() JOINOPT_EXCLUDES(lifecycle_mu_);
  /// Crash: the server dies (port goes dark), the store survives.
  void Stop() JOINOPT_EXCLUDES(lifecycle_mu_);
  /// Re-serves the surviving store on the same port; bumps region epochs.
  Status Restart() JOINOPT_EXCLUDES(lifecycle_mu_);

  /// Safe against a concurrent Restart(): the server pointer swap happens
  /// under the lifecycle lock (a probe used to race the unique_ptr reset).
  bool running() const {
    MutexLock lock(lifecycle_mu_);
    return server_ != nullptr && server_->running();
  }
  uint16_t port() const {
    MutexLock lock(lifecycle_mu_);
    return port_;
  }
  ClusterNodeService& service() { return service_; }
  const RpcServer* server() const {
    MutexLock lock(lifecycle_mu_);
    return server_.get();
  }

 private:
  Status StartLocked() JOINOPT_REQUIRES(lifecycle_mu_);
  void StopLocked() JOINOPT_REQUIRES(lifecycle_mu_);

  NodeId node_;
  ClusterTopology* topology_;
  UserFn fn_;
  RpcServerOptions server_options_;
  ClusterNodeService service_;
  /// Guards the server pointer and the pinned port across crash/restart;
  /// held while calling into the server's own lifecycle (480 < 700).
  mutable Mutex lifecycle_mu_{lock_rank::kNodeLifecycle,
                              "ClusterDataNode::lifecycle_mu_"};
  std::unique_ptr<RpcServer> server_ JOINOPT_GUARDED_BY(lifecycle_mu_)
      JOINOPT_PT_GUARDED_BY(lifecycle_mu_);
  uint16_t port_ JOINOPT_GUARDED_BY(lifecycle_mu_) =
      0;  ///< pinned after the first Start so Restart reuses it
};

}  // namespace joinopt

#endif  // JOINOPT_CLUSTER_DATA_NODE_H_
