// Compute-side half of the wire-level invalidation path: one background
// thread per data node holds a Subscribe stream (frame.h v2) and feeds the
// events into callbacks — OnUpdate for in-order notifications, a targeted
// re-sync for everything the stream cannot vouch for.
//
// Epoch/seq discipline (see net/update_hub.h for the server side): the
// subscriber tracks the last seen (epoch, seq) per (node, region).
//   * seq == last + 1       -> deliver the invalidation (the common case).
//   * seq <= last           -> duplicate (snapshot/stream overlap); ignore.
//   * live-stream seq gap   -> benign: the server coalesces same-key
//                              events under backpressure, so the
//                              skipped seqs were superseded updates whose
//                              final versions arrive in later events.
//                              Deliver, count as coalesced_gaps, no re-sync.
//   * snapshot-ahead gap    -> updates happened while we were deaf
//                              (reconnect window): re-sync the region.
//   * epoch changed         -> the node restarted; every seq comparison is
//                              void: re-sync the region.
// "Re-sync a region" means dropping every cached payload whose key hashes
// into that region (ParallelInvoker::ResyncWhere) — targeted, not a full
// cache flush; the tests assert keys in untouched regions survive.
//
// Reconnect: any transport error tears the stream down; the thread redials
// with bounded backoff, compares the new epoch snapshot against its state,
// and re-syncs exactly the regions that advanced while it was deaf.
//
// Threading contract: callbacks (OnUpdate, the re-sync hook) fire on the
// per-node stream threads — one thread per data node, so callbacks for
// different nodes may run concurrently and must be thread-safe. mu_ (rank
// kSubscriberState=400, per-region epoch/seq + stats) is released before
// every callback: a slow re-sync stalls its own stream only, and callbacks
// may call back into the subscriber. Rank table: DESIGN.md §12.
#ifndef JOINOPT_CLUSTER_SUBSCRIBER_H_
#define JOINOPT_CLUSTER_SUBSCRIBER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "joinopt/cluster/topology.h"
#include "joinopt/common/lock_ranks.h"
#include "joinopt/common/status.h"
#include "joinopt/common/sync.h"
#include "joinopt/net/frame.h"

namespace joinopt {

struct UpdateSubscriberOptions {
  /// Poll tick while waiting for events (also the stop-latency bound).
  double poll_tick = 50e-3;
  /// Redial pacing after a torn stream.
  double reconnect_backoff = 20e-3;
  double connect_deadline = 1.0;
  /// NodeId reported in the SubscribeRequest (diagnostic only).
  NodeId subscriber_id = 0;
  /// Logical endpoint id for NetFaultInjector partitions; -1 opts out.
  int32_t net_identity = -1;
};

struct UpdateSubscriberStats {
  int64_t notifications = 0;      ///< in-order events delivered
  int64_t duplicates_ignored = 0;  ///< seq <= last seen (at-least-once overlap)
  int64_t gaps_detected = 0;      ///< snapshot-ahead gaps (missed while deaf)
  /// Seqs skipped on a *live* stream: same-key events the server
  /// coalesced away. Benign — the delivered event carries the key's final
  /// version — so these do NOT trigger re-syncs.
  int64_t coalesced_gaps = 0;
  int64_t epoch_bumps = 0;        ///< node restarts observed
  int64_t resyncs = 0;            ///< targeted region re-syncs triggered
  int64_t keys_dropped = 0;       ///< payloads dropped by those re-syncs
  int64_t reconnects = 0;         ///< stream teardowns that were redialed
};

class UpdateSubscriber {
 public:
  /// Called for every in-order invalidation event.
  using UpdateFn = std::function<void(Key key, uint64_t version)>;
  /// Called when a region of `node` needs a re-sync; returns the number of
  /// payloads dropped (fed into stats().keys_dropped).
  using ResyncFn = std::function<int64_t(NodeId node, int region)>;

  /// Subscribes to every node in `nodes` (endpoints read from `topology`
  /// at dial time, so a restart on the same port is re-reached). Threads
  /// start immediately.
  UpdateSubscriber(ClusterTopology* topology, std::vector<NodeId> nodes,
                   UpdateFn on_update, ResyncFn on_resync,
                   UpdateSubscriberOptions options = {});
  ~UpdateSubscriber();

  UpdateSubscriber(const UpdateSubscriber&) = delete;
  UpdateSubscriber& operator=(const UpdateSubscriber&) = delete;

  /// Tears all streams down and joins the threads. Idempotent.
  void Stop();

  /// Severs `node`'s stream at the socket (the fault hook: simulates a
  /// half-dead link without touching the server).
  void DropConnectionForTest(NodeId node);

  /// True once every subscribed node has delivered at least one snapshot.
  bool AllSnapshotsSeen() const;

  UpdateSubscriberStats stats() const;

 private:
  void StreamLoop(size_t slot, NodeId node);
  /// Reconciles a snapshot or event against the per-region state; triggers
  /// re-syncs. Returns true when the event should be delivered.
  bool Reconcile(NodeId node, int region, uint64_t epoch, uint64_t seq,
                 bool is_event) JOINOPT_EXCLUDES(mu_);
  /// Runs the re-sync callback with mu_ released: the callback walks
  /// invoker shard locks, which rank *below* kSubscriberState — holding
  /// mu_ across it is the inversion the checker exists to catch.
  void RunResync(NodeId node, int region) JOINOPT_EXCLUDES(mu_);

  ClusterTopology* topology_;
  std::vector<NodeId> nodes_;
  UpdateFn on_update_;
  ResyncFn on_resync_;
  UpdateSubscriberOptions options_;

  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
  /// Live stream fd per slot (-1 when disconnected); written by the stream
  /// thread, shutdown() by Stop/DropConnectionForTest.
  std::vector<std::unique_ptr<std::atomic<int>>> fds_;
  std::vector<std::unique_ptr<std::atomic<bool>>> snapshot_seen_;

  struct RegionState {
    uint64_t epoch = 0;
    uint64_t seq = 0;
    bool seen = false;
  };
  mutable Mutex mu_{lock_rank::kSubscriberState, "UpdateSubscriber::mu_"};
  std::map<std::pair<NodeId, int>, RegionState> state_ JOINOPT_GUARDED_BY(mu_);
  UpdateSubscriberStats stats_ JOINOPT_GUARDED_BY(mu_);
};

}  // namespace joinopt

#endif  // JOINOPT_CLUSTER_SUBSCRIBER_H_
