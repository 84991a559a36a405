// Write-path extension of the DataService contract, used by the RPC layer
// to expose Put and the Subscribe/Notify invalidation stream (frame.h v2).
//
// A data node that owns mutable state implements WritableDataService; the
// RpcServer discovers the capability with a dynamic_cast at construction,
// so read-only services (LocalDataService, a bench echo service, ...) keep
// working unchanged — they simply answer Put/Subscribe with Unimplemented.
//
// Epoch/sequence discipline (the §4.2 invalidation path over real
// sockets): every region carries an (epoch, seq) pair. `seq` increments
// once per update in that region; `epoch` bumps when the node restarts,
// because its in-memory subscriber registrations died with it and a bare
// sequence comparison across the restart would silently miss updates. A
// subscriber re-syncs a region whenever it observes an epoch change or a
// sequence gap — see cluster/subscriber.h for the compute-side half.
#ifndef JOINOPT_NET_UPDATE_HUB_H_
#define JOINOPT_NET_UPDATE_HUB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "joinopt/common/status.h"
#include "joinopt/engine/async_api.h"
#include "joinopt/net/frame.h"

namespace joinopt {

/// Receiver of update events. Registered sinks are invoked synchronously
/// on the writer's thread with the service's update lock held: an
/// implementation must be fast and must never call back into the service.
/// (The RpcServer's per-subscription sink just appends to a bounded,
/// per-key-coalesced queue that a pool thread flushes.)
class UpdateSink {
 public:
  virtual ~UpdateSink() = default;
  virtual void OnUpdateEvent(const UpdateEvent& event) = 0;
};

/// A DataService that also accepts writes and publishes an invalidation
/// stream. All methods are thread-safe.
class WritableDataService : public DataService {
 public:
  /// Stores `value` under `key`; returns the new (monotonic per-key)
  /// version. Bumps the owning region's sequence number and fans the
  /// resulting UpdateEvent out to every registered sink before returning.
  virtual StatusOr<uint64_t> Put(Key key, const std::string& value) = 0;

  /// Replica write: applies `value` under ApplyIfNewer semantics with the
  /// primary's assigned `version` as floor, so every replica of one
  /// logical write converges on the same version number (the invariant
  /// version-aware merges and "never read below the acked version" both
  /// depend on). Returns the key's resulting local version — `version`
  /// when applied, the existing newer version when the local copy already
  /// superseded it (still an ack: the replica holds data at least as new).
  /// Default Unimplemented: only replicated node services take part in
  /// write fan-out.
  virtual StatusOr<uint64_t> PutReplica(Key key, const std::string& value,
                                        uint64_t version) {
    (void)key;
    (void)value;
    (void)version;
    return Status::Unimplemented("replica writes not supported");
  }

  /// Current (epoch, seq) for every region this node can serve. Taken
  /// *after* AddUpdateSink to hand a new subscriber a position no event
  /// can slip behind (at-least-once: the subscriber dedups overlap).
  virtual std::vector<RegionEpoch> EpochSnapshot() const = 0;

  virtual void AddUpdateSink(UpdateSink* sink) = 0;
  virtual void RemoveUpdateSink(UpdateSink* sink) = 0;

  // ---- anti-entropy hooks (live replica repair, DESIGN.md §16) ----
  // Defaults answer Unimplemented so existing writable services (the
  // loopback test hub, wrappers) need no changes; ClusterNodeService
  // overrides both.

  /// Cheap content summary of one region (see RegionSummary in frame.h).
  virtual StatusOr<RegionSummary> SummarizeRegion(int32_t region) const {
    (void)region;
    return Status::Unimplemented("region summaries not supported");
  }

  /// Bidirectional repair: merge `records` (a peer's live copy of
  /// `region`) into local state, newest version per key winning, then
  /// return the local post-merge snapshot of the region for the peer to
  /// merge back. Neither side deletes: anti-entropy restores lost writes,
  /// it never propagates loss.
  virtual StatusOr<std::vector<RegionRecord>> SyncRegion(
      int32_t region, const std::vector<RegionRecord>& records) {
    (void)region;
    (void)records;
    return Status::Unimplemented("region sync not supported");
  }
};

}  // namespace joinopt

#endif  // JOINOPT_NET_UPDATE_HUB_H_
