// The Section 7 programming API as a real, in-process executor (not the
// simulator): the <preMap, map> pair of Figure 10 with submitComp /
// fetchComp calls, a prefetch queue, and a result hash-map (Figure 4).
//
// A user registers f'(k, p, v); submitComp(k, p) enqueues a prefetch
// request; fetchComp(k, p) returns the computed value, executing whatever
// the optimizer decided: local computation on a cached value, a "data
// request" (fetch the value from the service, cache it per Algorithm 1,
// compute locally), or a "compute request" (delegate to the service — the
// coprocessor path). Costs are measured with real clocks and fed to the
// same DecisionEngine the simulator uses, so the ski-rental caching policy
// is live on real payloads.
//
// The provided LocalDataService backs the API with an in-process
// ParallelStore; a deployment would implement DataService over HBase or any
// store with server-side function shipping.
#ifndef JOINOPT_ENGINE_ASYNC_API_H_
#define JOINOPT_ENGINE_ASYNC_API_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "joinopt/common/status.h"
#include "joinopt/engine/async_api_fwd.h"
#include "joinopt/engine/plan_exec.h"
#include "joinopt/skirental/decision_engine.h"
#include "joinopt/store/log_store.h"
#include "joinopt/store/parallel_store.h"

namespace joinopt {

class NodeLoadView;

/// Remote side of the API: point fetches and server-side execution.
///
/// Contract (load-bearing — two implementations cross threads: the
/// in-process services below, and the socket-backed RpcClientService /
/// RpcServer pair in net/, whose wire protocol is DESIGN.md §10):
///
///  * Thread safety: every verb must be safe to call from any number of
///    threads concurrently, with no external locking. The ParallelInvoker's
///    workers overlap calls freely, and the RpcServer dispatches each
///    connection from its own thread into the wrapped service. In-process
///    implementations satisfy this with atomic counters over an immutable
///    (or externally synchronized) store; RpcClientService with
///    per-endpoint connection pools.
///  * Blocking: every verb is synchronous and may block the calling thread
///    — for in-process services microseconds, for networked ones a full
///    round trip (or several, under retry/failover). No verb may block
///    forever: socket-backed implementations enforce connect/IO deadlines
///    and surface expiry as Status kAborted (the retriable transport
///    class; see net/socket.h's error-mapping notes). Callers must not
///    hold locks across any DataService call.
///  * Errors: application-level failures (missing key, bad params) use the
///    specific codes (kNotFound, kInvalidArgument, ...); kAborted is
///    reserved for transport failures, which callers may retry and the
///    ParallelInvoker counts as ParallelInvokerStats::transport_errors.
class DataService {
 public:
  virtual ~DataService() = default;

  struct Fetched {
    std::string value;
    uint64_t version = 0;
  };
  /// Data request: returns the stored value for caching + local execution.
  /// Blocking (one round trip remote); thread-safe; the returned payload
  /// is an independent copy the caller may cache without aliasing worries.
  virtual StatusOr<Fetched> Fetch(Key key) = 0;
  /// Compute request: executes `fn` next to the data ("coprocessor").
  /// Blocking (round trip + UDF service time); thread-safe — `fn` itself
  /// must be thread-safe, since data-side execution may run it on any
  /// thread. Networked services do NOT ship `fn`: the UDF is registered at
  /// the server (RpcServer's constructor) and the argument here is ignored
  /// — callers must pass the same function they deployed, or results will
  /// differ between local and delegated execution (DESIGN.md §10).
  virtual StatusOr<std::string> Execute(Key key, const std::string& params,
                                        const UserFn& fn) = 0;
  /// Batched compute request: one round trip carrying many (k, p) pairs to
  /// the same data node (Section 7.2's batching applied to delegations).
  /// The default loops over Execute; networked services override it to
  /// amortize the round trip — the wire format (§10) carries the whole
  /// batch in a single request/response frame pair. Results are
  /// index-aligned with `items`; a transport failure fails every item with
  /// the same kAborted status. Blocking for the whole batch; thread-safe.
  virtual std::vector<StatusOr<std::string>> ExecuteBatch(
      const std::vector<std::pair<Key, std::string>>& items,
      const UserFn& fn) {
    std::vector<StatusOr<std::string>> out;
    out.reserve(items.size());
    for (const auto& [key, params] : items) {
      out.push_back(Execute(key, params, fn));
    }
    return out;
  }
  /// Metadata only (size + version) — what a compute-request response
  /// piggybacks (Section 4.3) without shipping the payload.
  struct ItemStat {
    double size_bytes = 0;
    uint64_t version = 0;
  };
  /// Blocking (round trip remote, but payload-free — cheap even over a
  /// network); thread-safe; const so decision-engine probes can run
  /// against a const service reference. Networked clients may answer the
  /// Stat that follows a compute request without a round trip, from the
  /// (size, version) the compute response piggybacked: RpcClientService
  /// always (its balanced reads already accept any replica),
  /// ClusterClientService under ReadConsistency::kAny only. Each
  /// piggybacked stat answers one Stat, and the client's own Put of the
  /// key drops it (net/stat_piggyback.h).
  virtual StatusOr<ItemStat> Stat(Key key) const = 0;
  /// Placement: which (logical) data node owns the key. Blocking (one
  /// round trip for socket-backed services, which return kInvalidNode when
  /// every replica is unreachable — callers treat that as "placement
  /// unknown", not an error); thread-safe; const.
  virtual NodeId OwnerOf(Key key) const = 0;
};

/// In-process DataService over a ParallelStore holding real payloads.
class LocalDataService : public DataService {
 public:
  explicit LocalDataService(ParallelStore* store) : store_(store) {}

  StatusOr<Fetched> Fetch(Key key) override;
  StatusOr<std::string> Execute(Key key, const std::string& params,
                                const UserFn& fn) override;
  StatusOr<ItemStat> Stat(Key key) const override;
  NodeId OwnerOf(Key key) const override { return store_->OwnerOf(key); }

  int64_t fetches() const { return fetches_; }
  int64_t executes() const { return executes_; }
  /// Number of Stat probes served (cost-model observability).
  int64_t stats() const { return stats_; }

 private:
  ParallelStore* store_;
  std::atomic<int64_t> fetches_{0};
  std::atomic<int64_t> executes_{0};
  mutable std::atomic<int64_t> stats_{0};
};

/// DataService over a LogStructuredStore — the fully real storage path:
/// payloads live in the segmented log, versions come from the log's
/// per-key version chain. `num_shards` only affects OwnerOf (placement
/// metadata for the cost model); the store itself is one process.
class LogStoreDataService : public DataService {
 public:
  LogStoreDataService(LogStructuredStore* store, int num_shards = 4)
      : store_(store), num_shards_(num_shards) {}

  StatusOr<Fetched> Fetch(Key key) override {
    ++fetches_;
    auto value = store_->Get(key);
    if (!value.ok()) return value.status();
    return Fetched{std::move(value).value(), store_->VersionOf(key)};
  }

  StatusOr<std::string> Execute(Key key, const std::string& params,
                                const UserFn& fn) override {
    ++executes_;
    auto value = store_->Get(key);
    if (!value.ok()) return value.status();
    return fn(key, params, *value);
  }

  StatusOr<ItemStat> Stat(Key key) const override {
    ++stats_;
    auto value = store_->Get(key);
    if (!value.ok()) return value.status();
    return ItemStat{static_cast<double>(value->size()),
                    store_->VersionOf(key)};
  }

  NodeId OwnerOf(Key key) const override {
    return static_cast<NodeId>(Mix64(key) %
                               static_cast<uint64_t>(num_shards_));
  }

  int64_t fetches() const { return fetches_; }
  int64_t executes() const { return executes_; }
  /// Number of Stat probes served: Stat performs a store Get too, so
  /// cost-model probes are observable separately from data requests.
  int64_t stats() const { return stats_; }

 private:
  LogStructuredStore* store_;
  int num_shards_;
  std::atomic<int64_t> fetches_{0};
  std::atomic<int64_t> executes_{0};
  mutable std::atomic<int64_t> stats_{0};
};

struct AsyncInvokerStats {
  int64_t submitted = 0;
  int64_t served_from_cache = 0;
  int64_t fetched_then_computed = 0;
  int64_t delegated = 0;  // compute requests
  /// Unclaimed prefetched results dropped by the result-map bound.
  int64_t dropped_results = 0;
};

struct AsyncInvokerOptions {
  DecisionEngineConfig decision;
  /// Used for the cost model's network terms; a logical constant here
  /// since the local service has no real network.
  double bandwidth_bytes_per_sec = 125e6;
  /// Bound on unclaimed prefetched results (SubmitComp entries never
  /// claimed by FetchComp). When exceeded, the oldest half (by submission
  /// order) is dropped. 0 = unbounded (the pre-bound behaviour).
  size_t max_unclaimed_results = 1 << 16;
  /// Optional shared load view (DESIGN.md §15): the invoker periodically
  /// pushes the cost model's smoothed per-node tCompute/tFetch estimates
  /// into it, giving replica selection a latency prior before any direct
  /// observation exists. Null disables the feed.
  NodeLoadView* load_view = nullptr;
};

/// The preMap/map executor. Deterministic single-threaded implementation:
/// SubmitComp records the request and runs the optimizer's plan eagerly;
/// FetchComp returns the memoized result (or computes on demand for
/// requests that were never submitted — the blocking fallback).
class AsyncInvoker {
 public:
  using Options = AsyncInvokerOptions;

  AsyncInvoker(DataService* service, UserFn fn,
               const Options& options = Options());
  ~AsyncInvoker();

  /// preMap: announce that (key, params) will be needed (Figure 10's
  /// submitComp). Triggers routing, prefetching and caching.
  void SubmitComp(Key key, std::string params);

  /// map: obtain the computed value (Figure 10's fetchComp).
  StatusOr<std::string> FetchComp(Key key, const std::string& params);

  /// Invalidate a cached value after a store update (Section 4.2.3).
  void OnUpdate(Key key, uint64_t new_version);

  const AsyncInvokerStats& stats() const { return stats_; }
  const DecisionEngine& engine() const { return *engine_; }
  /// Unclaimed prefetched results currently held.
  size_t pending_results() const { return results_.size(); }

 private:
  struct CachedValue {
    std::string value;
    uint64_t version = 0;
  };

  /// Executes the optimizer's plan for one request and returns the result.
  StatusOr<std::string> Run(Key key, const std::string& params);
  /// Drops payloads whose cache residency the engine has revoked.
  void TrimEvicted();

  DataService* service_;
  UserFn fn_;
  Options options_;
  std::unique_ptr<DecisionEngine> engine_;
  /// Real payloads for keys the engine's cache holds (the engine tracks
  /// sizes/benefits; the bytes live here).
  std::unordered_map<Key, CachedValue> values_;
  /// Result hash-map: (key, params) -> FIFO of computed results, bounded
  /// per options_.max_unclaimed_results.
  BoundedResultMap results_;
  AsyncInvokerStats stats_;
  int64_t runs_since_trim_ = 0;
  int64_t runs_since_load_push_ = 0;
};

}  // namespace joinopt

#endif  // JOINOPT_ENGINE_ASYNC_API_H_
