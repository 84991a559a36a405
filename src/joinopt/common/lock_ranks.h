// The cross-module lock hierarchy, as explicit ranks (DESIGN.md §12).
//
// Rule: a thread may only acquire a mutex whose rank is strictly greater
// than every ranked mutex it already holds. Ranks therefore order locks
// outermost-first: rank N code may call into rank M code and take its
// locks iff N < M. The debug lock-order checker in sync.h aborts — naming
// both acquisition sites — on any violation, so an inversion introduced on
// a rare path (a fault-recovery callback, an epoch re-sync) dies loudly in
// the first test that reaches it instead of deadlocking in production.
//
// Gaps between ranks leave room to slot new locks between layers without
// renumbering. A mutex constructed without a rank is exempt from ordering
// (but still tracked for AssertHeld); production locks in engine/, net/
// and cluster/ must all take a rank from this table. Mutexes sharing a
// rank (e.g. all invoker shards) may never nest with each other — the
// checker rejects equal ranks too.
#ifndef JOINOPT_COMMON_LOCK_RANKS_H_
#define JOINOPT_COMMON_LOCK_RANKS_H_

namespace joinopt {
namespace lock_rank {

/// Chaos soak oracle state (per-key expected sequences + violation log).
/// Outermost by construction: workload threads consult it holding nothing,
/// and it calls nothing while held.
inline constexpr int kChaosOracle = 60;

/// ComputeWorkerGroup::mu_ — outermost: the compute pool's dispatch state
/// is released before any invoker/engine/client call.
inline constexpr int kComputeGroup = 100;

/// ParallelInvoker::barrier_mu_ — only pairs with the outstanding_ atomic.
inline constexpr int kInvokerBarrier = 150;

/// ParallelInvoker::Shard::mu — one stripe of the decision engine + payload
/// cache. The engine, TieredCache and BoundedResultMap inside a shard carry
/// no locks of their own: they are data guarded by this rank.
inline constexpr int kInvokerShard = 200;

/// TieredCache::mu_ — one cache's residency maps and stats. A leaf taken
/// under the owning invoker shard's kInvokerShard lock (the cache calls
/// nothing that locks: BenefitPolicy is plain data); also reachable
/// cross-thread by the subscriber re-sync path and the reactor's Notify
/// flow control, which is why it carries its own lock at all.
inline constexpr int kTieredCache = 220;

/// ParallelInvoker::deleg_mu_ — per-destination delegation batches.
inline constexpr int kInvokerDelegation = 250;

/// BoundedQueue::mu_ (the invoker's prefetch conduit).
inline constexpr int kInvokerQueue = 300;

/// NodeLoadView::mu_ — the shared per-node load estimates (latency EWMAs
/// + cost-model tCompute/tFetch). A leaf consulted by pickers and fed by
/// completion paths; ranked above the invoker shards because cost-model
/// observations are pushed while a shard lock (kInvokerShard) is held.
inline constexpr int kNodeLoadView = 270;

/// UpdateSubscriber::mu_ — per-(node, region) stream positions. Ranked
/// *above* the invoker shards on purpose: the re-sync callback walks shard
/// locks, so holding subscriber state across it would invert; the checker
/// turns that latent deadlock into an abort.
inline constexpr int kSubscriberState = 400;

/// ClusterController::mu_ — strike counts. Released before the topology
/// promotion it triggers (which would be legal nesting, but staying out of
/// the topology lock keeps the dead-node hook callback unconstrained).
inline constexpr int kControllerState = 450;

/// AntiEntropyAgent::mu_ — repair stats + the sweep timer's condvar. The
/// sweep thread releases it before every RPC or node-service call, so it
/// nests with nothing below.
inline constexpr int kAntiEntropy = 460;

/// ClusterDataNode lifecycle — the server pointer and pinned port. Held
/// across Start/Restart, which publish endpoints into the topology and
/// bump epochs under the update lock, so it sits below all three.
inline constexpr int kNodeLifecycle = 480;

/// ClusterNodeService::store_mu_ — one data node's LogStructuredStore.
/// Snapshot predicates consult the topology while this is held, so it
/// ranks below kTopology.
inline constexpr int kNodeStore = 500;

/// ClusterTopology::mu_ — the shared routing view. A leaf: topology
/// methods never call out while holding it.
inline constexpr int kTopology = 560;

/// ClusterNodeService::update_mu_ — region epochs + sink list, held across
/// the sink fan-out (which takes each subscribed connection's kReactorConn
/// below it — the one deliberate cross-module nesting in the system).
inline constexpr int kNodeUpdateFanout = 600;

/// RpcServer lifecycle (Start/Stop serialization).
inline constexpr int kServerLifecycle = 700;

/// RpcServer::dedup_mu_ — tagged-batch replay cache.
inline constexpr int kServerDedup = 740;

/// ReactorCore::conns_mu_ — the open-connection registry (id -> conn).
/// Taken by pool threads holding nothing (accept, event lookup, teardown)
/// and by Stop() under kServerLifecycle to sever every connection.
inline constexpr int kReactorConns = 750;

/// ReactorConn::mu_ — one connection's ownership flag, bounded write
/// queue and pending Notify coalescing state. Innermost of the reactor:
/// taken by pool threads (holding nothing) and by the update fan-out
/// (holding kNodeUpdateFanout).
inline constexpr int kReactorConn = 780;

/// RpcClientService / ClusterClientService rec_mu_ — recovery counters and
/// the jitter RNG.
inline constexpr int kClientRecovery = 800;

/// RpcClientService hedged-call completion latch (one per hedged
/// exchange): the winner-takes-first state both attempt threads and the
/// caller synchronize on. Sits above kClientRecovery (counters are
/// updated outside the latch) and below kHedging, though today the
/// budget is consulted between the latch's two wait scopes, not under it.
inline constexpr int kHedgeState = 805;

/// HedgingManager::mu_ — per-endpoint latency quantiles + the hedge-rate
/// token bucket. A leaf: the manager calls nothing while holding it.
inline constexpr int kHedging = 820;

/// StatPiggyback::mu_ — the stats a client parked from compute responses
/// for the Stat that follows (one table per RpcClientService and per
/// ClusterClientService). A leaf: record, take and forget touch only the
/// slot array, and callers hold no lock when they call in.
inline constexpr int kStatPiggyback = 830;

/// RpcClientService::Pool::mu — per-endpoint idle-connection pool; the
/// innermost lock before the raw socket.
inline constexpr int kClientPool = 850;

/// NetFaultInjector::mu_ — the socket-level partition registry. The very
/// innermost lock in the process: its hooks run inside TcpConnect /
/// SendAll / accept paths, which may be reached under any other lock.
inline constexpr int kNetFault = 900;

}  // namespace lock_rank
}  // namespace joinopt

#endif  // JOINOPT_COMMON_LOCK_RANKS_H_
