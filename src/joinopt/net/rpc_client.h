// RpcClientService: a DataService whose five verbs travel over TCP to one
// or more RpcServers. This is the client half of the transport — what a
// compute node holds instead of an in-process service pointer.
//
// Recovery: the options embed the engine's RecoveryConfig (engine/types.h),
// and failures drive the same timeout → backoff → replica-failover
// discipline the PR 1 fault machinery uses in the simulator, with activity
// reported through the same RecoveryCounters struct. Attempt k (0-based)
// targets endpoint k mod |endpoints| — the replica rotation of
// ComputeNodeRuntime::ReplicaForAttempt, applied to real sockets. Only
// *transport* errors (kAborted: refused/reset/closed connections and
// deadline expiries — see net/socket.h) are retried; in-band application
// statuses (NotFound, ...) are returned verbatim on the first attempt.
//
// Threading model: every verb is safe to call from any number of threads.
// Each endpoint has a bounded pool of idle connections; a call checks one
// out (dialing if the pool is empty), runs one synchronous request/response
// exchange, and returns the connection iff the exchange was clean. A
// connection that saw a transport error is closed, never reused — after a
// failed exchange the stream may hold a stale response that would desync
// the next caller.
//
// Piggybacked stats (Section 4.3): Execute and ExecuteBatch park each ok
// item's (size, version) from the response in a bounded StatPiggyback
// table, and Stat(key) answers from it once before going to the wire. This
// client's balanced reads already accept any replica, so a stat the
// primary returned with the compute result is as fresh as a balanced
// Stat. Put(key) clears the key's entry.
#ifndef JOINOPT_NET_RPC_CLIENT_H_
#define JOINOPT_NET_RPC_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "joinopt/common/lock_ranks.h"
#include "joinopt/common/random.h"
#include "joinopt/common/status.h"
#include "joinopt/common/sync.h"
#include "joinopt/engine/async_api.h"
#include "joinopt/engine/hedging_manager.h"
#include "joinopt/engine/types.h"
#include "joinopt/net/socket.h"
#include "joinopt/net/stat_piggyback.h"

namespace joinopt {

struct RpcEndpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct RpcClientOptions {
  /// Replica chain, primary first — the same ordering ParallelStore's
  /// ReplicasOf() exposes. Attempt k targets endpoints[k % size].
  std::vector<RpcEndpoint> endpoints;
  /// Deadline for dialing a new connection (covers the TCP handshake).
  double connect_deadline = 1.0;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Idle connections kept per endpoint; excess connections are closed on
  /// release rather than pooled.
  int max_pooled_per_endpoint = 8;
  /// The engine's recovery knobs, reused verbatim: request_timeout is the
  /// per-attempt IO deadline, backoff_base/max + jitter_fraction pace the
  /// retries, max_attempts bounds the failover rotation. enabled=false
  /// degrades to exactly one attempt with io deadline = request_timeout.
  RecoveryConfig recovery;
  /// Spread read verbs (Fetch/Stat/OwnerOf) across the whole replica chain
  /// by least-outstanding-requests (round-robin among ties) instead of
  /// always dialing the primary. Writes and Execute/ExecuteBatch stay
  /// primary-first: delegated compute must run where the engine's cost
  /// model placed it. Failover rotation still applies on top, starting
  /// from the balanced choice.
  bool balance_reads = true;
  /// Shared hedging manager (DESIGN.md §15). When null and
  /// recovery.hedging is set, the client builds a private one from the
  /// recovery knobs (hedge_percentile/budget/burst, with hedge_delay as
  /// the pre-warmup fallback; recovery.adaptive_hedging=false pins the
  /// delay to hedge_delay forever while keeping the budget). Supplying one
  /// here pools the quantiles and the hedge budget across clients — the
  /// cluster layer does this so the whole process shares one budget.
  std::shared_ptr<HedgingManager> hedging;
  /// Seed for the deterministic backoff jitter.
  uint64_t seed = 0x5ca1ab1e;
  /// Logical endpoint id for NetFaultInjector partitions (net/net_fault.h).
  /// -1 (the default) opts out. The chaos harness tags cluster-internal
  /// clients with their owning node's id so half-open partitions hit the
  /// node-to-node paths, not just the external workload.
  int32_t net_identity = -1;
  /// Hedge idempotent tagged batches (ExecuteBatchTagged with a nonzero
  /// client id) like reads: a straggling batch is duplicated after the
  /// hedge delay, and — unlike reads — the duplicate may target the *same*
  /// endpoint, where the server's replay-dedup cache absorbs it (the
  /// in-flight-wait path makes racing duplicates exactly-once). This is
  /// what makes hedging useful to the cluster layer, whose per-node
  /// clients have single-endpoint chains.
  bool hedge_idempotent_batches = false;

  RpcClientOptions() {
    // Unlike the simulator (recovery off by default so event streams stay
    // byte-identical), a socket client always wants deadlines: a real
    // network can silently eat a request, and blocking forever is never
    // the right contract for DataService implementations.
    recovery.enabled = true;
    recovery.request_timeout = 2.0;
    recovery.backoff_base = 10e-3;
    recovery.backoff_max = 200e-3;
    recovery.max_attempts = 4;
  }
};

struct RpcClientStats {
  int64_t calls = 0;             ///< verb invocations (a batch counts once)
  int64_t connections_opened = 0;
  int64_t bytes_out = 0;
  int64_t bytes_in = 0;
};

class RpcClientService : public DataService {
 public:
  explicit RpcClientService(RpcClientOptions options);
  ~RpcClientService() override;

  RpcClientService(const RpcClientService&) = delete;
  RpcClientService& operator=(const RpcClientService&) = delete;

  // DataService verbs. `fn` is ignored by Execute/ExecuteBatch: the UDF is
  // registered server-side (RpcServer's constructor), coprocessor-style.
  StatusOr<Fetched> Fetch(Key key) override;
  StatusOr<std::string> Execute(Key key, const std::string& params,
                                const UserFn& fn) override;
  std::vector<StatusOr<std::string>> ExecuteBatch(
      const std::vector<std::pair<Key, std::string>>& items,
      const UserFn& fn) override;
  /// Answered from the stat the last compute response for `key`
  /// piggybacked, if one is parked; otherwise one round trip.
  StatusOr<ItemStat> Stat(Key key) const override;
  /// One round trip; kInvalidNode when every replica is unreachable.
  NodeId OwnerOf(Key key) const override;

  /// Writes over the wire; returns the new store version.
  /// Unimplemented when the server's service is not writable. A non-zero
  /// `version_floor` marks a replica write: the server applies with
  /// ApplyIfNewer semantics at the primary's version instead of assigning
  /// its own, so all replicas of one logical write share one number.
  StatusOr<uint64_t> Put(Key key, const std::string& value,
                         uint64_t version_floor = 0);

  /// ExecuteBatch with a caller-chosen dedup tag. The encoded request —
  /// tag included — is reused byte-identical across retry attempts, so a
  /// replay whose original response was lost is answered from the server's
  /// dedup cache instead of re-executing (exactly-once). The cluster layer
  /// uses this to keep the tag stable even when the retry lands on a
  /// different node's client. client_id 0 disables dedup. `stats`
  /// (optional) receives each item's piggybacked stat, index-aligned with
  /// `items`; they are handed to the caller, not parked in this client's
  /// table.
  std::vector<StatusOr<std::string>> ExecuteBatchTagged(
      const std::vector<std::pair<Key, std::string>>& items,
      uint64_t client_id, uint64_t batch_seq,
      std::vector<std::optional<ItemStat>>* stats = nullptr);
  /// Execute that hands the piggybacked stat to the caller through `stat`
  /// (empty on any failure) instead of parking it in this client's table.
  StatusOr<std::string> ExecuteWithStat(Key key, const std::string& params,
                                        std::optional<ItemStat>* stat);

  /// Anti-entropy verbs (DESIGN.md §16). Unimplemented when the
  /// server's service carries no region state.
  StatusOr<RegionSummary> SummarizeRegion(int32_t region);
  StatusOr<std::vector<RegionRecord>> SyncRegion(
      int32_t region, const std::vector<RegionRecord>& records);

  /// What the recovery machinery did (same struct the simulator reports);
  /// tuples_failed counts calls abandoned after max_attempts.
  RecoveryCounters recovery_counters() const;
  RpcClientStats stats() const;
  size_t num_endpoints() const { return options_.endpoints.size(); }
  /// This client's auto-assigned batch-dedup id (nonzero, per-instance).
  uint64_t client_id() const { return client_id_; }

 private:
  struct Pool {
    /// Innermost lock (all pools share the rank; never nested).
    Mutex mu{lock_rank::kClientPool, "RpcClientService::Pool::mu"};
    std::vector<UniqueFd> idle JOINOPT_GUARDED_BY(mu);
  };

  /// Completion latch for one hedged read: the waiter blocks on `cv`
  /// while up to two attempt threads race; the first success wins.
  /// Heap-allocated and shared with the attempt threads, so a late loser
  /// finishing after the waiter returned still has somewhere to land.
  struct HedgeState {
    Mutex mu{lock_rank::kHedgeState, "RpcClientService::HedgeState::mu"};
    CondVar cv;
    /// Set once before any attempt launches: a duplicated tagged batch
    /// whose loser also succeeded was absorbed by the server's dedup
    /// cache, and is counted separately from ordinary read duplicates.
    bool is_batch = false;
    int pending JOINOPT_GUARDED_BY(mu) = 0;  ///< attempts still running
    bool has_winner JOINOPT_GUARDED_BY(mu) = false;
    bool winner_is_hedge JOINOPT_GUARDED_BY(mu) = false;
    std::string winner_body JOINOPT_GUARDED_BY(mu);
    bool has_error JOINOPT_GUARDED_BY(mu) = false;
    Status first_error JOINOPT_GUARDED_BY(mu) = Status::OK();
  };

  /// One request/response exchange with retry + failover. Returns the
  /// response body after verifying type and seq echo. `read` routes the
  /// first attempt through the load balancer (see balance_reads) and, when
  /// hedging is on, through the hedged exchange. `idempotent` marks a
  /// request safe to duplicate even against a single endpoint (tagged
  /// batches, whose dedup tag makes the replay exactly-once).
  StatusOr<std::string> Call(MsgType req_type, const std::string& body,
                             bool read = false,
                             bool idempotent = false) const;
  /// One attempt against one endpoint (no retries).
  StatusOr<std::string> CallOnce(size_t endpoint_idx, MsgType req_type,
                                 const std::string& body) const;
  /// CallOnce plus the bookkeeping an attempt needs: outstanding counts,
  /// latency measurement, and (when hedging) quantile/budget feeds.
  StatusOr<std::string> TimedCallOnce(size_t endpoint_idx, MsgType req_type,
                                      const std::string& body,
                                      bool is_hedge) const;
  /// The hedged read exchange (DESIGN.md §15): fire the primary, wait
  /// HedgeDelay(primary); if still unanswered and the budget grants a
  /// token, duplicate to `secondary`; first success wins, both-fail
  /// returns the first error into Call's retry loop.
  StatusOr<std::string> HedgedCall(size_t primary, size_t secondary,
                                   MsgType req_type,
                                   const std::string& body) const;
  /// Spawns one detached attempt thread reporting into `state`.
  void LaunchAttempt(std::shared_ptr<HedgeState> state, size_t endpoint_idx,
                     MsgType req_type, std::string body, bool is_hedge) const;
  /// First endpoint for a call: 0 (primary) for writes, the
  /// least-outstanding endpoint (round-robin among ties) for balanced
  /// reads.
  size_t StartEndpoint(bool read) const;
  StatusOr<UniqueFd> Acquire(size_t endpoint_idx) const;
  void Release(size_t endpoint_idx, UniqueFd fd) const;
  void NoteTransportError(const Status& status) const;
  double BackoffSeconds(int attempt) const;

  RpcClientOptions options_;
  /// Null unless hedging is configured (options_.hedging or built from the
  /// recovery knobs). Shared with attempt threads and possibly siblings.
  std::shared_ptr<HedgingManager> hedging_;
  /// Attempt threads in flight (hedged exchanges outlive their waiter);
  /// the destructor spins until this drains — bounded by the IO deadline.
  mutable std::atomic<int> inflight_attempts_{0};
  mutable std::vector<std::unique_ptr<Pool>> pools_;
  /// In-flight request count per endpoint (the load-balancing signal).
  mutable std::vector<std::unique_ptr<std::atomic<int>>> outstanding_;
  mutable std::atomic<uint32_t> balance_rr_{0};
  mutable std::atomic<uint32_t> seq_{1};
  mutable std::atomic<uint64_t> batch_seq_{0};
  uint64_t client_id_ = 0;
  /// Stats parked by Execute/ExecuteBatch for the next Stat of each key.
  mutable StatPiggyback piggyback_;

  mutable Mutex rec_mu_{lock_rank::kClientRecovery,
                        "RpcClientService::rec_mu_"};
  mutable RecoveryCounters rec_ JOINOPT_GUARDED_BY(rec_mu_);
  mutable Rng jitter_rng_ JOINOPT_GUARDED_BY(rec_mu_);

  struct AtomicStats {
    std::atomic<int64_t> calls{0};
    std::atomic<int64_t> connections_opened{0};
    std::atomic<int64_t> bytes_out{0};
    std::atomic<int64_t> bytes_in{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace joinopt

#endif  // JOINOPT_NET_RPC_CLIENT_H_
