// RpcServer: the data-node side of the RPC transport. Wraps any in-process
// DataService (LocalDataService, LogStoreDataService, a LatencyPaddedService
// stack, ...) behind a TCP listener speaking the net/frame.h protocol.
//
// One serving backend (net/reactor/, DESIGN.md §13): a fixed pool of
// threads shares one epoll set of non-blocking sockets. The thread that
// takes a connection's readiness event owns that connection until it
// re-arms it, and serves it from read to write: it parses every complete
// frame, runs the verbs through the VerbDispatcher, then flushes the
// responses. Thread count is flat in connection count; pipelined requests
// on one connection are answered in order; a slow verb holds its own
// connection and one pool thread (the server stalls only while every pool
// thread is inside a verb); slow Notify subscribers are throttled with
// per-key event coalescing instead of dropped.
//
// Stop() severs every connection, then joins the pool; it is safe to call
// concurrently with in-flight requests and from the destructor.
//
// The UDF cannot travel over the wire: like HBase coprocessors, the
// function is *registered* server-side at construction, and Execute /
// ExecuteBatch requests name only (key, params). The client's fn argument
// is ignored (see DataService::Execute's contract in engine/async_api.h).
//
// Besides the five read/compute verbs the server speaks Put, the
// Subscribe/Notify invalidation stream and the anti-entropy verbs, but
// only when the wrapped service implements WritableDataService (discovered
// by dynamic_cast at construction). Tagged ExecuteBatch gets server-side
// replay dedup. Frames of any version but kWireVersion are refused
// in-band (see frame.h).
#ifndef JOINOPT_NET_RPC_SERVER_H_
#define JOINOPT_NET_RPC_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "joinopt/common/lock_ranks.h"
#include "joinopt/common/status.h"
#include "joinopt/common/sync.h"
#include "joinopt/engine/async_api.h"
#include "joinopt/net/verb_dispatcher.h"

namespace joinopt {

class ReactorCore;

/// Exists only for the join-path benchmark's context line
/// (perfbench/joinpath.cc names both values and active_backend()); the
/// server has one backend.
enum class RpcBackend {
  kThreadPerConnection,
  kReactor,
};

struct RpcServerOptions {
  /// Bind address. Tests and benches stay on loopback; never expose the
  /// protocol off-host without an authenticating proxy in front.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral (read the chosen port back with port()).
  uint16_t port = 0;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  int accept_backlog = 64;
  /// Tagged-batch responses remembered for replay dedup (exactly-once
  /// ExecuteBatch). FIFO-evicted; 0 disables dedup.
  size_t dedup_capacity = 1024;
  /// Bound on a subscription's per-key-coalesced pending Notify queue;
  /// only a distinct-key flood beyond it drops the stream (the subscriber
  /// re-syncs on redial).
  size_t subscription_queue_capacity = 4096;
  /// Per-connection write-queue byte watermarks: a connection's reads
  /// pause above high and resume at or below low (the slow-reader and
  /// pipelining backpressure bound).
  size_t write_high_watermark = 1u << 20;
  size_t write_low_watermark = 256u << 10;

  /// Logical endpoint id for NetFaultInjector partitions (net/net_fault.h).
  /// -1 (the default) opts out: the server is invisible to injected
  /// faults. The cluster layer sets this to the data node's id.
  int32_t net_identity = -1;
};

struct RpcServerStats {
  int64_t connections_accepted = 0;
  int64_t requests = 0;       ///< well-formed requests dispatched
  int64_t batch_items = 0;    ///< items carried by ExecuteBatch requests
  int64_t protocol_errors = 0;  ///< malformed frames / version mismatches
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;
  int64_t puts = 0;             ///< Put requests served
  int64_t subscriptions = 0;    ///< Subscribe streams established
  int64_t notify_events = 0;    ///< kNotifyEvt frames pushed
  int64_t batch_dedup_hits = 0;  ///< tagged batches answered from cache
  /// Stat requests served. Clients answer the Stat that follows a compute
  /// request from the response's piggybacked stat, so on a compute-heavy
  /// workload this stays near zero (DESIGN.md §10).
  int64_t stat_requests = 0;
  /// Gauge: pool threads currently serving. Stays flat as connections
  /// scale.
  int64_t server_threads = 0;
  int64_t live_connections = 0;  ///< gauge: open connections
  int64_t notify_coalesced = 0;  ///< events superseded in pending queues
  int64_t backpressure_pauses = 0;  ///< reads paused by flow control
};

class RpcServer {
 public:
  /// `inner` and `fn` must outlive the server and be thread-safe: the pool
  /// threads call them concurrently.
  RpcServer(DataService* inner, UserFn fn, RpcServerOptions options = {});
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Binds, listens and starts the pool. Fails (address in use,
  /// ...) without leaving threads behind. Serialized against Stop() and
  /// other Start() calls: concurrent double-Start is a FailedPrecondition
  /// for exactly one caller, never two listeners.
  Status Start() JOINOPT_EXCLUDES(lifecycle_mu_);

  /// Stops accepting, severs open connections and joins all threads.
  /// Idempotent.
  void Stop() JOINOPT_EXCLUDES(lifecycle_mu_);

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (valid after a successful Start()).
  uint16_t port() const {
    MutexLock lock(lifecycle_mu_);
    return port_;
  }
  const std::string& host() const { return options_.host; }

  /// Always kReactor; kept for the join-path benchmark's context line.
  RpcBackend active_backend() const { return RpcBackend::kReactor; }

  RpcServerStats stats() const;

 private:
  DataService* inner_;
  UserFn fn_;
  RpcServerOptions options_;
  mutable RpcAtomicStats stats_;
  VerbDispatcher dispatcher_;

  /// Serializes Start/Stop (held across the whole transition, including
  /// the pool joins in Stop — pool threads never take it).
  mutable Mutex lifecycle_mu_{lock_rank::kServerLifecycle,
                              "RpcServer::lifecycle_mu_"};
  uint16_t port_ JOINOPT_GUARDED_BY(lifecycle_mu_) = 0;
  /// Fresh instance per Start (a stopped core is not restartable;
  /// ClusterDataNode::Restart reuses this RpcServer object).
  std::unique_ptr<ReactorCore> reactor_ JOINOPT_GUARDED_BY(lifecycle_mu_);
  std::atomic<bool> running_{false};
};

}  // namespace joinopt

#endif  // JOINOPT_NET_RPC_SERVER_H_
