// VerbDispatcher: the backend-independent request/response core of the
// RPC server. Both serving backends — the thread-per-connection loop in
// rpc_server.cc and the epoll reactor in net/reactor/ — feed decoded
// frames through one shared dispatcher, so verb semantics (the version
// check, the stats piggybacked on compute responses, tagged-batch replay
// dedup) are defined exactly once and cannot drift between backends.
//
// Thread safety: Dispatch is called concurrently from connection threads
// (legacy backend) or worker-pool threads (reactor). The only internal
// state is the tagged-batch dedup cache, guarded by its own ranked mutex;
// everything else delegates to the wrapped DataService, which is
// thread-safe by the RpcServer contract.
#ifndef JOINOPT_NET_VERB_DISPATCHER_H_
#define JOINOPT_NET_VERB_DISPATCHER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "joinopt/common/lock_ranks.h"
#include "joinopt/common/sync.h"
#include "joinopt/engine/async_api.h"
#include "joinopt/net/frame.h"
#include "joinopt/net/update_hub.h"

namespace joinopt {

/// Lock-free counters shared by the server frontend, the dispatcher and
/// whichever backend is serving. One instance per RpcServer; snapshotted
/// into RpcServerStats by RpcServer::stats().
struct RpcAtomicStats {
  std::atomic<int64_t> connections_accepted{0};
  std::atomic<int64_t> requests{0};
  std::atomic<int64_t> batch_items{0};
  std::atomic<int64_t> protocol_errors{0};
  std::atomic<int64_t> bytes_in{0};
  std::atomic<int64_t> bytes_out{0};
  std::atomic<int64_t> puts{0};
  std::atomic<int64_t> subscriptions{0};
  std::atomic<int64_t> notify_events{0};
  std::atomic<int64_t> batch_dedup_hits{0};
  std::atomic<int64_t> stat_requests{0};
  // ---- gauges + reactor-era counters ----
  /// Threads currently serving (acceptor + per-connection threads for the
  /// legacy backend; IO threads + workers for the reactor). The reactor's
  /// headline property is that this stays flat as connections scale.
  std::atomic<int64_t> server_threads{0};
  std::atomic<int64_t> live_connections{0};
  /// Notify events superseded in a connection's pending queue by a newer
  /// same-key event (reactor flow control; see reactor/reactor_conn.h).
  std::atomic<int64_t> notify_coalesced{0};
  /// Times a connection's reads were paused by backpressure (write-queue
  /// high watermark or the pipeline limit).
  std::atomic<int64_t> backpressure_pauses{0};
};

/// True when the server can parse frames stamped with this version.
inline bool SupportedWireVersion(uint8_t v) {
  return v >= kMinWireVersion && v <= kWireVersion;
}

class VerbDispatcher {
 public:
  /// `inner` and `fn` must outlive the dispatcher and be thread-safe.
  /// `stats` is the server's shared counter block (borrowed).
  /// `dedup_capacity` bounds the tagged-batch replay cache; 0 disables it.
  VerbDispatcher(DataService* inner, UserFn fn, size_t dedup_capacity,
                 RpcAtomicStats* stats);

  VerbDispatcher(const VerbDispatcher&) = delete;
  VerbDispatcher& operator=(const VerbDispatcher&) = delete;

  /// Handles one decoded request frame; returns the response (type, body).
  /// A zero response type means the request type itself was invalid and
  /// the connection can no longer be trusted (the caller drops it).
  /// Subscribe is NOT handled here — it changes the connection's mode, so
  /// each backend owns it (see writable()).
  std::pair<MsgType, std::string> Dispatch(const FrameHeader& header,
                                           const std::string& body);

  /// Non-null iff the wrapped service accepts writes (Put/Subscribe).
  WritableDataService* writable() const { return writable_; }
  DataService* inner() const { return inner_; }
  const UserFn& fn() const { return fn_; }

 private:
  /// Remembered tagged-batch responses keyed by (client_id, batch_seq).
  struct DedupEntry {
    bool done = false;
    std::string response;
  };

  /// ExecuteBatch with replay dedup; returns the encoded response body.
  std::string DispatchTaggedBatch(const TaggedBatchRequest& req);
  /// Executes the batch and encodes the response, each ok result with the
  /// item's piggybacked stat.
  std::string ExecuteAndEncodeBatch(const TaggedBatchRequest& req);
  /// Attaches the item's stat to an ok compute result: the same in-process
  /// lookup a Stat request runs, minus the network (Section 4.3).
  ComputeResult WithStat(Key key, StatusOr<std::string> value) const;

  DataService* inner_;
  WritableDataService* writable_;  ///< non-null iff inner is one
  UserFn fn_;
  const size_t dedup_capacity_;
  RpcAtomicStats* stats_;

  Mutex dedup_mu_{lock_rank::kServerDedup, "VerbDispatcher::dedup_mu_"};
  CondVar dedup_cv_;
  /// DedupEntry contents (done, response) are guarded by dedup_mu_ too;
  /// the nested struct cannot name the enclosing member in an annotation.
  std::map<std::pair<uint64_t, uint64_t>, std::shared_ptr<DedupEntry>>
      dedup_entries_ JOINOPT_GUARDED_BY(dedup_mu_);
  std::deque<std::pair<uint64_t, uint64_t>> dedup_order_
      JOINOPT_GUARDED_BY(dedup_mu_);  // FIFO eviction
};

}  // namespace joinopt

#endif  // JOINOPT_NET_VERB_DISPATCHER_H_
