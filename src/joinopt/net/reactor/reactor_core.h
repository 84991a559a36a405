// ReactorCore: the event-driven serving backend behind RpcServer
// (DESIGN.md §13). A fixed set of IO threads — each running one EpollLoop
// over non-blocking sockets — accepts connections, parses frames
// incrementally out of per-connection read buffers, and hands complete
// requests to a bounded worker pool that runs the shared VerbDispatcher.
// Responses come back through per-connection bounded write queues flushed
// with writev. Thread count is a function of configuration, never of
// connection count: 10k idle subscribers cost file descriptors and read
// buffers, not stacks.
//
// Wire behaviour is identical to the thread-per-connection backend (same
// frames, same VerbDispatcher), with two deliberate
// extensions the old backend cannot express:
//  * request pipelining — a client may stream several requests before
//    reading responses (answers may complete out of order; the frame seq
//    is the correlation id, as the protocol always specified);
//  * Notify flow control — a slow subscriber is throttled through its
//    bounded write queue with per-key event coalescing instead of being
//    dropped for a full region re-sync (see reactor_conn.h).
#ifndef JOINOPT_NET_REACTOR_REACTOR_CORE_H_
#define JOINOPT_NET_REACTOR_REACTOR_CORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "joinopt/common/lock_ranks.h"
#include "joinopt/common/status.h"
#include "joinopt/common/sync.h"
#include "joinopt/net/reactor/epoll_loop.h"
#include "joinopt/net/reactor/reactor_conn.h"
#include "joinopt/net/reactor/worker_pool.h"
#include "joinopt/net/socket.h"
#include "joinopt/net/verb_dispatcher.h"

namespace joinopt {

struct ReactorOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral
  int accept_backlog = 64;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Event-loop threads. One saturates loopback at this system's frame
  /// sizes; the knob exists for multi-NIC deployments and for testing the
  /// cross-loop handoff path.
  int io_threads = 1;
  /// Verb-execution threads (a UDF may block; IO threads never do).
  int worker_threads = 2;
  /// Requests queued toward the workers before IO threads stop parsing
  /// the affected connections (bytes stay in their read buffers).
  size_t worker_queue_capacity = 256;
  /// Per-connection write-queue byte watermarks: reads pause above high,
  /// resume below low.
  size_t write_high_watermark = 1u << 20;
  size_t write_low_watermark = 256u << 10;
  /// Outstanding pipelined requests per connection.
  int max_pipelined_requests = 64;
  /// Pending (coalesced) Notify events per subscription; a distinct-key
  /// flood beyond this drops the stream (subscriber re-syncs on redial).
  size_t notify_queue_capacity = 4096;
  /// Idle epoll timeout — bounds Stop() latency, like the legacy
  /// backend's poll tick.
  double poll_tick = 0.05;
  /// Logical endpoint id for NetFaultInjector partitions; -1 opts out.
  int32_t net_identity = -1;
};

class ReactorCore {
 public:
  /// `dispatcher` and `stats` are borrowed from the owning RpcServer and
  /// must outlive the core.
  ReactorCore(VerbDispatcher* dispatcher, RpcAtomicStats* stats,
              ReactorOptions options);
  ~ReactorCore();

  ReactorCore(const ReactorCore&) = delete;
  ReactorCore& operator=(const ReactorCore&) = delete;

  /// Binds, listens, spawns IO threads and workers. Not idempotent; the
  /// owning RpcServer serializes lifecycle under its own lock.
  Status Start();
  /// Tears down every connection (deregistering subscription sinks) and
  /// joins all threads. Idempotent.
  void Stop();

  uint16_t port() const { return port_; }
  /// IO + worker threads — the constant the connection-scaling bench
  /// asserts stays flat.
  int serving_threads() const {
    return options_.io_threads + worker_pool_.thread_count();
  }

  /// Cross-thread flush request: marks `conn_id` dirty on its loop and
  /// wakes it. Called by workers (no locks held) and by update-fanout
  /// writers (kNodeUpdateFanout held; kReactorLoop ranks above it).
  void RequestFlush(size_t loop_index, uint64_t conn_id);

 private:
  /// One IO thread's world. Fields split like ReactorConn's: `conns` and
  /// `stalled` are touched only by the owning thread; the handoff lists
  /// under `mu` are the only cross-thread surface.
  struct Loop {
    EpollLoop epoll;
    std::thread thread;
    // IO-thread-confined:
    std::unordered_map<uint64_t, std::shared_ptr<ReactorConn>> conns;
    /// Connections with parsed-but-undispatched frames waiting for
    /// worker-queue space; retried on a short tick.
    std::unordered_set<uint64_t> stalled;
    // Cross-thread handoff:
    Mutex mu{lock_rank::kReactorLoop, "ReactorCore::Loop::mu"};
    std::vector<uint64_t> dirty JOINOPT_GUARDED_BY(mu);
    std::vector<std::shared_ptr<ReactorConn>> incoming
        JOINOPT_GUARDED_BY(mu);
  };

  void IoLoop(size_t index);
  void HandleAccept(Loop& loop);
  /// Drains the socket into the read buffer; may tear the connection down.
  void HandleReadable(Loop& loop, const std::shared_ptr<ReactorConn>& conn);
  /// Consumes complete frames from the read buffer: dispatches to the
  /// worker pool, handles Subscribe inline, applies the pipeline /
  /// write-watermark / worker-queue backpressure rules.
  void ParseAndDispatch(Loop& loop,
                        const std::shared_ptr<ReactorConn>& conn);
  /// Establishes a subscription on the IO thread (registers the conn as
  /// an UpdateSink, queues the epoch-snapshot response). False = refuse
  /// by dropping the connection, the signal subscribers already handle.
  bool HandleSubscribe(Loop& loop, const std::shared_ptr<ReactorConn>& conn,
                       const FrameHeader& header, const std::string& body);
  /// Stages pending notifies into the write queue (below the high
  /// watermark), writev-flushes, re-arms EPOLLOUT, resumes paused reads
  /// below the low watermark. May tear the connection down.
  void TryFlush(Loop& loop, const std::shared_ptr<ReactorConn>& conn);
  /// Recomputes and applies the epoll interest mask.
  void UpdateInterest(Loop& loop, ReactorConn& conn);
  /// Deregisters the sink, closes the fd, drops the loop's reference.
  /// Caller must hold no locks (RemoveUpdateSink takes kNodeUpdateFanout).
  void Teardown(Loop& loop, const std::shared_ptr<ReactorConn>& conn);

  VerbDispatcher* const dispatcher_;
  RpcAtomicStats* const stats_;
  const ReactorOptions options_;
  const ReactorConnLimits limits_;

  UniqueFd listen_fd_;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{true};
  std::atomic<uint64_t> next_conn_id_{1};  // 0 is the listener's tag
  std::vector<std::unique_ptr<Loop>> loops_;
  ReactorWorkerPool worker_pool_;
};

}  // namespace joinopt

#endif  // JOINOPT_NET_REACTOR_REACTOR_CORE_H_
