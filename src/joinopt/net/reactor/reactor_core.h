// ReactorCore: the serving backend behind RpcServer (DESIGN.md §13). A
// fixed pool of kPoolThreads (8) threads shares one EpollLoop over
// non-blocking sockets, every fd registered EPOLLONESHOT. Each thread asks
// epoll for one event at a time; the thread that takes a connection's
// event owns the connection until it re-arms it, and runs it to
// completion: read, parse every complete frame, run each verb through the
// shared VerbDispatcher, append the responses to the connection's bounded
// write queue, flush with sendmsg. No request crosses threads, and a slow
// verb holds one pool thread and its own connection; only verbs blocked on
// every pool thread at once stall the server (ROADMAP item 8).
// Thread count is a constant, never a function of connection count: 10k
// idle subscribers cost file descriptors and read buffers, not stacks.
//
// Pipelined requests on one connection are answered in order (the frame
// seq still correlates them). Notify events reach a subscriber connection
// through ReactorConn::OnUpdateEvent; when the writer is one of this
// pool's threads (a Put verb), that thread claims the idle subscriber
// connection and flushes it after its own response has gone out, so a Put
// wakes no second thread. Any other writer re-arms the connection with
// EPOLLOUT for the pool to pick up.
#ifndef JOINOPT_NET_REACTOR_REACTOR_CORE_H_
#define JOINOPT_NET_REACTOR_REACTOR_CORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "joinopt/common/lock_ranks.h"
#include "joinopt/common/status.h"
#include "joinopt/common/sync.h"
#include "joinopt/net/reactor/epoll_loop.h"
#include "joinopt/net/reactor/reactor_conn.h"
#include "joinopt/net/rpc_server.h"
#include "joinopt/net/socket.h"
#include "joinopt/net/verb_dispatcher.h"

namespace joinopt {

class ReactorCore {
 public:
  /// Serving threads per server. A verb that blocks (a straggling Fetch,
  /// a UDF that waits) holds one until it returns, so the pool leaves room
  /// for several at once: with 3, the count of the earlier 1 IO + 2 worker
  /// split, three overlapping stalls stopped the whole server (DESIGN.md
  /// §13). Idle threads wait in epoll_wait and cost only their stacks.
  static constexpr int kPoolThreads = 8;

  /// `dispatcher` and `stats` are borrowed from the owning RpcServer and
  /// must outlive the core.
  ReactorCore(VerbDispatcher* dispatcher, RpcAtomicStats* stats,
              const RpcServerOptions& options);
  ~ReactorCore();

  ReactorCore(const ReactorCore&) = delete;
  ReactorCore& operator=(const ReactorCore&) = delete;

  /// Binds, listens and spawns the pool. Not idempotent; the owning
  /// RpcServer serializes lifecycle under its own lock.
  Status Start();
  /// Severs every connection (shutdown(), so a verb still running cannot
  /// deliver its response), then joins the pool. The last pool thread to
  /// exit tears the connections down and deregisters their sinks, so the
  /// caller's locks never nest around the service's update lock.
  /// Idempotent.
  void Stop();

  uint16_t port() const { return port_; }

 private:
  friend class ReactorConn;

  void PoolLoop();
  void AcceptAll();
  std::shared_ptr<ReactorConn> Lookup(uint64_t id);
  /// Serves an owned connection until it has nothing left to do, then
  /// releases and re-arms it, or tears it down. `backlog` is the write
  /// queue's size when the caller claimed the connection.
  void RunOwned(const std::shared_ptr<ReactorConn>& conn, bool read,
                size_t backlog);
  enum class Parsed { kDrained, kPaused, kTeardown };
  /// Drains the socket into the read buffer and serves complete frames in
  /// order, appending their responses to `responses`, until the write
  /// backlog would pass the high watermark (kPaused).
  Parsed ReadAndDispatch(ReactorConn& conn, size_t backlog,
                         std::vector<std::string>* responses);
  /// Establishes a subscription (registers the conn as an UpdateSink and
  /// builds the epoch-snapshot response into `frame`). False = refuse by
  /// dropping the connection, the signal subscribers already handle.
  bool HandleSubscribe(ReactorConn& conn, const FrameHeader& header,
                       const std::string& body, std::string* frame);
  /// Stages pending notifies into the write queue (below the high
  /// watermark) and sends as much as the kernel takes. False = tear down.
  bool FlushLocked(ReactorConn& conn) JOINOPT_REQUIRES(conn.mu_);
  /// Re-arms the fd with the interest the connection's state calls for.
  void ArmLocked(ReactorConn& conn) JOINOPT_REQUIRES(conn.mu_);
  /// OnUpdateEvent on an idle connection: a pool thread of this core
  /// claims it (flushed by FlushClaimed after the thread's own response);
  /// any other thread re-arms it with EPOLLOUT.
  /// Caller holds conn.mu_ (asserted: the caller names it this->mu_).
  void ScheduleNotifyFlush(ReactorConn& conn);
  void FlushClaimed();
  /// Deregisters the sink, closes the fd, drops the registry's reference.
  /// Caller owns the connection and holds no locks (RemoveUpdateSink takes
  /// kNodeUpdateFanout).
  void Teardown(const std::shared_ptr<ReactorConn>& conn);

  VerbDispatcher* const dispatcher_;
  RpcAtomicStats* const stats_;
  const RpcServerOptions options_;

  UniqueFd listen_fd_;
  uint16_t port_ = 0;
  EpollLoop epoll_;
  std::vector<std::thread> pool_;
  std::atomic<bool> stop_{true};
  /// Pool threads still in PoolLoop; the one that takes it to zero tears
  /// down what is left.
  std::atomic<int> pool_alive_{0};

  Mutex conns_mu_{lock_rank::kReactorConns, "ReactorCore::conns_mu_"};
  std::unordered_map<uint64_t, std::shared_ptr<ReactorConn>> conns_
      JOINOPT_GUARDED_BY(conns_mu_);
  uint64_t next_conn_id_ JOINOPT_GUARDED_BY(conns_mu_) = 1;  // 0: listener
};

}  // namespace joinopt

#endif  // JOINOPT_NET_REACTOR_REACTOR_CORE_H_
