// ReactorConn: one non-blocking connection served by the reactor backend
// (DESIGN.md §13). The state is split by owner:
//
//  * Owner-confined — the read buffer and the sink registration flag are
//    touched only by the pool thread that currently owns the connection
//    (busy_ set under mu_; handing ownership over goes through mu_, which
//    orders one owner's writes before the next owner's reads).
//  * mu_-guarded (rank kReactorConn, the reactor's innermost lock) — the
//    ownership flag itself, the bounded write queue and the pending-Notify
//    coalescing state, because two kinds of threads reach them: the owner
//    flushing, and update-fanout writers appending invalidation events
//    (holding kNodeUpdateFanout).
//
// Flow control lives here:
//  * The write queue is bounded by byte watermarks: past the high mark the
//    owner stops reading and parsing this connection (the bytes wait in
//    the kernel socket buffer and then in the peer's send path —
//    end-to-end backpressure), resuming at or below the low mark.
//  * Notify events pending for a slow subscriber coalesce per key: a newer
//    event for the same key replaces the older one and moves to the tail
//    (delivered seqs stay monotonic). The skipped sequence numbers are
//    provably superseded same-key updates, which is why the subscriber
//    treats live-stream gaps as benign (cluster/subscriber.h) instead of
//    re-syncing the region. Only a flood of *distinct* keys beyond the
//    bound drops the stream.
#ifndef JOINOPT_NET_REACTOR_REACTOR_CONN_H_
#define JOINOPT_NET_REACTOR_REACTOR_CONN_H_

#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "joinopt/common/lock_ranks.h"
#include "joinopt/common/sync.h"
#include "joinopt/net/frame.h"
#include "joinopt/net/socket.h"
#include "joinopt/net/update_hub.h"

namespace joinopt {

class ReactorCore;

class ReactorConn : public UpdateSink,
                    public std::enable_shared_from_this<ReactorConn> {
 public:
  ReactorConn(uint64_t id, UniqueFd fd, ReactorCore* core);

  uint64_t id() const { return id_; }

  /// UpdateSink: called on the writer's thread with the service's update
  /// lock (kNodeUpdateFanout) held — touches only mu_-guarded state.
  /// Coalesces per key as described above, then gets an idle connection
  /// flushed (ReactorCore::ScheduleNotifyFlush).
  void OnUpdateEvent(const UpdateEvent& event) override;

 private:
  friend class ReactorCore;  // the serving half lives in reactor_core.cc

  const uint64_t id_;
  ReactorCore* const core_;

  // ---- owner-confined ----
  /// Closed only by Teardown, after closed_ is set and the connection has
  /// left the registry, so no other thread reads it past that point.
  UniqueFd fd_;
  std::string read_buf_;          ///< unparsed inbound bytes
  bool sink_registered_ = false;  ///< AddUpdateSink done, Remove pending

  // ---- shared (owner, update fanout) ----
  mutable Mutex mu_{lock_rank::kReactorConn, "ReactorConn::mu_"};
  /// A pool thread owns the connection: it alone reads, parses, writes
  /// and re-arms it. Whoever sets this flag must later clear it and
  /// re-arm, or tear the connection down.
  bool busy_ JOINOPT_GUARDED_BY(mu_) = false;
  /// An event arrived while another thread owned the connection; the
  /// owner serves it again before releasing.
  bool rerun_ JOINOPT_GUARDED_BY(mu_) = false;
  bool reads_paused_ JOINOPT_GUARDED_BY(mu_) = false;  ///< backpressure
  std::deque<std::string> write_queue_ JOINOPT_GUARDED_BY(mu_);
  size_t write_bytes_ JOINOPT_GUARDED_BY(mu_) = 0;
  /// Bytes of write_queue_.front() already handed to the kernel.
  size_t front_offset_ JOINOPT_GUARDED_BY(mu_) = 0;
  bool closed_ JOINOPT_GUARDED_BY(mu_) = false;
  /// Graceful close pending: deliver what is queued, then tear down.
  bool close_requested_ JOINOPT_GUARDED_BY(mu_) = false;
  /// Subscription pending-event queue with per-key coalescing index.
  bool subscribed_ JOINOPT_GUARDED_BY(mu_) = false;
  uint32_t notify_seq_ JOINOPT_GUARDED_BY(mu_) = 0;  ///< kNotifyEvt seq
  std::list<UpdateEvent> pending_notifies_ JOINOPT_GUARDED_BY(mu_);
  std::unordered_map<Key, std::list<UpdateEvent>::iterator> notify_index_
      JOINOPT_GUARDED_BY(mu_);
};

}  // namespace joinopt

#endif  // JOINOPT_NET_REACTOR_REACTOR_CONN_H_
