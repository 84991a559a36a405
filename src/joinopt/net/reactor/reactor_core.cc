#include "joinopt/net/reactor/reactor_core.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <string_view>
#include <utility>

#include "joinopt/net/net_fault.h"

namespace joinopt {

namespace {

/// epoll tag of the listen socket (conn ids start at 1).
constexpr uint64_t kListenerTag = 0;

/// Read-chunk size and per-event chunk cap: a re-armed fd that is still
/// readable fires again, so bounding work here trades a little syscall
/// overhead for fairness across connections.
constexpr size_t kReadChunk = 64 * 1024;
constexpr int kMaxReadChunksPerEvent = 4;

/// iovec fan-in per sendmsg call.
constexpr int kMaxIov = 16;

/// The core whose pool the calling thread belongs to (null on every other
/// thread), and the idle subscriber connections that thread claimed while
/// running a verb; it flushes them once its own connection is released.
thread_local ReactorCore* tls_pool_core = nullptr;
thread_local std::vector<std::shared_ptr<ReactorConn>> tls_claimed;

}  // namespace

ReactorCore::ReactorCore(VerbDispatcher* dispatcher, RpcAtomicStats* stats,
                         const RpcServerOptions& options)
    : dispatcher_(dispatcher), stats_(stats), options_(options) {}

ReactorCore::~ReactorCore() { Stop(); }

Status ReactorCore::Start() {
  JOINOPT_ASSIGN_OR_RETURN(
      listen_fd_,
      TcpListen(options_.host, options_.port, options_.accept_backlog));
  JOINOPT_ASSIGN_OR_RETURN(port_, BoundPort(listen_fd_.get()));
  // TcpListen hands back a *blocking* socket; AcceptAll drains accepts to
  // EAGAIN, so the listener must be non-blocking or the last accept4
  // parks a pool thread.
  int lflags = ::fcntl(listen_fd_.get(), F_GETFL, 0);
  if (lflags < 0 ||
      ::fcntl(listen_fd_.get(), F_SETFL, lflags | O_NONBLOCK) < 0) {
    return ErrnoToStatus(errno, "fcntl(listen O_NONBLOCK)");
  }
  JOINOPT_RETURN_NOT_OK(epoll_.Init());
  JOINOPT_RETURN_NOT_OK(
      epoll_.Add(listen_fd_.get(), EPOLLIN | EPOLLONESHOT, kListenerTag));

  stop_.store(false, std::memory_order_release);
  pool_alive_.store(kPoolThreads, std::memory_order_release);
  for (int i = 0; i < kPoolThreads; ++i) {
    pool_.emplace_back([this] { PoolLoop(); });
  }
  stats_->server_threads += kPoolThreads;
  return Status::OK();
}

void ReactorCore::Stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  {
    MutexLock lock(conns_mu_);
    for (auto& [id, conn] : conns_) ::shutdown(conn->fd_.get(), SHUT_RDWR);
  }
  epoll_.WakeAll();
  for (std::thread& t : pool_) t.join();
  pool_.clear();
  listen_fd_.Reset();
  stats_->server_threads -= kPoolThreads;
}

void ReactorCore::PoolLoop() {
  tls_pool_core = this;
  struct epoll_event event;
  while (!stop_.load(std::memory_order_acquire)) {
    auto n = epoll_.Wait(&event, 1, -1);
    if (!n.ok()) break;  // EBADF etc. — only plausible during teardown
    if (*n == 0 || stop_.load(std::memory_order_acquire)) continue;
    if (event.data.u64 == kListenerTag) {
      AcceptAll();
      continue;
    }
    std::shared_ptr<ReactorConn> conn = Lookup(event.data.u64);
    if (conn == nullptr) continue;  // torn down since the event fired
    ReactorConn& c = *conn;
    bool read = false;
    size_t backlog = 0;
    {
      MutexLock lock(c.mu_);
      if (c.closed_) continue;
      if (c.busy_) {
        c.rerun_ = true;  // the owner serves it again before releasing
        continue;
      }
      c.busy_ = true;
      read = (event.events & EPOLLIN) != 0 && !c.reads_paused_;
      backlog = c.write_bytes_;
    }
    if ((event.events & (EPOLLHUP | EPOLLERR)) != 0) {
      Teardown(conn);
    } else {
      RunOwned(conn, read, backlog);
    }
    FlushClaimed();
  }
  tls_pool_core = nullptr;
  if (pool_alive_.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  // Last one out: no pool thread owns anything any more, so tear down
  // every connection here, on a pool thread holding no locks.
  std::vector<std::shared_ptr<ReactorConn>> remaining;
  {
    MutexLock lock(conns_mu_);
    remaining.reserve(conns_.size());
    for (auto& [id, conn] : conns_) remaining.push_back(conn);
  }
  for (auto& conn : remaining) Teardown(conn);
}

void ReactorCore::AcceptAll() {
  for (;;) {
    int fd = ::accept4(listen_fd_.get(), nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN, or a transient error retried on the next event
    }
    if (!NetFaultInjector::Instance().OnAccept(port_, fd)) {
      // Injected partition: drop the handshake the kernel already
      // completed — the peer sees a connect that never answers.
      ::close(fd);
      continue;
    }
    UniqueFd owned(fd);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ++stats_->connections_accepted;
    std::shared_ptr<ReactorConn> conn;
    {
      // Registered before it is armed: an event must find it. The stop_
      // check under conns_mu_ pairs with Stop's severing pass.
      MutexLock lock(conns_mu_);
      if (stop_.load(std::memory_order_acquire)) break;
      uint64_t id = next_conn_id_++;
      conn = std::make_shared<ReactorConn>(id, std::move(owned), this);
      conns_.emplace(id, conn);
    }
    ++stats_->live_connections;
    if (!epoll_.Add(fd, EPOLLIN | EPOLLONESHOT, conn->id()).ok()) {
      {
        MutexLock lock(conn->mu_);
        conn->busy_ = true;  // never armed: this thread owns it
      }
      Teardown(conn);
    }
  }
  epoll_.Mod(listen_fd_.get(), EPOLLIN | EPOLLONESHOT, kListenerTag);
}

std::shared_ptr<ReactorConn> ReactorCore::Lookup(uint64_t id) {
  MutexLock lock(conns_mu_);
  auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second;
}

void ReactorCore::RunOwned(const std::shared_ptr<ReactorConn>& conn,
                           bool read, size_t backlog) {
  ReactorConn& c = *conn;
  std::vector<std::string> responses;
  for (;;) {
    Parsed parsed = Parsed::kDrained;
    if (read) parsed = ReadAndDispatch(c, backlog, &responses);
    if (parsed == Parsed::kTeardown) break;
    MutexLock lock(c.mu_);
    for (std::string& frame : responses) {
      c.write_bytes_ += frame.size();
      c.write_queue_.push_back(std::move(frame));
    }
    responses.clear();
    if (parsed == Parsed::kPaused && !c.reads_paused_) {
      c.reads_paused_ = true;
      ++stats_->backpressure_pauses;
    }
    if (!FlushLocked(c)) break;
    bool resume =
        c.reads_paused_ && c.write_bytes_ <= options_.write_low_watermark;
    if (resume) c.reads_paused_ = false;
    if (!c.rerun_ && !resume) {
      // Release and re-arm in one critical section: a Notify that lands
      // after this sees busy_ == false and schedules its own flush, one
      // that landed before was staged by FlushLocked.
      c.busy_ = false;
      ArmLocked(c);
      return;
    }
    read = !c.reads_paused_;
    c.rerun_ = false;
    backlog = c.write_bytes_;
  }
  Teardown(conn);
}

ReactorCore::Parsed ReactorCore::ReadAndDispatch(
    ReactorConn& conn, size_t backlog, std::vector<std::string>* responses) {
  char buf[kReadChunk];
  for (int chunk = 0; chunk < kMaxReadChunksPerEvent; ++chunk) {
    ssize_t n = ::read(conn.fd_.get(), buf, sizeof(buf));
    if (n > 0) {
      conn.read_buf_.append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    // n == 0: the peer closed; undelivered responses are moot.
    if (n == 0) return Parsed::kTeardown;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return Parsed::kTeardown;
  }

  // Frames are served in arrival order. Only the owner adds to the write
  // queue, so `backlog` (its size when the owner last held mu_) plus the
  // responses built here bound it; parsing stops at the high watermark
  // and the rest stays buffered.
  size_t queued = backlog;
  size_t consumed = 0;
  bool ok = true;
  while (queued < options_.write_high_watermark) {
    std::string_view avail(conn.read_buf_);
    avail.remove_prefix(consumed);
    if (avail.size() < kFrameHeaderBytes) break;
    auto header = ParseFrameHeader(avail.substr(0, kFrameHeaderBytes),
                                   options_.max_frame_bytes);
    if (!header.ok()) {
      ++stats_->protocol_errors;
      ok = false;
      break;
    }
    const size_t frame_size = kFrameHeaderBytes + header->body_len;
    if (avail.size() < frame_size) break;  // incomplete; wait for bytes
    std::string body(avail.substr(kFrameHeaderBytes, header->body_len));
    consumed += frame_size;
    stats_->bytes_in += static_cast<int64_t>(frame_size);

    std::string frame;
    if (header->type == MsgType::kSubscribeReq) {
      if (!HandleSubscribe(conn, *header, body, &frame)) {
        ok = false;
        break;
      }
    } else {
      auto [type, resp_body] = dispatcher_->Dispatch(*header, body);
      // A zero type is an undispatchable request, and a response past the
      // frame bound cannot be sent: either way the stream is done.
      StatusOr<std::string> built = Status::InvalidArgument("bad request");
      if (type != static_cast<MsgType>(0)) {
        built = BuildFrame(type, header->seq, resp_body,
                           options_.max_frame_bytes);
      }
      if (!built.ok()) {
        ++stats_->protocol_errors;
        ok = false;
        break;
      }
      frame = *std::move(built);
    }
    queued += frame.size();
    responses->push_back(std::move(frame));
  }
  conn.read_buf_.erase(0, consumed);
  if (!ok) return Parsed::kTeardown;
  if (queued >= options_.write_high_watermark) return Parsed::kPaused;
  return Parsed::kDrained;
}

bool ReactorCore::HandleSubscribe(ReactorConn& conn,
                                  const FrameHeader& header,
                                  const std::string& body,
                                  std::string* frame) {
  // No in-band error slot (the response body is a bare snapshot), so a
  // subscription we cannot serve is refused by dropping the connection.
  WritableDataService* writable = dispatcher_->writable();
  if (writable == nullptr || !SupportedWireVersion(header.version) ||
      !DecodeSubscribeRequest(body).ok()) {
    ++stats_->protocol_errors;
    return false;
  }
  {
    MutexLock lock(conn.mu_);
    if (conn.subscribed_) {
      ++stats_->protocol_errors;  // double-subscribe on one connection
      return false;
    }
    conn.subscribed_ = true;
  }
  ++stats_->requests;
  // Register the sink *before* taking the snapshot (mu_ released: the
  // service calls sinks holding its fanout lock, which ranks below
  // kReactorConn). Events in the gap arrive twice — snapshot position +
  // queued event — and the subscriber's seq tracking dedups the overlap.
  // They are staged at the next flush, behind this response.
  writable->AddUpdateSink(&conn);
  conn.sink_registered_ = true;
  auto built = BuildFrame(MsgType::kSubscribeResp, header.seq,
                          EncodeSubscribeResponse(writable->EpochSnapshot()),
                          options_.max_frame_bytes);
  if (!built.ok()) return false;
  *frame = *std::move(built);
  ++stats_->subscriptions;
  return true;
}

bool ReactorCore::FlushLocked(ReactorConn& conn) {
  bool close_now = false;
  // Injected half-open partition: this fd's transmit direction is
  // black-holed, so frames must not reach the kernel. Checked only when
  // there is something to send, like SendAll on the client side.
  NetFaultInjector& nf = NetFaultInjector::Instance();
  if (nf.faults_active() &&
      (!conn.write_queue_.empty() || !conn.pending_notifies_.empty()) &&
      !nf.CheckSend(conn.fd_.get()).ok()) {
    close_now = true;
  }

  bool blocked = false;
  while (!close_now && !blocked) {
    // Stage pending notifies while the write queue has headroom — this is
    // the throttle: a slow subscriber's events wait (coalescing) in
    // pending_notifies_ instead of ballooning the write queue.
    while (!conn.pending_notifies_.empty() &&
           conn.write_bytes_ < options_.write_high_watermark) {
      UpdateEvent event = conn.pending_notifies_.front();
      conn.pending_notifies_.pop_front();
      conn.notify_index_.erase(event.key);
      auto frame = BuildFrame(MsgType::kNotifyEvt, conn.notify_seq_++,
                              EncodeNotifyEvent(event),
                              options_.max_frame_bytes);
      if (!frame.ok()) continue;  // fixed-size body; cannot happen
      conn.write_bytes_ += frame->size();
      conn.write_queue_.push_back(*std::move(frame));
      ++stats_->notify_events;
    }
    if (conn.write_queue_.empty()) break;

    // Send as much as the kernel will take. MSG_NOSIGNAL: a connection
    // severed by Stop() or reset by the peer fails with EPIPE instead of
    // killing the process.
    struct iovec iov[kMaxIov];
    int iov_count = 0;
    size_t offset = conn.front_offset_;
    for (const std::string& chunk : conn.write_queue_) {
      if (iov_count == kMaxIov) break;
      iov[iov_count].iov_base = const_cast<char*>(chunk.data()) + offset;
      iov[iov_count].iov_len = chunk.size() - offset;
      offset = 0;
      ++iov_count;
    }
    struct msghdr msg = {};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iov_count);
    ssize_t w = ::sendmsg(conn.fd_.get(), &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        blocked = true;
      } else {
        close_now = true;  // peer reset / severed socket
      }
      continue;
    }
    stats_->bytes_out += static_cast<int64_t>(w);
    size_t remaining = static_cast<size_t>(w);
    while (remaining > 0) {
      std::string& front = conn.write_queue_.front();
      size_t front_left = front.size() - conn.front_offset_;
      if (remaining < front_left) {
        conn.front_offset_ += remaining;
        conn.write_bytes_ -= remaining;
        break;
      }
      remaining -= front_left;
      conn.write_bytes_ -= front_left;
      conn.front_offset_ = 0;
      conn.write_queue_.pop_front();
    }
  }
  if (close_now) return false;
  // Graceful close: queued frames are delivered first.
  return !(conn.close_requested_ && conn.write_queue_.empty() &&
           conn.pending_notifies_.empty());
}

void ReactorCore::ArmLocked(ReactorConn& conn) {
  uint32_t want = EPOLLONESHOT;
  if (!conn.reads_paused_ && !conn.close_requested_) want |= EPOLLIN;
  if (conn.write_bytes_ > 0 || !conn.pending_notifies_.empty()) {
    want |= EPOLLOUT;
  }
  // Always re-armed: any event delivered since the last arm, also one
  // that found the connection owned, has disarmed the fd.
  epoll_.Mod(conn.fd_.get(), want, conn.id());
}

void ReactorCore::ScheduleNotifyFlush(ReactorConn& conn) {
  conn.mu_.AssertHeld();
  if (tls_pool_core == this) {
    // A Put verb on one of this pool's threads: claim the connection and
    // flush it after the Put's own response, waking no other thread.
    conn.busy_ = true;
    tls_claimed.push_back(conn.shared_from_this());
  } else {
    ArmLocked(conn);  // EPOLLOUT: the pool picks it up
  }
}

void ReactorCore::FlushClaimed() {
  while (!tls_claimed.empty()) {
    std::shared_ptr<ReactorConn> conn = std::move(tls_claimed.back());
    tls_claimed.pop_back();
    RunOwned(conn, /*read=*/false, /*backlog=*/0);
  }
}

void ReactorCore::Teardown(const std::shared_ptr<ReactorConn>& conn) {
  ReactorConn& c = *conn;
  {
    MutexLock lock(c.mu_);
    if (c.closed_) return;
    c.closed_ = true;  // fanout writers and late events become no-ops
  }
  if (c.sink_registered_) {
    // After RemoveUpdateSink returns no OnUpdateEvent call is in flight
    // (the service holds its update lock across fanout).
    dispatcher_->writable()->RemoveUpdateSink(&c);
    c.sink_registered_ = false;
  }
  epoll_.Del(c.fd_.get());
  {
    MutexLock lock(conns_mu_);
    conns_.erase(c.id());
  }
  c.fd_.Reset();
  --stats_->live_connections;
}

}  // namespace joinopt
