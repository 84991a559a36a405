#include "joinopt/cluster/subscriber.h"

#include <sys/socket.h>

#include <chrono>

#include "joinopt/net/net_fault.h"
#include "joinopt/net/socket.h"

namespace joinopt {

UpdateSubscriber::UpdateSubscriber(ClusterTopology* topology,
                                   std::vector<NodeId> nodes,
                                   UpdateFn on_update, ResyncFn on_resync,
                                   UpdateSubscriberOptions options)
    : topology_(topology),
      nodes_(std::move(nodes)),
      on_update_(std::move(on_update)),
      on_resync_(std::move(on_resync)),
      options_(options) {
  fds_.reserve(nodes_.size());
  snapshot_seen_.reserve(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    fds_.push_back(std::make_unique<std::atomic<int>>(-1));
    snapshot_seen_.push_back(std::make_unique<std::atomic<bool>>(false));
  }
  threads_.reserve(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    threads_.emplace_back([this, i] { StreamLoop(i, nodes_[i]); });
  }
}

UpdateSubscriber::~UpdateSubscriber() { Stop(); }

void UpdateSubscriber::Stop() {
  stop_.store(true, std::memory_order_release);
  for (auto& fd : fds_) {
    int raw = fd->load(std::memory_order_acquire);
    if (raw >= 0) ::shutdown(raw, SHUT_RDWR);
  }
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

void UpdateSubscriber::DropConnectionForTest(NodeId node) {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] != node) continue;
    int raw = fds_[i]->load(std::memory_order_acquire);
    if (raw >= 0) ::shutdown(raw, SHUT_RDWR);
  }
}

bool UpdateSubscriber::AllSnapshotsSeen() const {
  for (const auto& seen : snapshot_seen_) {
    if (!seen->load(std::memory_order_acquire)) return false;
  }
  return true;
}

UpdateSubscriberStats UpdateSubscriber::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void UpdateSubscriber::RunResync(NodeId node, int region) {
  // Called with mu_ NOT held: the resync callback walks invoker shards.
  int64_t dropped = on_resync_ ? on_resync_(node, region) : 0;
  MutexLock lock(mu_);
  ++stats_.resyncs;
  stats_.keys_dropped += dropped;
}

bool UpdateSubscriber::Reconcile(NodeId node, int region, uint64_t epoch,
                                 uint64_t seq, bool is_event) {
  bool resync = false;
  bool deliver = false;
  {
    MutexLock lock(mu_);
    RegionState& st = state_[{node, region}];
    if (!st.seen) {
      // First contact: adopt the position. Nothing was cached from this
      // region before the stream existed, so there is nothing to re-sync —
      // but an *event* as first contact still delivers its invalidation.
      st = RegionState{epoch, seq, true};
      deliver = is_event;
    } else if (epoch != st.epoch) {
      ++stats_.epoch_bumps;
      resync = true;
      deliver = is_event;
      st = RegionState{epoch, seq, true};
    } else if (seq <= st.seq) {
      if (is_event) ++stats_.duplicates_ignored;
      // A snapshot at-or-behind our position needs nothing.
    } else if (!is_event) {
      // Snapshot ahead of us: updates happened while we were deaf.
      ++stats_.gaps_detected;
      resync = true;
      st.seq = seq;
    } else if (seq == st.seq + 1) {
      st.seq = seq;
      deliver = true;
      ++stats_.notifications;
    } else {
      // Live-stream jump. The server coalesces same-key events in its
      // bounded pending queue, so a gap on a *live* stream means the
      // skipped seqs were superseded same-key updates whose final
      // versions ride in later events — each delivered event still
      // carries its key's latest version, and nothing needs a re-sync.
      // Seqs missed while *disconnected* surface as a snapshot-ahead gap
      // or an epoch bump, which still re-sync.
      stats_.coalesced_gaps += static_cast<int64_t>(seq - st.seq - 1);
      deliver = true;
      st.seq = seq;
    }
    // Note `notifications` counts only clean in-order deliveries; gap and
    // epoch-bump deliveries are visible through their own counters.
  }
  if (resync) RunResync(node, region);
  return deliver;
}

void UpdateSubscriber::StreamLoop(size_t slot, NodeId node) {
  uint32_t seq = 1;
  while (!stop_.load(std::memory_order_acquire)) {
    RpcEndpoint ep = topology_->endpoint(node);
    NetFaultInjector::ScopedIdentity fault_id(options_.net_identity);
    auto conn = TcpConnect(ep.host, ep.port, options_.connect_deadline);
    if (!conn.ok()) {
      {
        MutexLock lock(mu_);
        ++stats_.reconnects;
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double>(options_.reconnect_backoff));
      continue;
    }
    UniqueFd fd = std::move(conn).value();
    fds_[slot]->store(fd.get(), std::memory_order_release);

    bool streamed = false;
    Status s = SendFrame(fd.get(), MsgType::kSubscribeReq, seq++,
                         EncodeSubscribeRequest(options_.subscriber_id),
                         options_.connect_deadline, kDefaultMaxFrameBytes);
    if (s.ok()) {
      // The snapshot answer may take a beat; poll within the connect
      // budget but bail promptly on stop.
      auto resp =
          RecvFrame(fd.get(), options_.connect_deadline, kDefaultMaxFrameBytes);
      if (resp.ok() && resp->header.type == MsgType::kSubscribeResp) {
        auto snapshot = DecodeSubscribeResponse(resp->body);
        if (snapshot.ok()) {
          for (const RegionEpoch& re : *snapshot) {
            Reconcile(node, re.region, re.epoch, re.seq, /*is_event=*/false);
          }
          snapshot_seen_[slot]->store(true, std::memory_order_release);
          streamed = true;
          // Drain the push stream until it breaks.
          while (!stop_.load(std::memory_order_acquire)) {
            auto frame = RecvFrame(fd.get(), options_.poll_tick,
                                   kDefaultMaxFrameBytes);
            if (!frame.ok()) {
              if (IsDeadlineExceeded(frame.status())) continue;  // idle tick
              break;  // torn stream
            }
            if (frame->header.type != MsgType::kNotifyEvt) {
              break;  // protocol violation; redial
            }
            auto event = DecodeNotifyEvent(frame->body);
            if (!event.ok()) break;
            if (Reconcile(node, event->region, event->epoch, event->seq,
                          /*is_event=*/true) &&
                on_update_) {
              on_update_(event->key, event->version);
            }
          }
        }
      }
    }
    fds_[slot]->store(-1, std::memory_order_release);
    if (stop_.load(std::memory_order_acquire)) break;
    {
      MutexLock lock(mu_);
      if (streamed) ++stats_.reconnects;
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options_.reconnect_backoff));
  }
}

}  // namespace joinopt
