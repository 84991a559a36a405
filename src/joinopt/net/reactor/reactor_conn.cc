#include "joinopt/net/reactor/reactor_conn.h"

#include <iterator>
#include <utility>

#include "joinopt/net/reactor/reactor_core.h"
#include "joinopt/net/verb_dispatcher.h"

namespace joinopt {

ReactorConn::ReactorConn(uint64_t id, UniqueFd fd, ReactorCore* core)
    : id_(id), core_(core), fd_(std::move(fd)) {}

void ReactorConn::OnUpdateEvent(const UpdateEvent& event) {
  // Writer's thread, kNodeUpdateFanout held. kReactorConn ranks above it,
  // so taking mu_ here is legal nesting; calling back into the service is
  // not (and we don't).
  MutexLock lock(mu_);
  if (closed_ || close_requested_ || !subscribed_) return;
  auto it = notify_index_.find(event.key);
  if (it != notify_index_.end()) {
    // Same-key supersession: the newer event carries the key's final
    // version, so the older pending one is dead weight. Re-queue at the
    // tail so the seqs we eventually push stay monotonic.
    pending_notifies_.erase(it->second);
    pending_notifies_.push_back(event);
    it->second = std::prev(pending_notifies_.end());
    ++core_->stats_->notify_coalesced;
  } else if (pending_notifies_.size() >=
             core_->options_.subscription_queue_capacity) {
    // Distinct-key flood: coalescing cannot compress this, and unbounded
    // buffering is worse than a re-sync. The owner finishes the queued
    // frames and drops the stream.
    close_requested_ = true;
  } else {
    pending_notifies_.push_back(event);
    notify_index_.emplace(event.key, std::prev(pending_notifies_.end()));
  }
  // An owned connection is flushed by its owner before it is released.
  if (!busy_) core_->ScheduleNotifyFlush(*this);
}

}  // namespace joinopt
