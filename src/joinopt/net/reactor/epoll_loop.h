// EpollLoop: a thin RAII wrapper over one epoll instance plus an eventfd
// stop channel — the readiness core of the reactor backend (DESIGN.md §13).
//
// The reactor registers every fd EPOLLONESHOT: an event disarms its fd, so
// exactly one of the pool threads waiting in Wait receives it, and the fd
// stays silent until its new owner re-arms it with Mod. Within that, the
// readiness itself is level-triggered: a re-armed fd that still has bytes
// (or room) fires again at once, so no path has to drain to EAGAIN.
//
// Thread model: Add/Mod/Del and Wait may be called from any thread (epoll
// allows concurrent ctl and wait). WakeAll() makes every current and
// future Wait return promptly, which is how Stop() reaches the whole pool.
#ifndef JOINOPT_NET_REACTOR_EPOLL_LOOP_H_
#define JOINOPT_NET_REACTOR_EPOLL_LOOP_H_

#include <sys/epoll.h>

#include <cstdint>

#include "joinopt/common/status.h"

namespace joinopt {

/// epoll_event.data.u64 value reserved for the stop eventfd; Wait filters
/// it out, so callers never see the tag.
inline constexpr uint64_t kEpollWakeTag = ~0ull;

class EpollLoop {
 public:
  EpollLoop() = default;
  ~EpollLoop();

  EpollLoop(const EpollLoop&) = delete;
  EpollLoop& operator=(const EpollLoop&) = delete;

  /// Creates the epoll instance and wake eventfd. Must be called (once)
  /// before anything else; separate from the constructor so fd exhaustion
  /// is a Status, not a half-built object.
  Status Init();

  /// Registers `fd` with the given EPOLL* interest mask; `tag` comes back
  /// in epoll_event.data.u64 (the reactor uses connection ids, never
  /// pointers, so a stale event after a close resolves to nothing).
  Status Add(int fd, uint32_t events, uint64_t tag);
  Status Mod(int fd, uint32_t events, uint64_t tag);
  /// Best-effort deregistration (the fd may already be closed).
  void Del(int fd);

  /// Blocks up to `timeout_ms` (-1 = forever) for readiness; fills `out`
  /// with up to `max_events` events, wake-tag entries filtered out.
  /// Returns the event count (0 on timeout or once WakeAll was called).
  /// EINTR retries internally.
  StatusOr<int> Wait(struct epoll_event* out, int max_events,
                     int timeout_ms);

  /// Makes every current and future Wait return promptly: the eventfd is
  /// never drained, so it stays readable. Callable from any thread.
  void WakeAll();

  bool valid() const { return epoll_fd_ >= 0; }

 private:
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
};

}  // namespace joinopt

#endif  // JOINOPT_NET_REACTOR_EPOLL_LOOP_H_
