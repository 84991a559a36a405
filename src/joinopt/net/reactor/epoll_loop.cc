#include "joinopt/net/reactor/epoll_loop.h"

#include <errno.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include "joinopt/net/socket.h"

namespace joinopt {

EpollLoop::~EpollLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status EpollLoop::Init() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return ErrnoToStatus(errno, "epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    Status s = ErrnoToStatus(errno, "eventfd");
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return s;
  }
  return Add(wake_fd_, EPOLLIN, kEpollWakeTag);
}

Status EpollLoop::Add(int fd, uint32_t events, uint64_t tag) {
  struct epoll_event ev = {};
  ev.events = events;
  ev.data.u64 = tag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    return ErrnoToStatus(errno, "epoll_ctl(ADD)");
  }
  return Status::OK();
}

Status EpollLoop::Mod(int fd, uint32_t events, uint64_t tag) {
  struct epoll_event ev = {};
  ev.events = events;
  ev.data.u64 = tag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
    return ErrnoToStatus(errno, "epoll_ctl(MOD)");
  }
  return Status::OK();
}

void EpollLoop::Del(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

StatusOr<int> EpollLoop::Wait(struct epoll_event* out, int max_events,
                              int timeout_ms) {
  for (;;) {
    int n = ::epoll_wait(epoll_fd_, out, max_events, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoToStatus(errno, "epoll_wait");
    }
    // Filter the stop channel in place; it is never drained.
    int kept = 0;
    for (int i = 0; i < n; ++i) {
      if (out[i].data.u64 != kEpollWakeTag) out[kept++] = out[i];
    }
    return kept;
  }
}

void EpollLoop::WakeAll() {
  uint64_t one = 1;
  // A full eventfd counter (EAGAIN) is still readable.
  ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
  (void)ignored;
}

}  // namespace joinopt
