#include "joinopt/net/rpc_server.h"

#include <utility>

#include "joinopt/net/net_fault.h"
#include "joinopt/net/reactor/reactor_core.h"

namespace joinopt {

RpcServer::RpcServer(DataService* inner, UserFn fn, RpcServerOptions options)
    : inner_(inner),
      fn_(std::move(fn)),
      options_(std::move(options)),
      dispatcher_(inner_, fn_, options_.dedup_capacity, &stats_) {}

RpcServer::~RpcServer() { Stop(); }

Status RpcServer::Start() {
  // The lifecycle lock makes check-and-transition atomic: two concurrent
  // Start() calls used to both pass the running_ check and race the bind.
  MutexLock lock(lifecycle_mu_);
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already running");
  }
  auto core = std::make_unique<ReactorCore>(&dispatcher_, &stats_, options_);
  JOINOPT_RETURN_NOT_OK(core->Start());
  reactor_ = std::move(core);
  port_ = reactor_->port();
  if (options_.net_identity >= 0) {
    NetFaultInjector::Instance().RegisterServerPort(port_,
                                                    options_.net_identity);
  }
  running_.store(true, std::memory_order_release);
  return Status::OK();
}

void RpcServer::Stop() {
  MutexLock lock(lifecycle_mu_);
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  if (options_.net_identity >= 0) {
    NetFaultInjector::Instance().UnregisterServerPort(port_);
  }
  reactor_->Stop();
  reactor_.reset();
}

RpcServerStats RpcServer::stats() const {
  RpcServerStats out;
  out.connections_accepted =
      stats_.connections_accepted.load(std::memory_order_relaxed);
  out.requests = stats_.requests.load(std::memory_order_relaxed);
  out.batch_items = stats_.batch_items.load(std::memory_order_relaxed);
  out.protocol_errors =
      stats_.protocol_errors.load(std::memory_order_relaxed);
  out.bytes_in = stats_.bytes_in.load(std::memory_order_relaxed);
  out.bytes_out = stats_.bytes_out.load(std::memory_order_relaxed);
  out.puts = stats_.puts.load(std::memory_order_relaxed);
  out.subscriptions = stats_.subscriptions.load(std::memory_order_relaxed);
  out.notify_events = stats_.notify_events.load(std::memory_order_relaxed);
  out.batch_dedup_hits =
      stats_.batch_dedup_hits.load(std::memory_order_relaxed);
  out.stat_requests = stats_.stat_requests.load(std::memory_order_relaxed);
  out.server_threads =
      stats_.server_threads.load(std::memory_order_relaxed);
  out.live_connections =
      stats_.live_connections.load(std::memory_order_relaxed);
  out.notify_coalesced =
      stats_.notify_coalesced.load(std::memory_order_relaxed);
  out.backpressure_pauses =
      stats_.backpressure_pauses.load(std::memory_order_relaxed);
  return out;
}

}  // namespace joinopt
