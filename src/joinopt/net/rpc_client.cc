#include "joinopt/net/rpc_client.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "joinopt/common/hash.h"
#include "joinopt/net/net_fault.h"

namespace joinopt {

namespace {

/// Process-wide counter so every client instance gets a distinct dedup id
/// even when all of them use the default seed.
std::atomic<uint64_t> g_client_instance{0};

}  // namespace

RpcClientService::RpcClientService(RpcClientOptions options)
    : options_(std::move(options)), jitter_rng_(options_.seed) {
  pools_.reserve(options_.endpoints.size());
  outstanding_.reserve(options_.endpoints.size());
  for (size_t i = 0; i < options_.endpoints.size(); ++i) {
    pools_.push_back(std::make_unique<Pool>());
    outstanding_.push_back(std::make_unique<std::atomic<int>>(0));
  }
  client_id_ =
      Mix64(options_.seed ^
            Mix64(g_client_instance.fetch_add(1, std::memory_order_relaxed) +
                  1)) |
      1;  // nonzero: 0 means "no dedup" on the wire
  if (options_.hedging) {
    hedging_ = options_.hedging;
  } else if (options_.recovery.enabled && options_.recovery.hedging) {
    HedgingConfig hc;
    hc.percentile = options_.recovery.hedge_percentile;
    hc.budget = options_.recovery.hedge_budget;
    hc.burst = options_.recovery.hedge_burst;
    hc.fallback_delay = options_.recovery.hedge_delay;
    if (!options_.recovery.adaptive_hedging) {
      // Static mode: never leave warmup, so HedgeDelay always returns the
      // configured hedge_delay — but the budget still applies.
      hc.warmup = std::numeric_limits<int>::max();
    }
    hedging_ = std::make_shared<HedgingManager>(HedgingConfig::FromEnv(hc));
  }
}

RpcClientService::~RpcClientService() {
  // Hedged-exchange losers may still be mid-CallOnce when their waiter
  // returned; every attempt is deadline-bounded, so this drains quickly.
  while (inflight_attempts_.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

StatusOr<UniqueFd> RpcClientService::Acquire(size_t endpoint_idx) const {
  Pool& pool = *pools_[endpoint_idx];
  {
    MutexLock lock(pool.mu);
    if (!pool.idle.empty()) {
      UniqueFd fd = std::move(pool.idle.back());
      pool.idle.pop_back();
      return fd;
    }
  }
  const RpcEndpoint& ep = options_.endpoints[endpoint_idx];
  // The injector identifies dialers by thread-local identity; attempt
  // threads (hedges) inherit it here rather than from their spawner.
  NetFaultInjector::ScopedIdentity fault_id(options_.net_identity);
  auto fd = TcpConnect(ep.host, ep.port, options_.connect_deadline);
  if (fd.ok()) ++stats_.connections_opened;
  return fd;
}

void RpcClientService::Release(size_t endpoint_idx, UniqueFd fd) const {
  Pool& pool = *pools_[endpoint_idx];
  MutexLock lock(pool.mu);
  if (static_cast<int>(pool.idle.size()) < options_.max_pooled_per_endpoint) {
    pool.idle.push_back(std::move(fd));
  }
  // else: fd closes on scope exit
}

void RpcClientService::NoteTransportError(const Status& status) const {
  MutexLock lock(rec_mu_);
  if (IsDeadlineExceeded(status)) ++rec_.timeouts;
}

double RpcClientService::BackoffSeconds(int attempt) const {
  const RecoveryConfig& rec = options_.recovery;
  double backoff = std::min(
      rec.backoff_max, rec.backoff_base * std::pow(2.0, attempt - 1));
  MutexLock lock(rec_mu_);
  return backoff * (1.0 + rec.jitter_fraction * jitter_rng_.NextDouble());
}

StatusOr<std::string> RpcClientService::CallOnce(
    size_t endpoint_idx, MsgType req_type, const std::string& body) const {
  JOINOPT_ASSIGN_OR_RETURN(UniqueFd fd, Acquire(endpoint_idx));
  double io_deadline = options_.recovery.request_timeout;
  uint32_t seq = seq_.fetch_add(1, std::memory_order_relaxed);

  JOINOPT_RETURN_NOT_OK(SendFrame(fd.get(), req_type, seq, body, io_deadline,
                                  options_.max_frame_bytes));
  stats_.bytes_out +=
      static_cast<int64_t>(kFrameHeaderBytes + body.size());

  JOINOPT_ASSIGN_OR_RETURN(
      RecvdFrame resp,
      RecvFrame(fd.get(), io_deadline, options_.max_frame_bytes));
  stats_.bytes_in +=
      static_cast<int64_t>(kFrameHeaderBytes + resp.body.size());

  // A mismatched echo means the stream is desynced (e.g. a previous caller
  // abandoned a response); drop the connection, let the retry loop redial.
  if (resp.header.seq != seq ||
      resp.header.type != ResponseTypeFor(req_type)) {
    return Status::Aborted("rpc: response does not match request");
  }
  Release(endpoint_idx, std::move(fd));
  return std::move(resp.body);
}

StatusOr<std::string> RpcClientService::TimedCallOnce(
    size_t endpoint_idx, MsgType req_type, const std::string& body,
    bool is_hedge) const {
  if (hedging_ && !is_hedge) hedging_->OnRequestIssued();
  outstanding_[endpoint_idx]->fetch_add(1, std::memory_order_relaxed);
  auto t0 = std::chrono::steady_clock::now();
  auto result = CallOnce(endpoint_idx, req_type, body);
  outstanding_[endpoint_idx]->fetch_sub(1, std::memory_order_relaxed);
  if (hedging_ && result.ok()) {
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    hedging_->ObserveLatency(static_cast<uint64_t>(endpoint_idx), seconds);
  }
  return result;
}

void RpcClientService::LaunchAttempt(std::shared_ptr<HedgeState> state,
                                     size_t endpoint_idx, MsgType req_type,
                                     std::string body, bool is_hedge) const {
  {
    MutexLock lock(state->mu);
    ++state->pending;
  }
  inflight_attempts_.fetch_add(1, std::memory_order_acq_rel);
  std::thread([this, state = std::move(state), endpoint_idx, req_type,
               body = std::move(body), is_hedge] {
    auto result = TimedCallOnce(endpoint_idx, req_type, body, is_hedge);
    bool duplicate = false;
    {
      MutexLock lock(state->mu);
      --state->pending;
      if (result.ok()) {
        if (state->has_winner) {
          duplicate = true;  // both attempts succeeded; first one won
        } else {
          state->has_winner = true;
          state->winner_is_hedge = is_hedge;
          state->winner_body = std::move(*result);
        }
      } else if (!state->has_error) {
        state->has_error = true;
        state->first_error = result.status();
      }
      state->cv.NotifyAll();
    }
    if (!result.ok()) NoteTransportError(result.status());
    if (duplicate) {
      MutexLock lock(rec_mu_);
      ++rec_.duplicates_ignored;
      if (state->is_batch) ++rec_.batch_hedges_absorbed;
    }
    inflight_attempts_.fetch_sub(1, std::memory_order_acq_rel);
  }).detach();
}

StatusOr<std::string> RpcClientService::HedgedCall(
    size_t primary, size_t secondary, MsgType req_type,
    const std::string& body) const {
  auto state = std::make_shared<HedgeState>();
  state->is_batch = req_type == MsgType::kBatchReq;
  LaunchAttempt(state, primary, req_type, body, /*is_hedge=*/false);
  const double delay = hedging_->HedgeDelay(static_cast<uint64_t>(primary));
  const auto hedge_at =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(delay);

  bool hedge_sent = false;
  bool winner_is_hedge = false;
  bool primary_still_out = false;
  StatusOr<std::string> out = Status::Internal("hedge: no result");
  {
    MutexLock lock(state->mu);
    // Phase 1: give the primary `delay` seconds to answer on its own.
    while (!state->has_winner && state->pending > 0) {
      double remain = std::chrono::duration<double>(
                          hedge_at - std::chrono::steady_clock::now())
                          .count();
      if (remain <= 0) break;
      state->cv.WaitFor(state->mu, remain);
    }
    primary_still_out = !state->has_winner && state->pending > 0;
  }
  // Phase 2: the primary is officially a straggler. Duplicate it if the
  // token bucket agrees. (The primary may answer between the unlock and
  // the launch — the hedge is then redundant but still raced correctly.)
  if (primary_still_out && hedging_->TryAcquireHedge()) {
    hedge_sent = true;
    LaunchAttempt(state, secondary, req_type, body, /*is_hedge=*/true);
  }
  {
    MutexLock lock(state->mu);
    while (!state->has_winner && state->pending > 0) {
      state->cv.Wait(state->mu);
    }
    if (state->has_winner) {
      winner_is_hedge = state->winner_is_hedge;
      out = std::move(state->winner_body);
    } else {
      out = state->has_error ? state->first_error
                             : Status::Internal("hedge: no result");
    }
  }
  if (hedge_sent || winner_is_hedge) {
    MutexLock lock(rec_mu_);
    if (hedge_sent) {
      ++rec_.hedges_sent;
      if (req_type == MsgType::kBatchReq) ++rec_.batch_hedges_sent;
    }
    if (winner_is_hedge) ++rec_.hedges_won;
  }
  return out;
}

size_t RpcClientService::StartEndpoint(bool read) const {
  const size_t n = options_.endpoints.size();
  if (!read || !options_.balance_reads || n < 2) return 0;
  // Least outstanding wins; ties (the common idle case) rotate round-robin
  // so a healthy cluster still sees reads spread across the chain.
  int best = outstanding_[0]->load(std::memory_order_relaxed);
  std::vector<size_t> tied{0};
  for (size_t i = 1; i < n; ++i) {
    int v = outstanding_[i]->load(std::memory_order_relaxed);
    if (v < best) {
      best = v;
      tied.assign(1, i);
    } else if (v == best) {
      tied.push_back(i);
    }
  }
  return tied[balance_rr_.fetch_add(1, std::memory_order_relaxed) %
              tied.size()];
}

StatusOr<std::string> RpcClientService::Call(MsgType req_type,
                                             const std::string& body,
                                             bool read,
                                             bool idempotent) const {
  ++stats_.calls;
  if (options_.endpoints.empty()) {
    return Status::FailedPrecondition("rpc client has no endpoints");
  }
  const RecoveryConfig& rec = options_.recovery;
  const int attempts = rec.enabled ? std::max(rec.max_attempts, 1) : 1;
  const size_t n = options_.endpoints.size();
  const size_t start = StartEndpoint(read);
  // Hedge read verbs (needs a sibling replica) and idempotent tagged
  // batches (safe even against a single endpoint: the server's dedup cache
  // absorbs the duplicate). Writes and untagged compute stay primary-first
  // and unhedged — the engine's cost model placed them.
  const bool hedge_reads = read && hedging_ != nullptr && n >= 2;
  const bool hedge_idem = idempotent && hedging_ != nullptr && n >= 1 &&
                          options_.hedge_idempotent_batches;
  Status last = Status::Internal("unreachable");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    size_t ep = (start + static_cast<size_t>(attempt)) % n;
    if (attempt > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(BackoffSeconds(attempt)));
      MutexLock lock(rec_mu_);
      ++rec_.retries;
      if (ep != start) ++rec_.failovers;
    }
    // The hedged exchange covers the first attempt only; backoff retries
    // are already failure handling, doubling them would amplify an outage.
    const bool hedged = (hedge_reads || hedge_idem) && attempt == 0;
    // With a single-endpoint chain the hedge targets the same endpoint
    // over a fresh connection: it races a stuck exchange, not a slow node.
    const size_t secondary = n >= 2 ? (ep + 1) % n : ep;
    auto result = hedged ? HedgedCall(ep, secondary, req_type, body)
                         : TimedCallOnce(ep, req_type, body,
                                         /*is_hedge=*/false);
    if (result.ok()) return result;
    if (!IsTransportError(result.status())) return result;  // not retriable
    // Hedged attempts count their transport errors in LaunchAttempt (both
    // racers, not just the returned one).
    if (!hedged) NoteTransportError(result.status());
    last = result.status();
  }
  {
    MutexLock lock(rec_mu_);
    ++rec_.tuples_failed;
  }
  return last;
}

StatusOr<DataService::Fetched> RpcClientService::Fetch(Key key) {
  JOINOPT_ASSIGN_OR_RETURN(std::string body,
                           Call(MsgType::kFetchReq, EncodeKeyRequest(key),
                                /*read=*/true));
  JOINOPT_ASSIGN_OR_RETURN(StatusOr<Fetched> result,
                           DecodeFetchResponse(body));
  return result;
}

StatusOr<std::string> RpcClientService::ExecuteWithStat(
    Key key, const std::string& params, std::optional<ItemStat>* stat) {
  *stat = std::nullopt;
  JOINOPT_ASSIGN_OR_RETURN(
      std::string body,
      Call(MsgType::kExecuteReq, EncodeExecuteRequest(key, params)));
  JOINOPT_ASSIGN_OR_RETURN(ComputeResult result, DecodeExecuteResponse(body));
  *stat = result.stat;
  return std::move(result.value);
}

StatusOr<std::string> RpcClientService::Execute(Key key,
                                                const std::string& params,
                                                const UserFn& /*fn*/) {
  std::optional<ItemStat> stat;
  auto result = ExecuteWithStat(key, params, &stat);
  if (stat.has_value()) piggyback_.Record(key, *stat);
  return result;
}

std::vector<StatusOr<std::string>> RpcClientService::ExecuteBatch(
    const std::vector<std::pair<Key, std::string>>& items,
    const UserFn& /*fn*/) {
  const uint64_t seq = batch_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::vector<std::optional<ItemStat>> stats;
  auto results = ExecuteBatchTagged(items, client_id_, seq, &stats);
  for (size_t i = 0; i < stats.size(); ++i) {
    if (stats[i].has_value()) piggyback_.Record(items[i].first, *stats[i]);
  }
  return results;
}

std::vector<StatusOr<std::string>> RpcClientService::ExecuteBatchTagged(
    const std::vector<std::pair<Key, std::string>>& items,
    uint64_t client_id, uint64_t batch_seq,
    std::vector<std::optional<ItemStat>>* stats) {
  // One request frame, one response frame: the single round trip that
  // makes delegation batching worth it over a real network. The tag rides
  // in the (byte-identical across retries) body, so a retry whose original
  // response was lost hits the server's dedup cache.
  if (stats != nullptr) stats->assign(items.size(), std::nullopt);
  auto fail_all = [&](const Status& status) {
    return std::vector<StatusOr<std::string>>(items.size(), status);
  };
  if (items.empty()) return {};
  // A nonzero client id means the server dedups replays of this exact
  // request, which is what makes duplicating it (hedging) safe.
  auto body = Call(MsgType::kBatchReq,
                   EncodeTaggedBatchRequest(client_id, batch_seq, items),
                   /*read=*/false, /*idempotent=*/client_id != 0);
  if (!body.ok()) return fail_all(body.status());
  auto results = DecodeBatchResponse(*body);
  if (!results.ok()) return fail_all(results.status());
  if (results->size() != items.size()) {
    // A server answering a version-mismatch (or a decode failure on its
    // side) sends a single error result; fan it out index-aligned.
    Status status = results->empty()
                        ? Status::Internal("rpc: empty batch response")
                        : (results->front().value.ok()
                               ? Status::Internal(
                                     "rpc: batch response size mismatch")
                               : results->front().value.status());
    return fail_all(status);
  }
  std::vector<StatusOr<std::string>> values;
  values.reserve(results->size());
  for (size_t i = 0; i < results->size(); ++i) {
    ComputeResult& result = (*results)[i];
    if (stats != nullptr) (*stats)[i] = result.stat;
    values.push_back(std::move(result.value));
  }
  return values;
}

StatusOr<DataService::ItemStat> RpcClientService::Stat(Key key) const {
  if (auto parked = piggyback_.Take(key)) return *parked;
  JOINOPT_ASSIGN_OR_RETURN(std::string body,
                           Call(MsgType::kStatReq, EncodeKeyRequest(key),
                                /*read=*/true));
  JOINOPT_ASSIGN_OR_RETURN(StatusOr<ItemStat> result,
                           DecodeStatResponse(body));
  return result;
}

NodeId RpcClientService::OwnerOf(Key key) const {
  auto body =
      Call(MsgType::kOwnerReq, EncodeKeyRequest(key), /*read=*/true);
  if (!body.ok()) return kInvalidNode;
  auto node = DecodeOwnerResponse(*body);
  return node.ok() ? *node : kInvalidNode;
}

StatusOr<RegionSummary> RpcClientService::SummarizeRegion(int32_t region) {
  JOINOPT_ASSIGN_OR_RETURN(std::string body,
                           Call(MsgType::kRegionSummaryReq,
                                EncodeRegionSummaryRequest(region),
                                /*read=*/true));
  JOINOPT_ASSIGN_OR_RETURN(StatusOr<RegionSummary> result,
                           DecodeRegionSummaryResponse(body));
  return result;
}

StatusOr<std::vector<RegionRecord>> RpcClientService::SyncRegion(
    int32_t region, const std::vector<RegionRecord>& records) {
  JOINOPT_ASSIGN_OR_RETURN(std::string body,
                           Call(MsgType::kRegionSyncReq,
                                EncodeRegionSyncRequest(region, records)));
  JOINOPT_ASSIGN_OR_RETURN(StatusOr<std::vector<RegionRecord>> result,
                           DecodeRegionSyncResponse(body));
  return result;
}

StatusOr<uint64_t> RpcClientService::Put(Key key, const std::string& value,
                                         uint64_t version_floor) {
  auto body =
      Call(MsgType::kPutReq, EncodePutRequest(key, value, version_floor));
  // Whether or not the write landed, a parked stat may now be older than
  // the key's stored version.
  piggyback_.Forget(key);
  if (!body.ok()) return body.status();
  JOINOPT_ASSIGN_OR_RETURN(StatusOr<uint64_t> result,
                           DecodePutResponse(*body));
  return result;
}

RecoveryCounters RpcClientService::recovery_counters() const {
  MutexLock lock(rec_mu_);
  return rec_;
}

RpcClientStats RpcClientService::stats() const {
  RpcClientStats out;
  out.calls = stats_.calls.load(std::memory_order_relaxed);
  out.connections_opened =
      stats_.connections_opened.load(std::memory_order_relaxed);
  out.bytes_out = stats_.bytes_out.load(std::memory_order_relaxed);
  out.bytes_in = stats_.bytes_in.load(std::memory_order_relaxed);
  return out;
}

}  // namespace joinopt
