#include "joinopt/cluster/cluster_client.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <unordered_map>

#include "joinopt/common/hash.h"
#include "joinopt/net/socket.h"

namespace joinopt {

namespace {

/// Per-process instance counter (same scheme as RpcClientService's): keeps
/// dedup tags distinct across cluster clients even with identical seeds.
std::atomic<uint64_t> g_cluster_client_instance{0};

}  // namespace

ClusterClientService::ClusterClientService(ClusterTopology* topology,
                                           ClusterClientOptions options)
    : topology_(topology),
      options_(std::move(options)),
      jitter_rng_(options_.seed) {
  int n = topology_->num_nodes();
  clients_.reserve(static_cast<size_t>(n));
  for (int node = 0; node < n; ++node) {
    RpcClientOptions copts;
    copts.endpoints = {topology_->endpoint(static_cast<NodeId>(node))};
    copts.connect_deadline = options_.connect_deadline;
    // One attempt per node call: this layer owns rotation and backoff.
    copts.recovery.enabled = false;
    copts.recovery.request_timeout = options_.recovery.request_timeout;
    copts.balance_reads = false;
    copts.seed = options_.seed ^ static_cast<uint64_t>(node);
    copts.hedging = options_.hedging;
    copts.hedge_idempotent_batches = options_.hedge_idempotent_batches;
    copts.net_identity = options_.net_identity;
    clients_.push_back(std::make_unique<RpcClientService>(std::move(copts)));
  }
  if (options_.load_view != nullptr) {
    load_view_ = options_.load_view;
  } else {
    owned_load_view_ = std::make_unique<NodeLoadView>(n, options_.seed);
    load_view_ = owned_load_view_.get();
  }
  client_id_ =
      Mix64(options_.seed ^
            Mix64(g_cluster_client_instance.fetch_add(1) + 0x5eedULL)) |
      1ULL;
}

std::vector<NodeId> ClusterClientService::Candidates(Key key,
                                                     bool read) const {
  std::vector<NodeId> live = topology_->LiveReplicasOf(key);
  if (live.empty()) {
    // Every replica is marked down: fall back to the raw chain — a node
    // may be back without the controller having noticed yet, and failing
    // over the wire gives the honest error.
    live = topology_->ReplicasOf(key);
  }
  if (read && options_.read_consistency == ReadConsistency::kOwnerOnly) {
    // Owner-only never balances: the chain head is the freshest live
    // replica by the write path's construction.
    return live;
  }
  if (read && options_.balance_reads && live.size() > 1) {
    // Power-of-two-choices over the load view: sample two candidates, take
    // the lower (outstanding+1) * expected-latency score — latency-aware
    // where least-outstanding is blind to a slow-but-idle node.
    NodeId pick = load_view_->PickTwoChoices(live);
    std::rotate(live.begin(), std::find(live.begin(), live.end(), pick),
                live.end());
  }
  return live;
}

void ClusterClientService::NoteFailure(NodeId node,
                                       const Status& status) const {
  {
    MutexLock lock(rec_mu_);
    if (IsDeadlineExceeded(status)) ++rec_.timeouts;
  }
  // A timeout-sized penalty repels further traffic until successes decay it.
  load_view_->NoteFailure(node, options_.recovery.request_timeout);
  if (failure_listener_) failure_listener_(node);
}

double ClusterClientService::BackoffSeconds(int attempt) const {
  const RecoveryConfig& rec = options_.recovery;
  double backoff = std::min(rec.backoff_max,
                            rec.backoff_base * std::pow(2.0, attempt - 1));
  MutexLock lock(rec_mu_);
  return backoff * (1.0 + rec.jitter_fraction * jitter_rng_.NextDouble());
}

template <typename Op>
Status ClusterClientService::RoutedCall(Key key, bool read,
                                        const Op& op) const {
  stats_.calls.fetch_add(1, std::memory_order_relaxed);
  const RecoveryConfig& rec = options_.recovery;
  int max_attempts = rec.enabled ? std::max(1, rec.max_attempts) : 1;
  Status last = Status::Aborted("no replicas");
  NodeId first_choice = kInvalidNode;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    // Re-read the chain every attempt: a promotion between attempts must
    // redirect the retry, not rediscover the dead primary.
    std::vector<NodeId> candidates = Candidates(key, read);
    if (candidates.empty()) return last;
    // Owner-only reads retry against the *current* chain head (promotions
    // redirect them) instead of rotating onto followers.
    const bool owner_only =
        read && options_.read_consistency == ReadConsistency::kOwnerOnly;
    NodeId node =
        owner_only
            ? candidates.front()
            : candidates[static_cast<size_t>(attempt) % candidates.size()];
    if (attempt == 0) {
      first_choice = node;
    } else {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(BackoffSeconds(attempt)));
      MutexLock lock(rec_mu_);
      ++rec_.retries;
      if (node != first_choice) ++rec_.failovers;
    }
    if (attempt > 0 && node != first_choice) {
      stats_.node_failovers.fetch_add(1, std::memory_order_relaxed);
    }
    load_view_->StartRequest(node);
    auto t0 = std::chrono::steady_clock::now();
    Status status = op(node);
    // An in-band error is still a timed answer from a live node — observe
    // it; only transport failures go through the penalty path instead.
    double seconds =
        IsTransportError(status)
            ? -1.0
            : std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
    load_view_->FinishRequest(node, seconds);
    if (!IsTransportError(status)) return status;  // ok or in-band error
    NoteFailure(node, status);
    last = status;
  }
  {
    MutexLock lock(rec_mu_);
    ++rec_.tuples_failed;
  }
  return last;
}

StatusOr<DataService::Fetched> ClusterClientService::QuorumFetch(
    Key key) const {
  stats_.calls.fetch_add(1, std::memory_order_relaxed);
  stats_.quorum_reads.fetch_add(1, std::memory_order_relaxed);
  const std::vector<NodeId> chain = topology_->ReplicasOf(key);
  if (chain.empty()) return Status::Aborted("no replicas");
  // Majority of the *full* chain, so any write acked by all live replicas
  // intersects every quorum even while a minority is down or partitioned.
  const size_t quorum = chain.size() / 2 + 1;
  size_t answered = 0;
  bool found = false;
  uint64_t min_vote = UINT64_MAX, max_vote = 0;
  Fetched best{};
  Status last = Status::Aborted("quorum: no live replica answered");
  for (NodeId node : chain) {
    if (!topology_->NodeUp(node)) continue;
    auto r = clients_[static_cast<size_t>(node)]->Fetch(key);
    uint64_t vote = 0;  // in-band NotFound votes "version 0"
    if (!r.ok()) {
      if (IsTransportError(r.status())) {
        NoteFailure(node, r.status());
        last = r.status();
        continue;
      }
    } else {
      vote = r->version;
      if (!found || vote > best.version) {
        best = std::move(*r);
        found = true;
      }
    }
    ++answered;
    min_vote = std::min(min_vote, vote);
    max_vote = std::max(max_vote, vote);
  }
  if (answered < quorum) {
    return Status::Aborted("quorum not reached: " + last.message());
  }
  if (min_vote != max_vote) {
    stats_.quorum_divergence.fetch_add(1, std::memory_order_relaxed);
  }
  if (!found) return Status::NotFound("key not found");
  return best;
}

StatusOr<DataService::ItemStat> ClusterClientService::QuorumStat(
    Key key) const {
  stats_.calls.fetch_add(1, std::memory_order_relaxed);
  stats_.quorum_reads.fetch_add(1, std::memory_order_relaxed);
  const std::vector<NodeId> chain = topology_->ReplicasOf(key);
  if (chain.empty()) return Status::Aborted("no replicas");
  const size_t quorum = chain.size() / 2 + 1;
  size_t answered = 0;
  bool found = false;
  uint64_t min_vote = UINT64_MAX, max_vote = 0;
  ItemStat best{};
  Status last = Status::Aborted("quorum: no live replica answered");
  for (NodeId node : chain) {
    if (!topology_->NodeUp(node)) continue;
    auto r = clients_[static_cast<size_t>(node)]->Stat(key);
    uint64_t vote = 0;
    if (!r.ok()) {
      if (IsTransportError(r.status())) {
        NoteFailure(node, r.status());
        last = r.status();
        continue;
      }
    } else {
      vote = r->version;
      if (!found || vote > best.version) {
        best = *r;
        found = true;
      }
    }
    ++answered;
    min_vote = std::min(min_vote, vote);
    max_vote = std::max(max_vote, vote);
  }
  if (answered < quorum) {
    return Status::Aborted("quorum not reached: " + last.message());
  }
  if (min_vote != max_vote) {
    stats_.quorum_divergence.fetch_add(1, std::memory_order_relaxed);
  }
  if (!found) return Status::NotFound("key not found");
  return best;
}

StatusOr<DataService::Fetched> ClusterClientService::Fetch(Key key) {
  if (options_.read_consistency == ReadConsistency::kQuorumVersion) {
    return QuorumFetch(key);
  }
  StatusOr<Fetched> result = Status::Aborted("unrouted");
  Status s = RoutedCall(key, /*read=*/true, [&](NodeId node) {
    result = clients_[static_cast<size_t>(node)]->Fetch(key);
    return result.ok() ? Status::OK() : result.status();
  });
  if (!s.ok()) return s;
  return result;
}

StatusOr<std::string> ClusterClientService::Execute(Key key,
                                                    const std::string& params,
                                                    const UserFn& fn) {
  (void)fn;  // registered server-side
  StatusOr<std::string> result = Status::Aborted("unrouted");
  std::optional<ItemStat> stat;
  Status s = RoutedCall(key, /*read=*/false, [&](NodeId node) {
    RpcClientService& rpc = *clients_[static_cast<size_t>(node)];
    result = rpc.ExecuteWithStat(key, params, &stat);
    return result.ok() ? Status::OK() : result.status();
  });
  if (!s.ok()) return s;
  if (stat.has_value() && UsesPiggyback()) piggyback_.Record(key, *stat);
  return result;
}

std::vector<StatusOr<std::string>> ClusterClientService::ExecuteBatch(
    const std::vector<std::pair<Key, std::string>>& items, const UserFn& fn) {
  (void)fn;  // registered server-side
  std::vector<StatusOr<std::string>> results(
      items.size(), StatusOr<std::string>(Status::Aborted("unrouted")));
  if (items.empty()) return results;

  // Group by current owner; indices remember where results scatter back.
  std::unordered_map<NodeId, std::vector<size_t>> groups;
  for (size_t i = 0; i < items.size(); ++i) {
    groups[topology_->OwnerOf(items[i].first)].push_back(i);
  }
  if (groups.size() > 1) {
    stats_.batches_split.fetch_add(1, std::memory_order_relaxed);
  }

  for (auto& [owner, indices] : groups) {
    std::vector<std::pair<Key, std::string>> group;
    group.reserve(indices.size());
    for (size_t i : indices) group.push_back(items[i]);
    // The tag is fixed before the first send and reused on every retry —
    // including retries that land on a different node after a promotion —
    // so the server-side dedup cache can answer replays.
    uint64_t tag = batch_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::vector<StatusOr<std::string>> group_results;
    std::vector<std::optional<ItemStat>> group_stats;
    Status s =
        RoutedCall(group.front().first, /*read=*/false, [&](NodeId node) {
          RpcClientService& rpc = *clients_[static_cast<size_t>(node)];
          group_results =
              rpc.ExecuteBatchTagged(group, client_id_, tag, &group_stats);
          // A whole-batch transport failure surfaces on every item; probe
          // the first for retriability.
          for (const auto& r : group_results) {
            if (!r.ok() && IsTransportError(r.status())) return r.status();
          }
          return Status::OK();
        });
    if (s.ok()) {
      for (size_t j = 0; j < indices.size(); ++j) {
        results[indices[j]] = std::move(group_results[j]);
        if (group_stats[j].has_value() && UsesPiggyback()) {
          piggyback_.Record(group[j].first, *group_stats[j]);
        }
      }
    } else {
      for (size_t i : indices) results[i] = s;
    }
  }
  return results;
}

StatusOr<DataService::ItemStat> ClusterClientService::Stat(Key key) const {
  if (UsesPiggyback()) {
    if (auto parked = piggyback_.Take(key)) return *parked;
  }
  if (options_.read_consistency == ReadConsistency::kQuorumVersion) {
    return QuorumStat(key);
  }
  StatusOr<ItemStat> result = Status::Aborted("unrouted");
  Status s = RoutedCall(key, /*read=*/true, [&](NodeId node) {
    result = clients_[static_cast<size_t>(node)]->Stat(key);
    return result.ok() ? Status::OK() : result.status();
  });
  if (!s.ok()) return s;
  return result;
}

NodeId ClusterClientService::OwnerOf(Key key) const {
  return topology_->OwnerOf(key);
}

StatusOr<uint64_t> ClusterClientService::Put(Key key,
                                             const std::string& value,
                                             PutOutcome* outcome) {
  stats_.calls.fetch_add(1, std::memory_order_relaxed);
  std::vector<NodeId> chain = topology_->ReplicasOf(key);
  StatusOr<uint64_t> primary_version = Status::Aborted("no replicas");
  PutOutcome out;
  // One logical write must carry ONE version to every replica: the first
  // successful write (normally the primary's) assigns it, and everyone
  // after gets it as a floor applied with ApplyIfNewer semantics. Letting
  // each replica's store count independently drifts the numbering after
  // any skip or failure — then version-aware merges compare mismatched
  // counters and reads can legitimately return "older" numbers for newer
  // data, which an oracle rightly flags as stale/torn.
  uint64_t floor = 0;
  for (size_t i = 0; i < chain.size(); ++i) {
    NodeId node = chain[i];
    if (!topology_->NodeUp(node)) {
      // A marked-down replica re-syncs its store on rejoin; skipping it is
      // safe and counted, not silent.
      stats_.skipped_replica_writes.fetch_add(1, std::memory_order_relaxed);
      ++out.replicas_skipped;
      continue;
    }
    auto version = clients_[static_cast<size_t>(node)]->Put(key, value, floor);
    if (version.ok()) {
      ++out.replicas_acked;
      if (floor == 0) floor = *version;
    } else {
      ++out.replicas_failed;
      if (IsTransportError(version.status())) {
        NoteFailure(node, version.status());
      }
    }
    if (i == 0) primary_version = std::move(version);
  }
  // Whether or not the write landed, a parked stat may now be older than
  // the key's stored version.
  piggyback_.Forget(key);
  if (primary_version.ok()) out.primary_version = *primary_version;
  if (outcome != nullptr) *outcome = out;
  return primary_version;
}

RecoveryCounters ClusterClientService::recovery_counters() const {
  MutexLock lock(rec_mu_);
  return rec_;
}

ClusterClientStats ClusterClientService::stats() const {
  ClusterClientStats s;
  s.calls = stats_.calls.load(std::memory_order_relaxed);
  s.node_failovers = stats_.node_failovers.load(std::memory_order_relaxed);
  s.batches_split = stats_.batches_split.load(std::memory_order_relaxed);
  s.skipped_replica_writes =
      stats_.skipped_replica_writes.load(std::memory_order_relaxed);
  s.quorum_reads = stats_.quorum_reads.load(std::memory_order_relaxed);
  s.quorum_divergence =
      stats_.quorum_divergence.load(std::memory_order_relaxed);
  return s;
}

}  // namespace joinopt
