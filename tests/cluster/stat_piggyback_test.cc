// Section 4.3's piggyback on the live cluster path: compute responses carry
// each ok item's (size, version), and the ClusterClientService answers the
// Stat a ParallelInvoker issues after every delegated item from them —
// under kAny only. Every test runs against both serving backends.
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "joinopt/cluster/deployment.h"
#include "joinopt/common/hash.h"
#include "joinopt/engine/async_api.h"
#include "joinopt/engine/parallel_invoker.h"

namespace joinopt {
namespace {

UserFn EchoFn() {
  return [](Key key, const std::string& params, const std::string& value) {
    return std::to_string(key) + "/" + params + "/" + value;
  };
}

const RpcBackend kBackends[] = {RpcBackend::kThreadPerConnection,
                                RpcBackend::kReactor};

const char* BackendName(RpcBackend b) {
  return b == RpcBackend::kReactor ? "reactor" : "threaded";
}

/// 3 nodes, RF 2, no controller: its liveness probes are Stat requests,
/// and these tests count every Stat a data node serves.
ClusterDeploymentOptions Options(RpcBackend backend,
                                 ReadConsistency consistency) {
  ClusterDeploymentOptions opts;
  opts.topology.num_data_nodes = 3;
  opts.topology.regions_per_node = 4;
  opts.topology.replication_factor = 2;
  opts.server.backend = backend;
  opts.client.read_consistency = consistency;
  opts.start_controller = false;
  return opts;
}

std::string ValueOf(Key key) {
  return "value-" + std::to_string(key) + std::string(key % 17, 'x');
}

/// The piggyback slot a key maps to (StatPiggyback's direct mapping).
size_t SlotOf(Key key) {
  return static_cast<size_t>(Mix64(key)) & (StatPiggyback::kSlots - 1);
}

/// `n` keys that land in pairwise distinct piggyback slots. The table is
/// direct-mapped, so two parked keys sharing a slot send one of their
/// Stats to the wire by design (AnEntryAnswersExactlyOneStat shows it);
/// with distinct slots, every delegated item's Stat must be a hit.
std::vector<Key> DistinctSlotKeys(size_t n) {
  std::vector<Key> keys;
  std::vector<bool> taken(StatPiggyback::kSlots, false);
  for (Key k = 0; keys.size() < n; ++k) {
    size_t slot = SlotOf(k);
    if (taken[slot]) continue;
    taken[slot] = true;
    keys.push_back(k);
  }
  return keys;
}

void SeedKeys(ClusterDeployment& deploy, const std::vector<Key>& keys) {
  for (Key k : keys) ASSERT_TRUE(deploy.Seed(k, ValueOf(k)).ok());
}

int64_t StatRequests(ClusterDeployment& deploy) {
  int64_t total = 0;
  for (int i = 0; i < deploy.num_data_nodes(); ++i) {
    total += deploy.data_node(i).server()->stats().stat_requests;
  }
  return total;
}

/// Forwards every verb and remembers what each Stat answered: the
/// (size, version) the invoker's decision engine learns for the key.
class StatRecorder : public DataService {
 public:
  explicit StatRecorder(DataService* inner) : inner_(inner) {}

  StatusOr<Fetched> Fetch(Key key) override { return inner_->Fetch(key); }
  StatusOr<std::string> Execute(Key key, const std::string& params,
                                const UserFn& fn) override {
    return inner_->Execute(key, params, fn);
  }
  std::vector<StatusOr<std::string>> ExecuteBatch(
      const std::vector<std::pair<Key, std::string>>& items,
      const UserFn& fn) override {
    return inner_->ExecuteBatch(items, fn);
  }
  StatusOr<ItemStat> Stat(Key key) const override {
    auto stat = inner_->Stat(key);
    std::lock_guard<std::mutex> lock(mu_);
    ++calls_;
    if (stat.ok()) learned_[key] = *stat;
    return stat;
  }
  NodeId OwnerOf(Key key) const override { return inner_->OwnerOf(key); }

  int64_t calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }
  std::map<Key, ItemStat> learned() const {
    std::lock_guard<std::mutex> lock(mu_);
    return learned_;
  }

 private:
  DataService* inner_;
  mutable std::mutex mu_;
  mutable int64_t calls_ = 0;
  mutable std::map<Key, ItemStat> learned_;
};

/// Runs every key through a ParallelInvoker that delegates every request
/// (forced compute, no cache), so each key is one delegated batch item
/// followed by the invoker's Stat of it.
ParallelInvokerStats DelegateAll(DataService* service,
                                 const std::vector<Key>& keys) {
  ParallelInvokerOptions opts;
  opts.num_threads = 2;
  opts.delegation_batch_size = 16;
  opts.decision.caching_enabled = false;
  opts.decision.forced_route = ForcedRoute::kCompute;
  ParallelInvoker invoker(service, EchoFn(), opts);
  for (Key k : keys) invoker.SubmitComp(k, "p");
  for (Key k : keys) {
    auto r = invoker.FetchComp(k, "p");
    EXPECT_TRUE(r.ok()) << r.status();
    if (r.ok()) {
      EXPECT_EQ(*r, std::to_string(k) + "/p/" + ValueOf(k));
    }
  }
  invoker.Barrier();
  return invoker.stats();
}

TEST(ClusterStatPiggybackTest, DelegatedItemsUnderAnyNeedNoStatRequest) {
  constexpr size_t kKeys = 300;
  const std::vector<Key> keys = DistinctSlotKeys(kKeys);
  for (RpcBackend backend : kBackends) {
    SCOPED_TRACE(BackendName(backend));
    ClusterDeployment deploy(EchoFn(), Options(backend, ReadConsistency::kAny));
    ASSERT_TRUE(deploy.Start().ok());
    SeedKeys(deploy, keys);

    StatRecorder recorder(&deploy.client());
    ParallelInvokerStats stats = DelegateAll(&recorder, keys);
    EXPECT_EQ(stats.delegated, static_cast<int64_t>(kKeys));
    EXPECT_GT(stats.delegation_batches, 0);
    EXPECT_EQ(stats.transport_errors, 0);
    EXPECT_EQ(recorder.calls(), static_cast<int64_t>(kKeys))
        << "the invoker Stats every delegated item";
    EXPECT_EQ(StatRequests(deploy), 0)
        << "every delegated item's Stat must come from the piggyback";

    // What the engine learned is what a wire Stat returns. The entries
    // were consumed, so these Stats go to the wire.
    std::map<Key, DataService::ItemStat> learned = recorder.learned();
    ASSERT_EQ(learned.size(), kKeys);
    for (const auto& [key, stat] : learned) {
      auto wire = deploy.client().Stat(key);
      ASSERT_TRUE(wire.ok()) << wire.status();
      EXPECT_EQ(stat.size_bytes, wire->size_bytes) << "key " << key;
      EXPECT_EQ(stat.version, wire->version) << "key " << key;
      EXPECT_EQ(stat.size_bytes, static_cast<double>(ValueOf(key).size()));
    }
    EXPECT_EQ(StatRequests(deploy), static_cast<int64_t>(kKeys));
  }
}

TEST(ClusterStatPiggybackTest, OwnerOnlyAndQuorumStatStillReadTheWire) {
  constexpr size_t kKeys = 120;
  const std::vector<Key> keys = DistinctSlotKeys(kKeys);
  for (RpcBackend backend : kBackends) {
    for (ReadConsistency mode :
         {ReadConsistency::kOwnerOnly, ReadConsistency::kQuorumVersion}) {
      SCOPED_TRACE(std::string(BackendName(backend)) +
                   (mode == ReadConsistency::kOwnerOnly ? " owner-only"
                                                        : " quorum"));
      ClusterDeployment deploy(EchoFn(), Options(backend, mode));
      ASSERT_TRUE(deploy.Start().ok());
      SeedKeys(deploy, keys);

      StatRecorder recorder(&deploy.client());
      ParallelInvokerStats stats = DelegateAll(&recorder, keys);
      EXPECT_EQ(stats.delegated, static_cast<int64_t>(kKeys));
      // Owner-only reads one replica per Stat, quorum a majority of two.
      const int64_t per_stat = mode == ReadConsistency::kOwnerOnly ? 1 : 2;
      EXPECT_EQ(StatRequests(deploy), per_stat * static_cast<int64_t>(kKeys));
      EXPECT_EQ(deploy.client().stat_piggyback().occupied(), 0u)
          << "nothing is parked outside kAny";
      for (const auto& [key, stat] : recorder.learned()) {
        EXPECT_EQ(stat.size_bytes, static_cast<double>(ValueOf(key).size()));
      }
    }
  }
}

TEST(ClusterStatPiggybackTest, AnEntryAnswersExactlyOneStat) {
  for (RpcBackend backend : kBackends) {
    SCOPED_TRACE(BackendName(backend));
    ClusterDeployment deploy(EchoFn(), Options(backend, ReadConsistency::kAny));
    ASSERT_TRUE(deploy.Start().ok());
    SeedKeys(deploy, {1, 3, 5, 6});
    ClusterClientService& client = deploy.client();

    auto results = client.ExecuteBatch({{3, "a"}, {5, "b"}}, EchoFn());
    ASSERT_EQ(results.size(), 2u);
    ASSERT_TRUE(results[0].ok() && results[1].ok());
    EXPECT_EQ(client.stat_piggyback().occupied(), 2u);

    auto first = client.Stat(3);
    ASSERT_TRUE(first.ok()) << first.status();
    EXPECT_EQ(StatRequests(deploy), 0);
    auto second = client.Stat(3);
    ASSERT_TRUE(second.ok()) << second.status();
    EXPECT_EQ(StatRequests(deploy), 1) << "the entry was already consumed";
    EXPECT_EQ(first->size_bytes, second->size_bytes);
    EXPECT_EQ(first->version, second->version);

    // A single Execute piggybacks too; an error result parks nothing.
    ASSERT_TRUE(client.Execute(6, "c", EchoFn()).ok());
    EXPECT_FALSE(client.Execute(1000, "missing", EchoFn()).ok());
    ASSERT_TRUE(client.Stat(6).ok());
    EXPECT_EQ(StatRequests(deploy), 1);
    EXPECT_FALSE(client.Stat(1000).ok());
    EXPECT_EQ(StatRequests(deploy), 2);
    ASSERT_TRUE(client.Stat(5).ok());  // the first batch's other entry
    EXPECT_EQ(StatRequests(deploy), 2);
    EXPECT_EQ(client.stat_piggyback().occupied(), 0u);

    // Two parked keys sharing a slot: the later Record evicts the other,
    // so exactly one of their Stats reads the wire.
    const Key a = 0;
    Key b = 1;
    while (SlotOf(b) != SlotOf(a)) ++b;
    SeedKeys(deploy, {a, b});
    ASSERT_TRUE(client.ExecuteBatch({{a, "x"}, {b, "y"}}, EchoFn())[0].ok());
    EXPECT_EQ(client.stat_piggyback().occupied(), 1u);
    ASSERT_TRUE(client.Stat(a).ok());
    ASSERT_TRUE(client.Stat(b).ok());
    EXPECT_EQ(StatRequests(deploy), 3);
  }
}

TEST(ClusterStatPiggybackTest, OwnPutSendsTheNextStatToTheWire) {
  for (RpcBackend backend : kBackends) {
    SCOPED_TRACE(BackendName(backend));
    ClusterDeployment deploy(EchoFn(), Options(backend, ReadConsistency::kAny));
    ASSERT_TRUE(deploy.Start().ok());
    SeedKeys(deploy, {4});
    ClusterClientService& client = deploy.client();

    ASSERT_TRUE(client.Execute(4, "p", EchoFn()).ok());
    auto parked_version = client.Stat(4);  // answered from the piggyback
    ASSERT_TRUE(parked_version.ok());
    ASSERT_TRUE(client.Execute(4, "p", EchoFn()).ok());

    const std::string bigger = "a much longer value than before";
    auto written = client.Put(4, bigger);
    ASSERT_TRUE(written.ok()) << written.status();
    EXPECT_EQ(client.stat_piggyback().occupied(), 0u);

    auto stat = client.Stat(4);
    ASSERT_TRUE(stat.ok()) << stat.status();
    EXPECT_EQ(StatRequests(deploy), 1);
    EXPECT_EQ(stat->version, *written);
    EXPECT_GT(stat->version, parked_version->version);
    EXPECT_EQ(stat->size_bytes, static_cast<double>(bigger.size()));
  }
}

TEST(ClusterStatPiggybackTest, TableSizeStaysFixedOverManyDistinctKeys) {
  constexpr Key kKeys = 100000;
  constexpr size_t kChunk = 2000;
  for (RpcBackend backend : kBackends) {
    SCOPED_TRACE(BackendName(backend));
    ClusterDeployment deploy(EchoFn(), Options(backend, ReadConsistency::kAny));
    ASSERT_TRUE(deploy.Start().ok());
    for (Key k = 0; k < kKeys; ++k) ASSERT_TRUE(deploy.Seed(k, "v").ok());
    ClusterClientService& client = deploy.client();

    std::vector<std::pair<Key, std::string>> items;
    for (Key k = 0; k < kKeys; ++k) {
      items.emplace_back(k, "p");
      if (items.size() == kChunk || k + 1 == kKeys) {
        for (const auto& r : client.ExecuteBatch(items, EchoFn())) {
          ASSERT_TRUE(r.ok()) << r.status();
        }
        items.clear();
      }
    }
    // 100k distinct keys parked, at most kSlots of them kept.
    EXPECT_LE(client.stat_piggyback().occupied(), StatPiggyback::kSlots);
    EXPECT_GT(client.stat_piggyback().occupied(), 0u);
    // The most recent key won its slot: its Stat needs no round trip.
    ASSERT_TRUE(client.Stat(kKeys - 1).ok());
    EXPECT_EQ(StatRequests(deploy), 0);
  }
}

}  // namespace
}  // namespace joinopt
