// Wire-level invalidation tests: the Subscribe/Notify stream end to end
// (raw frames and through UpdateSubscriber into a ParallelInvoker), the
// epoch/seq re-sync discipline — sequence gaps after a dropped stream
// trigger a *targeted* region re-sync, node restarts bump epochs — and the
// no-stale-read guarantee across reconnects.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "joinopt/cluster/deployment.h"
#include "joinopt/engine/parallel_invoker.h"
#include "joinopt/net/rpc_client.h"
#include "joinopt/net/socket.h"

namespace joinopt {
namespace {

UserFn EchoFn() {
  return [](Key key, const std::string& params, const std::string& value) {
    return std::to_string(key) + "/" + params + "/" + value;
  };
}

bool WaitFor(const std::function<bool()>& pred, double timeout_sec) {
  auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_sec));
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

ClusterDeploymentOptions SmallOptions(int nodes) {
  ClusterDeploymentOptions opts;
  opts.topology.num_data_nodes = nodes;
  opts.topology.regions_per_node = 4;
  opts.topology.replication_factor = 1;
  opts.start_controller = false;  // liveness managed by hand here
  opts.client.recovery.backoff_base = 2e-3;
  opts.client.recovery.backoff_max = 20e-3;
  return opts;
}

UpdateSubscriberOptions FastSubscriber() {
  UpdateSubscriberOptions opts;
  opts.poll_tick = 20e-3;
  opts.reconnect_backoff = 10e-3;
  return opts;
}

/// A key owned (as primary) by `node` in this topology.
Key KeyOwnedBy(ClusterTopology& topology, NodeId node, Key start = 0) {
  for (Key k = start; k < start + 10000; ++k) {
    if (topology.OwnerOf(k) == node) return k;
  }
  ADD_FAILURE() << "no key owned by node " << node;
  return 0;
}

TEST(SubscriberTest, RawSubscribeDeliversSnapshotThenInOrderEvents) {
  ClusterDeployment deploy(EchoFn(), SmallOptions(1));
  ASSERT_TRUE(deploy.Start().ok());
  RpcEndpoint ep = deploy.topology().endpoint(0);

  auto conn = TcpConnect(ep.host, ep.port, 1.0);
  ASSERT_TRUE(conn.ok()) << conn.status();
  ASSERT_TRUE(SendFrame(conn->get(), MsgType::kSubscribeReq, 1,
                        EncodeSubscribeRequest(99), 1.0,
                        kDefaultMaxFrameBytes)
                  .ok());

  auto resp = RecvFrame(conn->get(), 2.0, kDefaultMaxFrameBytes);
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_EQ(resp->header.type, MsgType::kSubscribeResp);
  auto snapshot = DecodeSubscribeResponse(resp->body);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  ASSERT_EQ(snapshot->size(),
            static_cast<size_t>(deploy.topology().num_regions()));
  for (const RegionEpoch& re : *snapshot) {
    EXPECT_EQ(re.epoch, 1u);
    EXPECT_EQ(re.seq, 0u);
  }

  // A write lands as a kNotifyEvt carrying the bumped sequence number.
  Key key = 5;
  auto version = deploy.Seed(key, "value");
  ASSERT_TRUE(version.ok());
  auto evt = RecvFrame(conn->get(), 2.0, kDefaultMaxFrameBytes);
  ASSERT_TRUE(evt.ok()) << evt.status();
  ASSERT_EQ(evt->header.type, MsgType::kNotifyEvt);
  auto event = DecodeNotifyEvent(evt->body);
  ASSERT_TRUE(event.ok()) << event.status();
  EXPECT_EQ(event->key, key);
  EXPECT_EQ(event->version, *version);
  EXPECT_EQ(event->region, deploy.topology().RegionOf(key));
  EXPECT_EQ(event->epoch, 1u);
  EXPECT_EQ(event->seq, 1u);
}

TEST(SubscriberTest, RawSubscribeReceivesEveryBurstOfPuts) {
  // A live stream must keep delivering after its first batch of events:
  // three bursts of Puts, 150 ms apart (several poll ticks), each reach
  // the subscriber. Bursts alternate between Puts over the wire (the
  // server's own pool threads fan out to the stream) and writes made on
  // the node's service directly (another thread fans out).
  ClusterDeployment deploy(EchoFn(), SmallOptions(1));
  ASSERT_TRUE(deploy.Start().ok());
  RpcEndpoint ep = deploy.topology().endpoint(0);

  auto conn = TcpConnect(ep.host, ep.port, 1.0);
  ASSERT_TRUE(conn.ok()) << conn.status();
  ASSERT_TRUE(SendFrame(conn->get(), MsgType::kSubscribeReq, 1,
                        EncodeSubscribeRequest(99), 1.0,
                        kDefaultMaxFrameBytes)
                  .ok());
  auto resp = RecvFrame(conn->get(), 2.0, kDefaultMaxFrameBytes);
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_EQ(resp->header.type, MsgType::kSubscribeResp);

  RpcClientOptions copts;
  copts.endpoints = {ep};
  RpcClientService writer(copts);
  constexpr int kBursts = 3;
  constexpr int kPutsPerBurst = 8;
  for (int burst = 0; burst < kBursts; ++burst) {
    SCOPED_TRACE("burst " + std::to_string(burst));
    if (burst > 0) std::this_thread::sleep_for(std::chrono::milliseconds(150));
    std::vector<std::pair<Key, uint64_t>> written;
    for (int i = 0; i < kPutsPerBurst; ++i) {
      Key key = static_cast<Key>(burst * 100 + i);
      std::string value = "b" + std::to_string(burst);
      StatusOr<uint64_t> version = Status::Internal("not written");
      if (burst % 2 == 0) {
        version = writer.Put(key, value);
      } else {
        version = deploy.Seed(key, value);
      }
      ASSERT_TRUE(version.ok()) << version.status();
      written.emplace_back(key, *version);
    }
    // Distinct keys, so nothing coalesces: one event per Put, in order.
    for (const auto& [key, version] : written) {
      auto evt = RecvFrame(conn->get(), 2.0, kDefaultMaxFrameBytes);
      ASSERT_TRUE(evt.ok()) << "key " << key << ": " << evt.status();
      ASSERT_EQ(evt->header.type, MsgType::kNotifyEvt);
      auto event = DecodeNotifyEvent(evt->body);
      ASSERT_TRUE(event.ok()) << event.status();
      EXPECT_EQ(event->key, key);
      EXPECT_EQ(event->version, version);
    }
  }
}

TEST(SubscriberTest, NotificationsReachTheInvokerAndKillStaleReads) {
  ClusterDeployment deploy(EchoFn(), SmallOptions(2));
  ASSERT_TRUE(deploy.Start().ok());
  Key key = KeyOwnedBy(deploy.topology(), 0);
  ASSERT_TRUE(deploy.Seed(key, "old").ok());

  ParallelInvokerOptions iopts;
  iopts.num_threads = 2;
  ParallelInvoker invoker(&deploy.client(), EchoFn(), iopts);
  auto subscriber = deploy.MakeSubscriber(&invoker, FastSubscriber());
  ASSERT_TRUE(WaitFor([&] { return subscriber->AllSnapshotsSeen(); }, 5.0));

  // Warm the key so version floors / caches exist, then update it.
  for (int i = 0; i < 8; ++i) {
    auto r = invoker.FetchComp(key, "p");
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(*r, std::to_string(key) + "/p/old");
  }
  ASSERT_TRUE(deploy.Seed(key, "new").ok());
  ASSERT_TRUE(WaitFor(
      [&] { return subscriber->stats().notifications >= 1; }, 5.0))
      << "update event never arrived over the stream";

  // No stale read: the next fetches converge on the new value.
  ASSERT_TRUE(WaitFor(
      [&] {
        auto r = invoker.FetchComp(key, "p");
        return r.ok() && *r == std::to_string(key) + "/p/new";
      },
      5.0))
      << "stale value survived an in-order invalidation";
}

TEST(SubscriberTest, SequenceGapAfterDroppedStreamTriggersTargetedResync) {
  ClusterDeployment deploy(EchoFn(), SmallOptions(2));
  ASSERT_TRUE(deploy.Start().ok());
  Key gap_key = KeyOwnedBy(deploy.topology(), 0);
  Key safe_key = KeyOwnedBy(deploy.topology(), 1);
  ASSERT_TRUE(deploy.Seed(gap_key, "old").ok());
  ASSERT_TRUE(deploy.Seed(safe_key, "safe").ok());

  ParallelInvokerOptions iopts;
  iopts.num_threads = 2;
  ParallelInvoker invoker(&deploy.client(), EchoFn(), iopts);
  // A wide reconnect backoff keeps the subscriber deaf long enough that a
  // write after the drop is provably lost (not just delivered late).
  UpdateSubscriberOptions sopts = FastSubscriber();
  sopts.reconnect_backoff = 400e-3;
  auto subscriber = deploy.MakeSubscriber(&invoker, sopts);
  ASSERT_TRUE(WaitFor([&] { return subscriber->AllSnapshotsSeen(); }, 5.0));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(invoker.FetchComp(gap_key, "p").ok());
    ASSERT_TRUE(invoker.FetchComp(safe_key, "p").ok());
  }

  // Sever node 0's stream, update while the subscriber is deaf (inside its
  // reconnect backoff), and let it reconnect: the fresh snapshot's
  // sequence number is ahead of the last seen, which must be detected as a
  // gap and answered with a region re-sync.
  subscriber->DropConnectionForTest(0);
  // Let the teardown land before writing, so the event is provably lost.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(deploy.Seed(gap_key, "new").ok());
  ASSERT_TRUE(
      WaitFor([&] { return subscriber->stats().gaps_detected >= 1; }, 5.0))
      << "reconnect snapshot did not surface the missed updates as a gap";
  // The subscriber counts the gap, then runs the re-sync it forces.
  EXPECT_TRUE(WaitFor([&] { return subscriber->stats().resyncs >= 1; }, 5.0))
      << "the gap did not force a re-sync";
  UpdateSubscriberStats stats = subscriber->stats();
  EXPECT_GE(stats.reconnects, 1);
  // Targeted: only the gapped region re-synced, not one per region.
  EXPECT_LT(stats.resyncs,
            static_cast<int64_t>(deploy.topology().num_regions()));

  // No stale read after the re-sync.
  ASSERT_TRUE(WaitFor(
      [&] {
        auto r = invoker.FetchComp(gap_key, "p");
        return r.ok() && *r == std::to_string(gap_key) + "/p/new";
      },
      5.0))
      << "stale value survived the gap re-sync";
  // The safe key (other node, no gap) is untouched and still correct.
  auto safe = invoker.FetchComp(safe_key, "p");
  ASSERT_TRUE(safe.ok());
  EXPECT_EQ(*safe, std::to_string(safe_key) + "/p/safe");
}

TEST(SubscriberTest, NodeRestartBumpsEpochAndForcesResync) {
  ClusterDeployment deploy(EchoFn(), SmallOptions(1));
  ASSERT_TRUE(deploy.Start().ok());
  Key key = 3;
  ASSERT_TRUE(deploy.Seed(key, "before").ok());

  ParallelInvokerOptions iopts;
  iopts.num_threads = 2;
  ParallelInvoker invoker(&deploy.client(), EchoFn(), iopts);
  auto subscriber = deploy.MakeSubscriber(&invoker, FastSubscriber());
  ASSERT_TRUE(WaitFor([&] { return subscriber->AllSnapshotsSeen(); }, 5.0));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(invoker.FetchComp(key, "p").ok());
  }

  // Crash, write while dark (in-process: the store outlives the server),
  // restart on the same port. The epoch bump must force re-syncs even
  // though per-epoch sequence numbers restarted from zero.
  deploy.KillDataNode(0);
  ASSERT_TRUE(deploy.data_node(0).service().Put(key, "after").ok());
  ASSERT_TRUE(deploy.RestartDataNode(0).ok());

  ASSERT_TRUE(
      WaitFor([&] { return subscriber->stats().epoch_bumps >= 1; }, 10.0))
      << "restart was not observed as an epoch bump";
  // The subscriber counts the bump, then runs the re-sync it forces.
  EXPECT_TRUE(WaitFor([&] { return subscriber->stats().resyncs >= 1; }, 5.0))
      << "the epoch bump did not force a re-sync";

  ASSERT_TRUE(WaitFor(
      [&] {
        auto r = invoker.FetchComp(key, "p");
        return r.ok() && *r == std::to_string(key) + "/p/after";
      },
      5.0))
      << "stale value survived a node restart";
}

}  // namespace
}  // namespace joinopt
