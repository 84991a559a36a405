// Reactor-backend tests: verb parity with the thread-per-connection
// backend, request pipelining with out-of-order completion (responses
// correlate by frame seq), flat thread count under a thousand idle
// connections, read-side backpressure when a client floods past the
// pipeline bound, Notify flow control — a slow subscriber is throttled
// with per-key coalescing instead of dropped — and the subscriber-side
// half: a live-stream seq gap counts as coalesced_gaps, not a re-sync.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "joinopt/cluster/data_node.h"
#include "joinopt/cluster/subscriber.h"
#include "joinopt/cluster/topology.h"
#include "joinopt/net/loopback.h"
#include "joinopt/net/socket.h"
#include "joinopt/store/log_store.h"

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

struct StoreFixture {
  StoreFixture() : store(LogStoreConfig{}), service(&store, /*num_shards=*/4) {
    for (Key k = 0; k < 64; ++k) {
      store.Put(k, "payload-" + std::to_string(k));
    }
  }
  LogStructuredStore store;
  LogStoreDataService service;
};

RpcServerOptions ReactorOptions() {
  RpcServerOptions opts;
  opts.backend = RpcBackend::kReactor;
  return opts;
}

/// Connects with SO_RCVBUF shrunk BEFORE the handshake, so the TCP window
/// scale is negotiated tiny and the kernel cannot swallow a large response
/// on the receiver's behalf — the lever the slow-subscriber test uses to
/// pin the server's write queue above its watermark.
StatusOr<UniqueFd> ConnectWithTinyWindow(const std::string& host,
                                         uint16_t port) {
  int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  if (raw < 0) return ErrnoToStatus(errno, "socket");
  UniqueFd fd(raw);
  int rcvbuf = 2048;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                   sizeof(rcvbuf)) != 0) {
    return ErrnoToStatus(errno, "setsockopt(SO_RCVBUF)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host: " + host);
  }
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return ErrnoToStatus(errno, "connect");
  }
  return fd;
}

TEST(ReactorTest, BothBackendsServeIdenticalVerbs) {
  // The same client workload against both backends: results must agree
  // verb by verb (one VerbDispatcher, so drift would be a serving bug).
  for (RpcBackend backend :
       {RpcBackend::kThreadPerConnection, RpcBackend::kReactor}) {
    SCOPED_TRACE(backend == RpcBackend::kReactor ? "reactor" : "threaded");
    StoreFixture fx;
    RpcServerOptions sopts;
    sopts.backend = backend;
    LoopbackRpc rpc(&fx.service, EchoFn(), /*num_replicas=*/1, {}, sopts);
    ASSERT_TRUE(rpc.status().ok()) << rpc.status();
    EXPECT_EQ(rpc.server().active_backend(), backend);

    RpcClientService& remote = rpc.client();
    for (Key k = 0; k < 16; ++k) {
      auto fetched = remote.Fetch(k);
      ASSERT_TRUE(fetched.ok()) << fetched.status();
      EXPECT_EQ(fetched->value, "payload-" + std::to_string(k));

      auto executed = remote.Execute(k, "p", EchoFn());
      ASSERT_TRUE(executed.ok()) << executed.status();
      EXPECT_EQ(*executed, *fx.service.Execute(k, "p", EchoFn()));

      auto stat = remote.Stat(k);
      ASSERT_TRUE(stat.ok()) << stat.status();
      EXPECT_EQ(stat->version, fx.service.Stat(k)->version);
      EXPECT_EQ(remote.OwnerOf(k), fx.service.OwnerOf(k));
    }

    std::vector<std::pair<Key, std::string>> items;
    for (Key k = 0; k < 32; ++k) items.emplace_back(k, "b");
    auto results = remote.ExecuteBatch(items, EchoFn());
    ASSERT_EQ(results.size(), items.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status();
      EXPECT_EQ(*results[i],
                *fx.service.Execute(items[i].first, items[i].second,
                                    EchoFn()));
    }

    auto missing = remote.Fetch(9999);
    ASSERT_FALSE(missing.ok());
    EXPECT_TRUE(missing.status().IsNotFound()) << missing.status();
    EXPECT_EQ(remote.recovery_counters().retries, 0);
  }
}

TEST(ReactorTest, PipelinedResponsesCompleteOutOfOrder) {
  // Two requests down one connection without waiting: a slow Execute
  // (seq 1) and a cheap Stat (seq 2). With two workers the Stat finishes
  // first, and the reactor may answer out of order — the client matches
  // responses to requests by frame seq, not arrival order.
  StoreFixture fx;
  UserFn fn = [](Key key, const std::string& params,
                 const std::string& value) {
    if (params == "slow") {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return std::to_string(key) + "/" + params + "/" + value;
  };
  RpcServer server(&fx.service, fn, ReactorOptions());
  ASSERT_TRUE(server.Start().ok());

  auto conn = TcpConnect(server.host(), server.port(), 1.0);
  ASSERT_TRUE(conn.ok()) << conn.status();
  ASSERT_TRUE(SendFrame(conn->get(), MsgType::kExecuteReq, 1,
                        EncodeExecuteRequest(7, "slow"), 1.0,
                        kDefaultMaxFrameBytes)
                  .ok());
  ASSERT_TRUE(SendFrame(conn->get(), MsgType::kStatReq, 2,
                        EncodeKeyRequest(7), 1.0, kDefaultMaxFrameBytes)
                  .ok());

  auto first = RecvFrame(conn->get(), 2.0, kDefaultMaxFrameBytes);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->header.seq, 2u) << "cheap Stat should overtake the "
                                      "sleeping Execute";
  EXPECT_EQ(first->header.type, MsgType::kStatResp);

  auto second = RecvFrame(conn->get(), 2.0, kDefaultMaxFrameBytes);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->header.seq, 1u);
  EXPECT_EQ(second->header.type, MsgType::kExecuteResp);
  auto executed = DecodeExecuteResponse(second->body);
  ASSERT_TRUE(executed.ok() && executed->value.ok()) << executed.status();
  EXPECT_EQ(*executed->value, "7/slow/payload-7");
}

TEST(ReactorTest, ThousandIdleConnectionsKeepThreadCountFlat) {
  // The reactor's headline property: serving threads are a function of
  // configuration, not connection count. A thousand idle clients must not
  // grow the thread gauge, and live traffic must still round-trip.
  StoreFixture fx;
  RpcServerOptions sopts = ReactorOptions();
  sopts.accept_backlog = 512;
  RpcServer server(&fx.service, EchoFn(), sopts);
  ASSERT_TRUE(server.Start().ok());
  const int64_t baseline_threads = server.stats().server_threads;
  ASSERT_GT(baseline_threads, 0);
  // IO threads + workers only — nothing per-connection.
  EXPECT_LE(baseline_threads,
            sopts.reactor_io_threads + sopts.reactor_worker_threads);

  constexpr int kConns = 1000;
  std::vector<UniqueFd> idle;
  idle.reserve(kConns);
  for (int i = 0; i < kConns; ++i) {
    auto conn = TcpConnect(server.host(), server.port(), 5.0);
    ASSERT_TRUE(conn.ok()) << "connection " << i << ": " << conn.status();
    idle.push_back(std::move(conn).value());
  }
  ASSERT_TRUE(WaitFor(
      [&] { return server.stats().live_connections >= kConns; }, 10.0))
      << "accepted " << server.stats().live_connections << " of " << kConns;

  EXPECT_EQ(server.stats().server_threads, baseline_threads)
      << "thread count must stay flat as connections scale";

  // The server still serves under the idle load.
  RpcClientOptions copts;
  copts.endpoints = {{server.host(), server.port()}};
  RpcClientService remote(copts);
  auto fetched = remote.Fetch(3);
  ASSERT_TRUE(fetched.ok()) << fetched.status();
  EXPECT_EQ(fetched->value, "payload-3");

  idle.clear();
  ASSERT_TRUE(WaitFor(
      [&] { return server.stats().live_connections <= 2; }, 10.0));
  server.Stop();
  EXPECT_EQ(server.stats().server_threads, 0);
}

TEST(ReactorTest, StopAndRestartServesAgain) {
  // ClusterDataNode::Restart reuses the RpcServer object: each Start must
  // build a fresh reactor core (a stopped one is not restartable).
  StoreFixture fx;
  RpcServer server(&fx.service, EchoFn(), ReactorOptions());
  ASSERT_TRUE(server.Start().ok());
  uint16_t port = server.port();
  server.Stop();
  ASSERT_TRUE(server.Start().ok());

  RpcClientOptions copts;
  copts.endpoints = {{server.host(), server.port()}};
  RpcClientService remote(copts);
  auto fetched = remote.Fetch(5);
  ASSERT_TRUE(fetched.ok()) << fetched.status();
  EXPECT_EQ(fetched->value, "payload-5");
  (void)port;  // ephemeral: the second bind may pick a different port
}

TEST(ReactorTest, FloodPastPipelineBoundPausesReadsThenServesAll) {
  // Eight requests in one burst against a pipeline bound of two: the
  // reactor must pause reading (flow control, counted) rather than buffer
  // unboundedly, then serve every request exactly once as slots free up.
  StoreFixture fx;
  UserFn fn = [](Key key, const std::string& params,
                 const std::string& value) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return std::to_string(key) + "/" + params + "/" + value;
  };
  RpcServerOptions sopts = ReactorOptions();
  sopts.reactor_max_pipelined_requests = 2;
  RpcServer server(&fx.service, fn, sopts);
  ASSERT_TRUE(server.Start().ok());

  auto conn = TcpConnect(server.host(), server.port(), 1.0);
  ASSERT_TRUE(conn.ok()) << conn.status();
  constexpr uint32_t kRequests = 8;
  for (uint32_t seq = 1; seq <= kRequests; ++seq) {
    ASSERT_TRUE(SendFrame(conn->get(), MsgType::kExecuteReq, seq,
                          EncodeExecuteRequest(seq, "p"), 1.0,
                          kDefaultMaxFrameBytes)
                    .ok());
  }

  std::set<uint32_t> seqs;
  for (uint32_t i = 0; i < kRequests; ++i) {
    auto frame = RecvFrame(conn->get(), 5.0, kDefaultMaxFrameBytes);
    ASSERT_TRUE(frame.ok()) << frame.status();
    ASSERT_EQ(frame->header.type, MsgType::kExecuteResp);
    EXPECT_TRUE(seqs.insert(frame->header.seq).second)
        << "duplicate response for seq " << frame->header.seq;
    auto executed = DecodeExecuteResponse(frame->body);
    ASSERT_TRUE(executed.ok() && executed->value.ok()) << executed.status();
    EXPECT_EQ(*executed->value,
              *fx.service.Execute(frame->header.seq, "p", fn));
  }
  EXPECT_EQ(seqs.size(), kRequests);
  EXPECT_EQ(*seqs.begin(), 1u);
  EXPECT_EQ(*seqs.rbegin(), kRequests);
  EXPECT_GE(server.stats().backpressure_pauses, 1)
      << "a burst 4x the pipeline bound must trip flow control";
}

TEST(ReactorTest, SlowSubscriberIsCoalescedNotDropped) {
  // The Notify flow-control path end to end. A subscriber stops reading
  // behind a large unread response; repeated updates to one key must
  // coalesce in the bounded pending queue (newest version wins) instead
  // of overflowing it, and the stream must survive — the legacy backend
  // would have dropped the connection for a full re-sync.
  ClusterTopologyConfig tcfg;
  tcfg.num_data_nodes = 1;
  tcfg.regions_per_node = 4;
  tcfg.replication_factor = 1;
  ClusterTopology topology(tcfg);
  ClusterNodeService service(/*node=*/0, &topology);

  RpcServerOptions sopts = ReactorOptions();
  // Tiny write watermarks so one large unread response blocks Notify
  // staging (the coalescing window) without needing megabytes in flight.
  sopts.reactor_write_high_watermark = 64u << 10;
  sopts.reactor_write_low_watermark = 16u << 10;
  RpcServer server(&service, EchoFn(), sopts);
  ASSERT_TRUE(server.Start().ok());

  // Keep the kernel's window small so the socket cannot swallow the big
  // response: the server's write queue must stay above the high
  // watermark while the client plays dead.
  // Sized past the kernel's absorption ceiling (tcp_wmem autotunes the
  // server's send buffer to ~4 MB): most of the response must stay parked
  // in the reactor's write queue, not in socket buffers.
  const Key big_key = 100, hot_key = 7, side_key = 9;
  ASSERT_TRUE(service.Put(big_key, std::string(8u << 20, 'x')).ok());
  auto conn = ConnectWithTinyWindow(server.host(), server.port());
  ASSERT_TRUE(conn.ok()) << conn.status();

  ASSERT_TRUE(SendFrame(conn->get(), MsgType::kSubscribeReq, 1,
                        EncodeSubscribeRequest(99), 1.0,
                        kDefaultMaxFrameBytes)
                  .ok());
  auto snap = RecvFrame(conn->get(), 2.0, kDefaultMaxFrameBytes);
  ASSERT_TRUE(snap.ok()) << snap.status();
  ASSERT_EQ(snap->header.type, MsgType::kSubscribeResp);

  // Pipeline a fetch of the big value on the SAME connection, then stop
  // reading. Once part of it hits the wire the rest is parked in the
  // write queue, which gates Notify staging.
  ASSERT_TRUE(SendFrame(conn->get(), MsgType::kFetchReq, 2,
                        EncodeKeyRequest(big_key), 1.0,
                        kDefaultMaxFrameBytes)
                  .ok());
  int64_t bytes_before = server.stats().bytes_out;
  ASSERT_TRUE(WaitFor(
      [&] { return server.stats().bytes_out >= bytes_before + 4096; }, 5.0))
      << "big response never started flowing";

  // Hammer one key while the subscriber is deaf: all but the newest
  // pending event for it must be superseded in place.
  constexpr int kPuts = 50;
  uint64_t last_version = 0;
  for (int i = 0; i < kPuts; ++i) {
    auto v = service.Put(hot_key, "v" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << v.status();
    last_version = *v;
  }
  auto side_version = service.Put(side_key, "side");
  ASSERT_TRUE(side_version.ok());

  ASSERT_TRUE(WaitFor(
      [&] { return server.stats().notify_coalesced >= kPuts / 2; }, 5.0))
      << "coalesced=" << server.stats().notify_coalesced;

  // Wake up and drain. Grow the receive buffer back first: the tiny
  // window has done its job (the queue backlog is proven by the coalesce
  // counter), and draining 8 MB through a 2 KB window would crawl.
  int big_rcvbuf = 4 << 20;
  ASSERT_EQ(::setsockopt(conn->get(), SOL_SOCKET, SO_RCVBUF, &big_rcvbuf,
                         sizeof(big_rcvbuf)),
            0);
  auto fetched_frame = RecvFrame(conn->get(), 30.0, kDefaultMaxFrameBytes);
  ASSERT_TRUE(fetched_frame.ok()) << fetched_frame.status();
  ASSERT_EQ(fetched_frame->header.type, MsgType::kFetchResp);
  ASSERT_EQ(fetched_frame->header.seq, 2u);

  int hot_events = 0;
  uint64_t hot_version_seen = 0;
  bool side_seen = false;
  while (!side_seen || hot_version_seen < last_version) {
    auto evt = RecvFrame(conn->get(), 5.0, kDefaultMaxFrameBytes);
    ASSERT_TRUE(evt.ok()) << evt.status();
    ASSERT_EQ(evt->header.type, MsgType::kNotifyEvt);
    auto event = DecodeNotifyEvent(evt->body);
    ASSERT_TRUE(event.ok()) << event.status();
    if (event->key == hot_key) {
      ++hot_events;
      hot_version_seen = event->version;
    } else if (event->key == side_key) {
      side_seen = true;
      EXPECT_EQ(event->version, *side_version);
    }
  }
  EXPECT_EQ(hot_version_seen, last_version)
      << "the delivered event must carry the key's final version";
  EXPECT_LT(hot_events, kPuts / 2)
      << "most same-key events should have been coalesced away";

  // The stream is still live — no drop, no reconnect, no re-sync: a
  // fresh update arrives as an ordinary event.
  auto after = service.Put(hot_key, "after");
  ASSERT_TRUE(after.ok());
  bool after_seen = false;
  while (!after_seen) {
    auto evt = RecvFrame(conn->get(), 5.0, kDefaultMaxFrameBytes);
    ASSERT_TRUE(evt.ok()) << evt.status();
    auto event = DecodeNotifyEvent(evt->body);
    ASSERT_TRUE(event.ok()) << event.status();
    after_seen = event->key == hot_key && event->version == *after;
  }
  RpcServerStats stats = server.stats();
  EXPECT_EQ(stats.subscriptions, 1) << "no reconnect happened";
  EXPECT_GE(stats.notify_coalesced, kPuts / 2);
}

TEST(ReactorTest, SubscriberCountsLiveGapsAsCoalescedWithoutResync) {
  // Subscriber-side contract for coalescing: a seq jump on a LIVE stream
  // (events skipped because the server superseded them in its pending
  // queue) is delivered and counted as coalesced_gaps — no re-sync, which
  // stays reserved for snapshot-ahead gaps and epoch bumps. Driven by a
  // hand-rolled server so the gap is exact.
  auto listener = TcpListen("127.0.0.1", 0, 4);
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto port = BoundPort(listener->get());
  ASSERT_TRUE(port.ok());

  std::atomic<bool> stop{false};
  std::thread fake_server([&] {
    auto readable = WaitReadable(listener->get(), 5.0);
    if (!readable.ok() || !*readable) return;
    int fd = ::accept(listener->get(), nullptr, nullptr);
    if (fd < 0) return;
    UniqueFd conn(fd);
    auto req = RecvFrame(conn.get(), 5.0, kDefaultMaxFrameBytes);
    if (!req.ok() || req->header.type != MsgType::kSubscribeReq) return;
    // Snapshot at (epoch 1, seq 5); then events 6 and 9 — a live gap of 2.
    (void)SendFrame(conn.get(), MsgType::kSubscribeResp, req->header.seq,
                    EncodeSubscribeResponse({{0, 1, 5}}), 1.0,
                    kDefaultMaxFrameBytes);
    UpdateEvent e6{/*region=*/0, /*epoch=*/1, /*seq=*/6, /*key=*/1,
                   /*version=*/10};
    (void)SendFrame(conn.get(), MsgType::kNotifyEvt, 1,
                    EncodeNotifyEvent(e6), 1.0, kDefaultMaxFrameBytes);
    UpdateEvent e9{/*region=*/0, /*epoch=*/1, /*seq=*/9, /*key=*/2,
                   /*version=*/11};
    (void)SendFrame(conn.get(), MsgType::kNotifyEvt, 2,
                    EncodeNotifyEvent(e9), 1.0, kDefaultMaxFrameBytes);
    // Hold the stream open so the subscriber never redials.
    while (!stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  ClusterTopologyConfig tcfg;
  tcfg.num_data_nodes = 1;
  tcfg.replication_factor = 1;
  ClusterTopology topology(tcfg);
  topology.SetEndpoint(0, RpcEndpoint{"127.0.0.1", *port});

  std::atomic<int> updates{0};
  std::atomic<int> resync_calls{0};
  UpdateSubscriberOptions opts;
  opts.poll_tick = 20e-3;
  UpdateSubscriber subscriber(
      &topology, {0},
      [&](Key, uint64_t) { ++updates; },
      [&](NodeId, int) {
        ++resync_calls;
        return int64_t{0};
      },
      opts);

  ASSERT_TRUE(WaitFor([&] { return updates.load() >= 2; }, 5.0))
      << "both events (in-order and gap) must be delivered";
  UpdateSubscriberStats stats = subscriber.stats();
  EXPECT_EQ(stats.notifications, 1);    // seq 6: clean in-order delivery
  EXPECT_EQ(stats.coalesced_gaps, 2);   // seqs 7, 8: superseded upstream
  EXPECT_EQ(stats.gaps_detected, 0);
  EXPECT_EQ(stats.resyncs, 0) << "live gaps must not trigger re-syncs";
  EXPECT_EQ(resync_calls.load(), 0);

  stop.store(true);
  subscriber.Stop();
  fake_server.join();
}

}  // namespace
}  // namespace joinopt
