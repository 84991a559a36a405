// NetFaultInjector regression tests: injected partitions must be honored
// by every socket path of the server and client — at connect time (a
// partitioned pair can never complete a handshake: the dialer fails fast,
// and the acceptor drops the fd even when the dialer skipped its own
// check), and on established connections (half-open: only the blocked
// transmit direction fails, the reverse keeps flowing). Unknown identities
// must never be touched.
//
// The injector is process-wide state, so every test heals all rules on
// exit (NetFaultGuard) — a leaked block would poison unrelated tests.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "joinopt/net/net_fault.h"
#include "joinopt/net/rpc_client.h"
#include "joinopt/net/rpc_server.h"
#include "joinopt/store/log_store.h"

namespace joinopt {
namespace {

UserFn EchoFn() {
  return [](Key key, const std::string& params, const std::string& value) {
    return std::to_string(key) + "/" + params + "/" + value;
  };
}

/// Heals every injected rule on scope exit, pass or fail.
struct NetFaultGuard {
  ~NetFaultGuard() { NetFaultInjector::Instance().HealAll(); }
};

struct ServerFixture {
  explicit ServerFixture(int32_t identity) {
    store = std::make_unique<LogStructuredStore>(LogStoreConfig{});
    for (Key k = 0; k < 16; ++k) {
      store->Put(k, "v" + std::to_string(k));
    }
    service = std::make_unique<LogStoreDataService>(store.get(), 4);
    RpcServerOptions sopts;
    sopts.net_identity = identity;
    server = std::make_unique<RpcServer>(service.get(), EchoFn(), sopts);
    status = server->Start();
  }

  Status status;
  std::unique_ptr<LogStructuredStore> store;
  std::unique_ptr<LogStoreDataService> service;
  std::unique_ptr<RpcServer> server;
};

RpcClientOptions ClientFor(const ServerFixture& fx, int32_t identity) {
  RpcClientOptions copts;
  copts.endpoints.push_back(RpcEndpoint{fx.server->host(), fx.server->port()});
  copts.net_identity = identity;
  copts.connect_deadline = 0.5;
  copts.recovery.request_timeout = 0.3;
  copts.recovery.max_attempts = 1;
  copts.recovery.backoff_base = 1e-3;
  copts.recovery.backoff_max = 2e-3;
  return copts;
}

TEST(NetFaultTest, ConnectFailsWhenEitherDirectionBlocked) {
  NetFaultGuard guard;
  auto& inj = NetFaultInjector::Instance();
  ServerFixture fx(/*identity=*/1);
  ASSERT_TRUE(fx.status.ok()) << fx.status;

  // Sanity: the pair talks while no rule is active.
  {
    RpcClientService ok_client(ClientFor(fx, 0));
    ASSERT_TRUE(ok_client.Fetch(1).ok());
  }

  // Forward direction blocked (client's SYN dropped): a fresh dial fails.
  inj.BlockOneWay(0, 1);
  {
    RpcClientService client(ClientFor(fx, 0));
    auto fetched = client.Fetch(1);
    EXPECT_FALSE(fetched.ok());
  }
  inj.HealAll();

  // Reverse direction blocked (the SYN-ACK is what gets dropped): the
  // handshake still cannot complete, so the dial must fail just the same.
  inj.BlockOneWay(1, 0);
  {
    RpcClientService client(ClientFor(fx, 0));
    EXPECT_FALSE(client.Fetch(1).ok());
  }
  inj.HealAll();

  // Healed: a fresh client connects and reads again.
  {
    RpcClientService client(ClientFor(fx, 0));
    auto fetched = client.Fetch(1);
    ASSERT_TRUE(fetched.ok()) << fetched.status();
    EXPECT_EQ(fetched->value, "v1");
  }
}

// The accept-path regression (the reactor's accept4 loop used to complete
// handshakes for partitioned peers): a dialer that skips its own
// CheckConnect — here a raw ::connect, standing in for a peer whose block
// rule landed after it already checked — must still be cut off by the
// SERVER, which drops the freshly accepted fd. The client observes an
// immediate EOF instead of a live connection.
TEST(NetFaultTest, AcceptDropsPartitionedPeerOnBothBackends) {
  NetFaultGuard guard;
  auto& inj = NetFaultInjector::Instance();
  ServerFixture fx(/*identity=*/1);
  ASSERT_TRUE(fx.status.ok()) << fx.status;

  auto raw_connect = [&](int32_t identity, bool expect_eof) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    // Bind first so the ephemeral port exists before the handshake: the
    // identity must be registered before the server can possibly accept.
    sockaddr_in local{};
    local.sin_family = AF_INET;
    local.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    local.sin_port = 0;
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&local),
                     sizeof(local)),
              0);
    {
      NetFaultInjector::ScopedIdentity scope(identity);
      inj.OnConnected(fd, fx.server->port());
    }
    sockaddr_in remote{};
    remote.sin_family = AF_INET;
    remote.sin_port = htons(fx.server->port());
    ASSERT_EQ(::inet_pton(AF_INET, fx.server->host().c_str(),
                          &remote.sin_addr),
              1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&remote),
                        sizeof(remote)),
              0)
        << "loopback handshake itself must succeed (the kernel accepts "
           "into the backlog; the drop happens at accept)";

    // EOF within the deadline means the server closed us at accept;
    // a poll timeout means the server kept the connection.
    pollfd pfd{fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, expect_eof ? 3000 : 300);
    if (expect_eof) {
      ASSERT_GT(ready, 0) << "server never closed the partitioned peer";
      char byte = 0;
      EXPECT_EQ(::recv(fd, &byte, 1, 0), 0)
          << "expected EOF from the accept-path drop";
    } else {
      EXPECT_EQ(ready, 0)
          << "server closed a healed peer's connection at accept";
    }
    inj.OnClose(fd);
    ::close(fd);
  };

  inj.BlockOneWay(1, 0);  // only the server->client direction
  raw_connect(/*identity=*/0, /*expect_eof=*/true);
  inj.HealAll();
  raw_connect(/*identity=*/0, /*expect_eof=*/false);
}

TEST(NetFaultTest, HalfOpenBlocksOnlyTheTransmitDirection) {
  NetFaultGuard guard;
  auto& inj = NetFaultInjector::Instance();
  ServerFixture fx(/*identity=*/1);
  ASSERT_TRUE(fx.status.ok()) << fx.status;

  // client->server blocked on an ESTABLISHED connection: the request
  // never leaves the client, so the server's request counter must not
  // move.
  {
    RpcClientService client(ClientFor(fx, 0));
    ASSERT_TRUE(client.Fetch(1).ok());  // pool a live connection
    int64_t before = fx.server->stats().requests;
    inj.BlockOneWay(0, 1);
    EXPECT_FALSE(client.Fetch(2).ok());
    EXPECT_EQ(fx.server->stats().requests, before)
        << "a blocked transmit direction still delivered a request";
    inj.HealAll();
    auto fetched = client.Fetch(2);
    ASSERT_TRUE(fetched.ok()) << fetched.status();
    EXPECT_EQ(fetched->value, "v2");
  }

  // server->client blocked: the request DOES get through (that is the
  // half-open point — the server burns work answering) but the response
  // is black-holed, so the client times out.
  {
    RpcClientService client(ClientFor(fx, 0));
    ASSERT_TRUE(client.Fetch(1).ok());
    int64_t before = fx.server->stats().requests;
    inj.BlockOneWay(1, 0);
    EXPECT_FALSE(client.Fetch(3).ok());
    EXPECT_GT(fx.server->stats().requests, before)
        << "the unblocked request direction should still deliver";
    inj.HealAll();
  }
}

TEST(NetFaultTest, UnknownIdentitiesAreNeverTouched) {
  NetFaultGuard guard;
  auto& inj = NetFaultInjector::Instance();
  ServerFixture fx(/*identity=*/1);
  ASSERT_TRUE(fx.status.ok()) << fx.status;

  inj.Block(0, 1);  // symmetric block on the pair the server belongs to
  RpcClientOptions copts = ClientFor(fx, kNetIdentityNone);
  RpcClientService anon(std::move(copts));
  auto fetched = anon.Fetch(1);
  ASSERT_TRUE(fetched.ok())
      << "a client with no declared identity was partitioned: "
      << fetched.status();
  EXPECT_EQ(fetched->value, "v1");
}

TEST(NetFaultTest, RuleBookkeepingCountsAndHeals) {
  NetFaultGuard guard;
  auto& inj = NetFaultInjector::Instance();
  ASSERT_EQ(inj.active_rules(), 0) << "a previous test leaked a block rule";
  inj.BlockOneWay(5, 6);
  EXPECT_TRUE(inj.Blocked(5, 6));
  EXPECT_FALSE(inj.Blocked(6, 5));
  EXPECT_EQ(inj.active_rules(), 1);
  inj.Block(7, 8);
  EXPECT_EQ(inj.active_rules(), 3);
  EXPECT_TRUE(inj.faults_active());
  inj.HealOneWay(5, 6);
  EXPECT_EQ(inj.active_rules(), 2);
  inj.HealAll();
  EXPECT_EQ(inj.active_rules(), 0);
  EXPECT_FALSE(inj.faults_active());
}

}  // namespace
}  // namespace joinopt
