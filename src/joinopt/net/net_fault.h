// NetFaultInjector: the socket-level fault hook that makes FaultSchedule's
// link partitions real for the networked cluster. The simulator consults
// FaultSchedule::LinkUpAt inside its event queue; sockets have no such
// seam, so before this existed a "partitioned" node could still complete
// TCP handshakes and exchange frames — one-way partitions in particular
// were pure fiction over the wire. This process-wide singleton gives every
// socket operation a place to ask "may these two endpoints talk right
// now?".
//
// Identity model: every participating endpoint carries a small logical id
// (data node i uses i; clients/subscribers take ids above the node range).
// Servers register their listen port → id at Start; clients declare their
// id via a thread-local scope around the dial, and the injector records
// the connection's local ephemeral port so the *accepting* side can
// resolve who is calling (getpeername → port → id). Both fds of a known
// pair are remembered with their transmit direction, so established
// connections can be black-holed per direction later.
//
// Fault semantics (matching real one-way packet loss):
//   * connect: a TCP handshake needs both directions (SYN one way,
//     SYN-ACK the other), so a dial fails when EITHER direction of the
//     pair is blocked. The client side fails fast with a deadline-class
//     kAborted (a dropped SYN is a timeout, not a refusal); the server
//     side additionally drops at accept, so a dialer that skipped its
//     own check cannot complete the handshake either.
//   * established connections: SendAll fails only when the fd's own
//     transmit direction is blocked — the half-open case where A's
//     requests vanish while B's answers (to older requests) still flow.
//
// Unknown identities are never touched: a connection where either side
// did not declare itself passes every check, so ordinary tests and
// benches see zero behavior change. Overhead when no endpoint was ever
// registered is one relaxed atomic load per hook.
//
// Threading: all methods are thread-safe. One leaf mutex (rank
// kNetFault=900, above every other lock in the system) guards the
// registries, so the hooks are callable from any socket path regardless
// of what the caller holds. Rank table: DESIGN.md §12.
#ifndef JOINOPT_NET_NET_FAULT_H_
#define JOINOPT_NET_NET_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <utility>

#include "joinopt/common/lock_ranks.h"
#include "joinopt/common/status.h"
#include "joinopt/common/sync.h"

namespace joinopt {

/// "No declared identity": every check passes for this id.
inline constexpr int32_t kNetIdentityNone = -1;

class NetFaultInjector {
 public:
  static NetFaultInjector& Instance();

  NetFaultInjector(const NetFaultInjector&) = delete;
  NetFaultInjector& operator=(const NetFaultInjector&) = delete;

  // ---- identity registry (always live; cheap, lifecycle-rate calls) ----

  /// Declares that the server listening on `port` is logical endpoint
  /// `id`. Called by RpcServer::Start when options name an identity.
  void RegisterServerPort(uint16_t port, int32_t id);
  void UnregisterServerPort(uint16_t port);

  // ---- fault control (the chaos runner's levers) ----

  /// Drops everything `from` transmits toward `to` (half-open partition).
  void BlockOneWay(int32_t from, int32_t to);
  void HealOneWay(int32_t from, int32_t to);
  /// Symmetric partition: both directions.
  void Block(int32_t a, int32_t b);
  void Heal(int32_t a, int32_t b);
  /// Heals every partition (the chaos settle phase; also test teardown).
  void HealAll();
  bool Blocked(int32_t from, int32_t to) const;
  /// Active one-way block rules (a symmetric Block counts as two).
  int active_rules() const;

  // ---- socket hooks (no-ops unless identities and rules exist) ----

  /// Pre-dial check. OK unless both endpoints are known and either
  /// direction is blocked; the error is deadline-class kAborted (a dropped
  /// SYN looks like a timeout to the dialer, and must count as one).
  Status CheckConnect(uint16_t server_port) const;
  /// Post-dial bookkeeping: remembers the connection's local ephemeral
  /// port → caller identity (so the acceptor can resolve the peer) and the
  /// fd's transmit direction for CheckSend.
  void OnConnected(int fd, uint16_t server_port);
  /// Accept-side check + bookkeeping. False means the pair is partitioned
  /// and the caller must close the freshly accepted fd — dropping the
  /// connection at accept time is what keeps a half-open peer from
  /// completing the handshake.
  bool OnAccept(uint16_t listen_port, int conn_fd);
  /// Established-connection check: fails iff this fd's transmit direction
  /// is currently blocked. Called by SendAll and the server's flush before
  /// touching the socket.
  Status CheckSend(int fd) const;
  /// Forgets a closing fd (hooked into UniqueFd::Reset).
  void OnClose(int fd);

  /// True once any endpoint identity was registered (gates the per-fd
  /// bookkeeping hooks).
  bool tracking() const {
    return tracking_.load(std::memory_order_acquire);
  }
  /// True while any block rule is active (gates the per-IO checks).
  bool faults_active() const {
    return faults_active_.load(std::memory_order_acquire);
  }

  /// RAII declaration of the calling thread's endpoint identity, applied
  /// to every TcpConnect it performs while in scope.
  class ScopedIdentity {
   public:
    explicit ScopedIdentity(int32_t id);
    ~ScopedIdentity();

    ScopedIdentity(const ScopedIdentity&) = delete;
    ScopedIdentity& operator=(const ScopedIdentity&) = delete;

   private:
    int32_t saved_;
  };
  static int32_t CurrentIdentity();

 private:
  NetFaultInjector() = default;

  struct FdDirection {
    int32_t from = kNetIdentityNone;
    int32_t to = kNetIdentityNone;
    /// Local ephemeral port this (client-side) fd registered, 0 for
    /// server-side fds — so OnClose can retire the port mapping with it.
    uint16_t local_port = 0;
    /// Server-side fds accepted before the dialer registered its ephemeral
    /// port (accept races connect-return on loopback): the peer's port,
    /// kept so CheckSend can resolve `to` lazily; 0 once resolved.
    uint16_t peer_port = 0;
  };

  bool BlockedLocked(int32_t from, int32_t to) const
      JOINOPT_REQUIRES(mu_);

  mutable Mutex mu_{lock_rank::kNetFault, "NetFaultInjector::mu_"};
  std::map<uint16_t, int32_t> server_ports_ JOINOPT_GUARDED_BY(mu_);
  /// Client-side local ephemeral port → declared identity (what OnAccept
  /// resolves the peer with).
  std::map<uint16_t, int32_t> client_ports_ JOINOPT_GUARDED_BY(mu_);
  /// mutable: CheckSend (const, hot path) completes raced-accept peer
  /// resolution in place.
  mutable std::map<int, FdDirection> fds_ JOINOPT_GUARDED_BY(mu_);
  std::set<std::pair<int32_t, int32_t>> blocked_ JOINOPT_GUARDED_BY(mu_);
  std::atomic<bool> tracking_{false};
  std::atomic<bool> faults_active_{false};
};

}  // namespace joinopt

#endif  // JOINOPT_NET_NET_FAULT_H_
