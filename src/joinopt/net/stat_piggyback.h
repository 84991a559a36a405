// StatPiggyback: the client half of Section 4.3's piggybacking. A compute
// response (Execute or ExecuteBatch, wire v3) carries each ok item's
// (size, version); the client parks it here, and the Stat(key) the invoker
// issues right after the compute request is answered without a round trip.
//
// Bounded by construction: a fixed power-of-two array of slots,
// direct-mapped by Mix64(key), that never grows. A colliding Record
// overwrites the older entry, whose Stat then goes to the wire as it would
// without the table. Take consumes: an entry answers exactly one Stat. The
// owning client's own Put calls Forget, so the client never reads back a
// stat older than a write it has seen acked. The slots are allocated on
// the first Record, so a client that never sees a compute response (a
// controller probe, a per-node transport under the cluster client) pays
// nothing.
//
// Which reads may consult the table is the owning client's read contract,
// not this class's: see RpcClientService::Stat and ClusterClientService::
// Stat.
//
// Thread safety: every method may be called from any number of threads.
// One mutex (rank kStatPiggyback, a leaf) guards the slots; it is never
// held across an RPC.
#ifndef JOINOPT_NET_STAT_PIGGYBACK_H_
#define JOINOPT_NET_STAT_PIGGYBACK_H_

#include <cstddef>
#include <memory>
#include <optional>

#include "joinopt/common/lock_ranks.h"
#include "joinopt/common/sync.h"
#include "joinopt/engine/async_api.h"

namespace joinopt {

class StatPiggyback {
 public:
  /// Slot count. Entries live only from a compute response to the Stat
  /// that follows it, so the table needs room for the items of the batches
  /// in flight at once, not for the key universe.
  static constexpr size_t kSlots = 4096;
  static_assert((kSlots & (kSlots - 1)) == 0, "kSlots must be a power of 2");

  /// Parks `stat` for the next Stat(key), replacing whatever the slot held.
  void Record(Key key, const DataService::ItemStat& stat);
  /// The parked stat for `key`, removed from the table; empty on a miss.
  std::optional<DataService::ItemStat> Take(Key key);
  /// Drops the parked stat for `key`, if any.
  void Forget(Key key);

  /// Slots currently holding an entry (a full scan; for tests).
  size_t occupied() const;

 private:
  struct Slot {
    bool full = false;
    Key key = 0;
    DataService::ItemStat stat;
  };

  static size_t SlotOf(Key key);

  mutable Mutex mu_{lock_rank::kStatPiggyback, "StatPiggyback::mu_"};
  /// kSlots entries once the first Record allocated them; null before.
  std::unique_ptr<Slot[]> slots_ JOINOPT_GUARDED_BY(mu_);
};

}  // namespace joinopt

#endif  // JOINOPT_NET_STAT_PIGGYBACK_H_
