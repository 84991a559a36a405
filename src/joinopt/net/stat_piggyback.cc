#include "joinopt/net/stat_piggyback.h"

#include "joinopt/common/hash.h"

namespace joinopt {

size_t StatPiggyback::SlotOf(Key key) {
  return static_cast<size_t>(Mix64(key)) & (kSlots - 1);
}

void StatPiggyback::Record(Key key, const DataService::ItemStat& stat) {
  MutexLock lock(mu_);
  if (!slots_) slots_ = std::make_unique<Slot[]>(kSlots);
  slots_[SlotOf(key)] = Slot{true, key, stat};
}

std::optional<DataService::ItemStat> StatPiggyback::Take(Key key) {
  MutexLock lock(mu_);
  if (!slots_) return std::nullopt;
  Slot& slot = slots_[SlotOf(key)];
  if (!slot.full || slot.key != key) return std::nullopt;
  slot.full = false;
  return slot.stat;
}

void StatPiggyback::Forget(Key key) {
  MutexLock lock(mu_);
  if (!slots_) return;
  Slot& slot = slots_[SlotOf(key)];
  if (slot.key == key) slot.full = false;
}

size_t StatPiggyback::occupied() const {
  MutexLock lock(mu_);
  if (!slots_) return 0;
  size_t n = 0;
  for (size_t i = 0; i < kSlots; ++i) n += slots_[i].full ? 1 : 0;
  return n;
}

}  // namespace joinopt
