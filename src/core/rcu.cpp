#include "core/rcu.hpp"

#include <algorithm>

namespace redcache {

std::vector<RcuManager::Entry> RcuManager::Insert(Addr block,
                                                  const DramAddress& loc) {
  inserts_++;
  for (Entry& e : entries_) {
    if (e.block == block) {
      updates_in_place_++;  // already parked; newest count wins
      return {};
    }
  }
  std::vector<Entry> evicted;
  if (capacity_ == 0) {
    // Degenerate queue: nothing can be parked, the update force-flushes
    // straight through to the caller.
    capacity_flushes_++;
    evicted.push_back({block, loc});
    return evicted;
  }
  if (entries_.size() >= capacity_) {
    evicted.push_back(entries_.front());
    Unpark(entries_.front().loc.channel);
    entries_.pop_front();
    capacity_flushes_++;
  }
  entries_.push_back({block, loc});
  Park(loc.channel);
  return evicted;
}

bool RcuManager::Contains(Addr block) {
  searches_++;
  for (const Entry& e : entries_) {
    if (e.block == block) {
      block_hits_++;
      return true;
    }
  }
  return false;
}

void RcuManager::Remove(Addr block) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->block == block) {
      Unpark(it->loc.channel);
      entries_.erase(it);
      return;
    }
  }
}

std::vector<RcuManager::Entry> RcuManager::MatchIndex(const DramAddress& loc) {
  std::vector<Entry> out;
  // A match shares the channel: none is parked there on most writes.
  if (loc.channel >= parked_.size() || parked_[loc.channel] == 0) return out;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->loc.SameRowAs(loc)) {
      out.push_back(*it);
      Unpark(it->loc.channel);
      it = entries_.erase(it);
      merged_flushes_++;
    } else {
      ++it;
    }
  }
  return out;
}

std::vector<RcuManager::Entry> RcuManager::PopChannel(std::uint32_t channel) {
  std::vector<Entry> out;
  if (parked_[channel] == 0) return out;
  parked_[channel] = 0;
  parked_mask_ &= ~(std::uint64_t{1} << channel);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->loc.channel == channel) {
      out.push_back(*it);
      it = entries_.erase(it);
      idle_flushes_++;
    } else {
      ++it;
    }
  }
  return out;
}

std::vector<RcuManager::Entry> RcuManager::PopAll() {
  std::vector<Entry> out(entries_.begin(), entries_.end());
  entries_.clear();
  parked_.assign(parked_.size(), 0);
  parked_mask_ = 0;
  return out;
}

}  // namespace redcache
