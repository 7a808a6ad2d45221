#include "dram/dram_system.hpp"

#include <algorithm>
#include <cassert>
#include <span>

namespace redcache {

DramSystem::DramSystem(const DramConfig& cfg)
    : cfg_(cfg), mapper_(cfg.geometry) {
  REDCACHE_CHECK(cfg_.geometry.channels <= 64,
                 "a DRAM system has at most 64 channels");
  channels_.reserve(cfg_.geometry.channels);
  for (std::uint32_t c = 0; c < cfg_.geometry.channels; ++c) {
    channels_.push_back(std::make_unique<DramChannel>(cfg_, c));
  }
  wakes_.Reset(channels_.size());
  const std::uint32_t n = cfg_.geometry.channels;
  empty_queue_mask_ =
      n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

RequestId DramSystem::Enqueue(Addr addr, bool is_write, Cycle now,
                              std::uint64_t user_tag, std::uint32_t bursts,
                              std::uint16_t tenant) {
  if (functional_latency_ != 0) {
    const RequestId id = next_id_++;
    const Cycle done = now + functional_latency_;
    assert(func_pending_.empty() || func_pending_.back().done <= done);
    func_pending_.push_back(
        {id, BlockAlign(addr), is_write, done, tenant, user_tag});
    inflight_++;
    return id;
  }
  DramRequest req;
  req.id = next_id_++;
  req.addr = BlockAlign(addr);
  req.loc = mapper_.Map(addr);
  req.is_write = is_write;
  req.bursts = bursts;
  req.arrival = now;
  req.tenant = tenant;
  req.user_tag = user_tag;
  assert(channels_[req.loc.channel]->CanAccept());
  channels_[req.loc.channel]->Enqueue(req,
                                      /*slot_ticked=*/ticked_through_ > now);
  empty_queue_mask_ &= ~(std::uint64_t{1} << req.loc.channel);
  inflight_++;
  // New work re-arms the channel's wake. EnqueueWake (not NextEventHint):
  // when the enqueue lands before this visit's device tick the channel may
  // issue at `now` itself, so a future-only hint would be too late. The
  // other channels' stored wakes are unaffected.
  wakes_.Set(req.loc.channel, channels_[req.loc.channel]->EnqueueWake());
  return req.id;
}

void DramSystem::TickDue(Cycle now) {
  // Fixed-latency completions (functional mode, or the tail of one after a
  // restore into detailed timing): the list is sorted by `done`, so the due
  // entries are a prefix.
  if (!func_pending_.empty() && func_pending_[func_head_].done <= now) {
    do {
      completions_.push_back(func_pending_[func_head_++]);
      inflight_--;
    } while (func_head_ < func_pending_.size() &&
             func_pending_[func_head_].done <= now);
    // Erase the delivered prefix once it is half the list. The entries
    // moved are never more than the ones delivered, so the drain stays
    // amortized O(due).
    if (2 * func_head_ >= func_pending_.size()) {
      func_pending_.erase(func_pending_.begin(),
                          func_pending_.begin() + func_head_);
      func_head_ = 0;
    }
  }
  if (wakes_.NoneDue(now)) return;  // nothing can happen yet
  const std::size_t before = completions_.size();
  wakes_.TickDue(now, [&](std::size_t c) {
    DramChannel& ch = *channels_[c];
    const Cycle wake = ch.Tick(now, completions_);
    const std::uint64_t bit = std::uint64_t{1} << c;
    empty_queue_mask_ = ch.QueueSize() == 0 ? empty_queue_mask_ | bit
                                            : empty_queue_mask_ & ~bit;
    return wake;
  });
  inflight_ -= completions_.size() - before;
}

bool DramSystem::Refreshing(Addr addr, Cycle now) const {
  if (functional_latency_ != 0) return false;
  const DramAddress loc = mapper_.Map(addr);
  return channels_[loc.channel]->RankRefreshing(loc.rank, now);
}

bool DramSystem::TransactionQueuesEmpty() const {
  return func_pending_.empty() &&
         std::all_of(channels_.begin(), channels_.end(),
                     [](const auto& ch) { return ch->QueueEmpty(); });
}

bool DramSystem::ChannelTransactionQueueEmpty(std::uint32_t channel) const {
  return channels_[channel]->QueueSize() == 0;
}

void DramSystem::SetObserver(ColumnCommandObserver* obs) {
  for (auto& ch : channels_) ch->SetObserver(obs);
}

ChannelCounters DramSystem::TotalCounters() const {
  ChannelCounters total;
  for (const auto& ch : channels_) {
    const ChannelCounters& c = ch->counters();
    total.activates += c.activates;
    total.precharges += c.precharges;
    total.refreshes += c.refreshes;
    total.read_bursts += c.read_bursts;
    total.write_bursts += c.write_bursts;
    total.row_hits += c.row_hits;
    total.row_misses += c.row_misses;
    total.data_busy_cycles += c.data_busy_cycles;
    total.bytes_transferred += c.bytes_transferred;
    total.turnarounds_rw += c.turnarounds_rw;
    total.turnarounds_wr += c.turnarounds_wr;
    total.transactions += c.transactions;
    total.queue_wait_cycles += c.queue_wait_cycles;
  }
  return total;
}

void DramSystem::ExportStats(StatSet& stats) const {
  const ChannelCounters t = TotalCounters();
  const std::string p = cfg_.name + ".";
  stats.Counter(p + "activates") = t.activates;
  stats.Counter(p + "precharges") = t.precharges;
  stats.Counter(p + "refreshes") = t.refreshes;
  stats.Counter(p + "read_bursts") = t.read_bursts;
  stats.Counter(p + "write_bursts") = t.write_bursts;
  stats.Counter(p + "row_hits") = t.row_hits;
  stats.Counter(p + "row_misses") = t.row_misses;
  stats.Counter(p + "data_busy_cycles") = t.data_busy_cycles;
  stats.Counter(p + "bytes_transferred") = t.bytes_transferred;
  stats.Counter(p + "turnarounds_rw") = t.turnarounds_rw;
  stats.Counter(p + "turnarounds_wr") = t.turnarounds_wr;
  stats.Counter(p + "transactions") = t.transactions;
  stats.Counter(p + "queue_wait_cycles") = t.queue_wait_cycles;
}

SchedulerLedger DramSystem::Ledger() const {
  SchedulerLedger total;
  for (const auto& ch : channels_) total += ch->ledger();
  return total;
}

template <class Self, class Ar>
void DramSystem::Io(Self& s, Ar& a) {
  a.Section("dram");
  a.U64(s.next_id_);
  a.U64(s.inflight_);
  const auto completion = [&a](auto& d) { IoDramCompletion(d, a); };
  a.Records(s.completions_, 1, completion);
  if constexpr (Ar::kReading) {
    a.Records(s.func_pending_, 1, completion);
    s.func_head_ = 0;
    for (std::size_t i = 1; i < s.func_pending_.size(); ++i) {
      if (s.func_pending_[i].done < s.func_pending_[i - 1].done) {
        throw ser::SerializeError(
            "functional completions out of completion-cycle order");
      }
    }
    (void)a.U64();  // the earliest pending done, which the list implies
    s.wakes_.Reset(s.channels_.size());  // all due: spurious visits are no-ops
    s.ticked_through_ = 0;
  } else {
    // Only the undelivered suffix of the functional list is state.
    a.Records(std::span(s.func_pending_).subspan(s.func_head_), 1, completion);
    a.U64(s.FuncMin());
  }
  for (const auto& ch : s.channels_) a.Part(*ch);
  if constexpr (Ar::kReading) {
    s.empty_queue_mask_ = 0;
    for (std::size_t c = 0; c < s.channels_.size(); ++c) {
      if (s.channels_[c]->QueueSize() == 0) {
        s.empty_queue_mask_ |= std::uint64_t{1} << c;
      }
    }
  }
}

void DramSystem::Snapshot(ser::Writer& w) const { Io(*this, w); }
void DramSystem::Restore(ser::Reader& r) { Io(*this, r); }

}  // namespace redcache
