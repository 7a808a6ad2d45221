#include "dram/channel.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/check.hpp"
#include "obs/trace_macros.hpp"

namespace redcache {

namespace {
constexpr Cycle AlignUp(Cycle t) { return TimingLanes::AlignUp(t); }
}  // namespace

DramChannel::DramChannel(const DramConfig& cfg, std::uint32_t channel_index)
    : cfg_(cfg),
      channel_index_(static_cast<std::uint16_t>(channel_index)),
      trace_device_(cfg.name == "hbm" ? obs::kTraceDeviceHbm
                                      : obs::kTraceDeviceMainMem) {
  lanes_.Init(cfg_.timing, cfg_.geometry.ranks_per_channel,
              cfg_.geometry.banks_per_rank);
  const std::uint32_t depth = cfg_.controller.queue_depth;
  slots_.resize(depth);
  free_slots_.reserve(depth);
  for (std::uint32_t s = depth; s-- > 0;) {
    free_slots_.push_back(static_cast<std::int32_t>(s));
  }
  // A pick key holds the slot in its low kSlotBits.
  REDCACHE_CHECK(depth <= (1u << kSlotBits),
                 "a DRAM channel queue holds at most 256 transactions");
  q_.resize(depth);
  demand_count_.assign(lanes_.num_banks(), 0);
  open_reads_.assign(lanes_.num_banks(), 0);
  open_writes_.assign(lanes_.num_banks(), 0);
  bank_head_.assign(lanes_.num_banks(), -1);
  bank_tail_.assign(lanes_.num_banks(), -1);
  oldest_read_.assign(lanes_.num_banks(), -1);
  oldest_write_.assign(lanes_.num_banks(), -1);
  active_banks_.reserve(lanes_.num_banks());
  active_pos_.assign(lanes_.num_banks(), -1);
  // A summary word holds LUT indices rank * 8 + selector in 8 bits.
  REDCACHE_CHECK(lanes_.num_ranks() <= 32,
                 "a DRAM channel has at most 32 ranks");
  // The refresh walk keeps a rank's banks in 64-bit masks.
  REDCACHE_CHECK(cfg_.geometry.banks_per_rank <= 64,
                 "a DRAM rank has at most 64 banks");
  // Selector 0 (no candidate) and the pad entries stay kNever; each scan
  // rewrites selectors 1-4.
  summary_lut_.assign(std::size_t{lanes_.num_ranks()} * 8, kNever);
}

void DramChannel::Enqueue(const DramRequest& req, bool slot_ticked) {
  assert(CanAccept());
  // A new request voids the issue-time pre-pass. If its slot's pass has not
  // run yet, that pass must now see the request, so the sleep target the
  // pre-pass set ahead of time is taken back.
  if (prepass_slot_ != kNever) {
    if (prepass_pick_ == kNoPick &&
        (req.arrival < prepass_slot_ ||
         (req.arrival == prepass_slot_ && !slot_ticked))) {
      sleep_until_ = prepass_saved_sleep_;
    }
    prepass_slot_ = kNever;
  }
  const std::int32_t s = free_slots_.back();
  free_slots_.pop_back();
  Pending& p = slots_[static_cast<std::size_t>(s)];
  p.req = req;
  p.bursts_left = std::max<std::uint32_t>(1, req.bursts);
  p.first_command_issued = false;
  const std::uint32_t bank_idx =
      req.loc.rank * cfg_.geometry.banks_per_rank + req.loc.bank;
  Queued& q = q_[static_cast<std::size_t>(s)];
  q.row = req.loc.row;
  q.seq = next_seq_++;
  q.arrival = req.arrival;
  q.bank = bank_idx;
  q.is_write = req.is_write;
  Link(s);
  AddRowDemand(bank_idx, req.loc.row, req.is_write, s);
  RefreshBankSummary(bank_idx);
  if (req.is_write) write_count_++;
  counters_.transactions++;
  // Incremental wake maintenance: instead of forcing a full rescan on the
  // next slot, lower the sleep target only as far as the new arrival
  // requires. Readiness depends solely on the timing lanes, so nothing
  // already queued got closer, and added row demand can only *block* a
  // precharge, never enable earlier work. The one time-driven (rather than
  // issue- or arrival-driven) scan decision is anti-starvation, so also cap
  // the sleep at the head's starvation boundary; once a scan runs starved,
  // it folds the head's ready cycle into the sleep target itself.
  Cycle ready_new = kNever;
  RequiredAction(s, ready_new);
  const Cycle starved_at =
      q_[static_cast<std::size_t>(q_head_)].arrival +
      cfg_.controller.starvation_cycles + 1;
  sleep_until_ = std::min({sleep_until_, ready_new, starved_at});
}

void DramChannel::Link(std::int32_t s) {
  Queued& q = q_[static_cast<std::size_t>(s)];
  q.prev = q_tail_;
  q.next = -1;
  (q_tail_ < 0 ? q_head_ : q_[static_cast<std::size_t>(q_tail_)].next) = s;
  q_tail_ = s;
  std::int32_t& tail = bank_tail_[q.bank];
  q.bank_prev = tail;
  q.bank_next = -1;
  (tail < 0 ? bank_head_[q.bank] : q_[static_cast<std::size_t>(tail)].bank_next) =
      s;
  tail = s;
  q_size_++;
}

void DramChannel::Unlink(std::int32_t s) {
  const Queued& q = q_[static_cast<std::size_t>(s)];
  (q.prev < 0 ? q_head_ : q_[static_cast<std::size_t>(q.prev)].next) = q.next;
  (q.next < 0 ? q_tail_ : q_[static_cast<std::size_t>(q.next)].prev) = q.prev;
  (q.bank_prev < 0 ? bank_head_[q.bank]
                   : q_[static_cast<std::size_t>(q.bank_prev)].bank_next) =
      q.bank_next;
  (q.bank_next < 0 ? bank_tail_[q.bank]
                   : q_[static_cast<std::size_t>(q.bank_next)].bank_prev) =
      q.bank_prev;
  q_size_--;
}

void DramChannel::RemoveFromQueue(std::int32_t s) {
  const Queued& q = q_[static_cast<std::size_t>(s)];
  const std::uint32_t b = q.bank;
  const bool is_write = q.is_write != 0;
  SubRowDemand(b, q.row, is_write);
  // If the entry was its bank's oldest open-row entry of its direction,
  // the successor is the next match along the bank's list.
  std::int32_t& oldest_dir = (is_write ? oldest_write_ : oldest_read_)[b];
  if (oldest_dir == s && q.row == lanes_.OpenRow(b)) {
    oldest_dir = -1;
    for (std::int32_t j = q.bank_next; j >= 0;
         j = q_[static_cast<std::size_t>(j)].bank_next) {
      const Queued& n = q_[static_cast<std::size_t>(j)];
      if (n.row == q.row && (n.is_write != 0) == is_write) {
        oldest_dir = j;
        break;
      }
    }
  }
  Unlink(s);
  free_slots_.push_back(s);
}

void DramChannel::CountOpenRowDemand(std::uint32_t b) {
  const std::uint64_t row = lanes_.OpenRow(b);
  std::uint32_t reads = 0;
  std::uint32_t writes = 0;
  std::int32_t oldest_read = -1;
  std::int32_t oldest_write = -1;
  for (std::int32_t j = bank_head_[b]; j >= 0;
       j = q_[static_cast<std::size_t>(j)].bank_next) {
    const Queued& q = q_[static_cast<std::size_t>(j)];
    if (q.row != row) continue;
    if (q.is_write != 0) {
      if (writes++ == 0) oldest_write = j;
    } else {
      if (reads++ == 0) oldest_read = j;
    }
  }
  open_reads_[b] = reads;
  open_writes_[b] = writes;
  oldest_read_[b] = oldest_read;
  oldest_write_[b] = oldest_write;
}

void DramChannel::AddRowDemand(std::uint32_t bank_idx, std::uint64_t row,
                               bool is_write, std::int32_t slot) {
  if (demand_count_[bank_idx]++ == 0) {
    active_pos_[bank_idx] = static_cast<std::int32_t>(active_banks_.size());
    active_banks_.push_back(bank_idx);
    active_summary_.emplace_back();
  }
  if (row == lanes_.OpenRow(bank_idx)) {
    if ((is_write ? open_writes_ : open_reads_)[bank_idx]++ == 0) {
      (is_write ? oldest_write_ : oldest_read_)[bank_idx] = slot;
    }
  }
}

void DramChannel::SubRowDemand(std::uint32_t bank_idx, std::uint64_t row,
                               bool is_write) {
  if (--demand_count_[bank_idx] == 0) {
    const auto pos = static_cast<std::size_t>(active_pos_[bank_idx]);
    const std::uint32_t moved = active_banks_.back();
    active_banks_[pos] = moved;
    active_summary_[pos] = active_summary_.back();
    active_pos_[moved] = active_pos_[bank_idx];
    active_banks_.pop_back();
    active_summary_.pop_back();
    active_pos_[bank_idx] = -1;
  }
  if (row == lanes_.OpenRow(bank_idx)) {
    (is_write ? open_writes_ : open_reads_)[bank_idx]--;
  }
}

DramChannel::Action DramChannel::RequiredAction(std::int32_t s,
                                                Cycle& ready_at) const {
  const Queued& q = q_[static_cast<std::size_t>(s)];
  const std::uint32_t b = q.bank;
  const std::uint64_t open = lanes_.OpenRow(b);
  if (open == TimingLanes::kNoRow) {
    ready_at = lanes_.ActivateReady(b);
    return Action::kActivate;
  }
  if (open != q.row) {
    ready_at = lanes_.PrechargeReady(b);
    return Action::kPrecharge;
  }
  const bool w = q.is_write != 0;
  // Follow-up bursts of the same transaction stream back to back, gated by
  // the data bus only (not tCCD). At most one queued request can be the
  // continuation.
  ready_at = s == cont_slot_ ? lanes_.ContinuationReady(b, w)
                             : lanes_.ColumnReady(b, w);
  return Action::kColumn;
}

void DramChannel::RefreshBankSummary(std::uint32_t b) {
  // Selector / bank-local-gate / key triples (see the lane map in
  // channel.hpp):
  //   no demand        -> no candidate (the bank is not active)
  //   closed row       -> every transaction needs an activate: the oldest
  //   open, not wanted -> every transaction needs a precharge: the oldest
  //   open, row wanted -> the oldest open-row read and write columns
  //                       (precharge candidates are blocked and contribute
  //                        nothing, matching FR-FCFS)
  const std::int32_t pos = active_pos_[b];
  if (pos < 0) return;  // no demand: rebuilt when demand returns
  BankSummary& s = active_summary_[static_cast<std::size_t>(pos)];
  std::uint64_t sel_a = 0;
  std::uint64_t sel_b = 0;
  Cycle local = 0;
  if (!lanes_.RowOpen(b)) {
    sel_a = 1;
    local = lanes_.RawActivateGate(b);
    s.key_a = kRowClass | EntryKey(bank_head_[b]);
  } else if (open_reads_[b] + open_writes_[b] == 0) {
    sel_a = 2;
    local = lanes_.RawPrechargeGate(b);
    s.key_a = kRowClass | EntryKey(bank_head_[b]);
  } else {
    // The continuation transaction counts here like any other, gated by
    // ColumnReady, and SummarizeBanks folds it in again gated by
    // ContinuationReady. ContinuationReady never exceeds ColumnReady, so
    // whenever this candidate is due the continuation is due too, and when
    // it is the oldest of its direction both name it: the extra term moves
    // neither the pick nor the sleep target.
    sel_a = open_reads_[b] != 0 ? 3 : 0;
    sel_b = open_writes_[b] != 0 ? 4 : 0;
    local = lanes_.RawColumnGate(b);
    s.key_a = sel_a != 0 ? EntryKey(oldest_read_[b]) : kNoPick;
    s.key_b = sel_b != 0 ? kWriteClass | EntryKey(oldest_write_[b]) : kNoPick;
  }
  const std::uint64_t lut = std::uint64_t{lanes_.rank_of(b)} * 8;
  s.word = (local << 16) | ((lut + sel_b) << 8) | (lut + sel_a);
}

std::uint64_t DramChannel::SummarizeBanks(Cycle now, Cycle& min_ready) {
  // Per-scan LUT: the bank-invariant completion of each selector's
  // max-chain, per rank. A candidate's exact raw earliest-ready is then
  // max(local gate, lut[rank][sel]).
  const std::uint32_t ranks = lanes_.num_ranks();
  for (std::uint32_t r = 0; r < ranks; ++r) {
    Cycle* lut = &summary_lut_[std::size_t{r} * 8];
    const Cycle refresh = lanes_.refresh_until(r);
    lut[1] = lanes_.RankActivateGate(r);
    lut[2] = refresh;  // precharge
    lut[3] = std::max(refresh, lanes_.SharedColumnGate(false));
    lut[4] = std::max(refresh, lanes_.SharedColumnGate(true));
  }

  // Writes are posted: demand reads get priority until writes pile up past
  // the watermark (standard write-drain policy; keeps read latency low
  // without starving fills/writebacks/update traffic). While draining, a
  // write column joins the read class.
  const bool drain_writes = 2 * write_count_ > cfg_.controller.queue_depth;
  const std::uint64_t write_mask = drain_writes ? ~kWriteClass : ~std::uint64_t{0};

  // Branchless per-bank loop over the banks that actually have queued
  // demand: per candidate one LUT load, max, compare, and a select of its
  // key. A bank is due when either candidate is; a bank not due folds its
  // earliest candidate into the sleep target (a due bank's would go unused:
  // a command issues this scan). AlignUp commutes with min/<=-vs-even-now,
  // so it is applied once at the end instead of per bank.
  std::uint64_t pick = kNoPick;
  Cycle raw_min = kNever;
  const std::size_t active = active_summary_.size();
  const BankSummary* summary = active_summary_.data();
  const Cycle* lut = summary_lut_.data();
  for (std::size_t k = 0; k < active; ++k) {
    const BankSummary& s = summary[k];
    const Cycle local = s.word >> 16;
    const Cycle ready_a = std::max(local, lut[s.word & 0xff]);
    const Cycle ready_b = std::max(local, lut[(s.word >> 8) & 0xff]);
    const Cycle raw = std::min(ready_a, ready_b);
    raw_min = std::min(raw_min, raw <= now ? kNever : raw);
    // A candidate not due yet becomes kNoPick by OR-ing in an all-ones
    // mask: a select written this way cannot compile to a branch.
    const std::uint64_t key_a = s.key_a | (0 - std::uint64_t{ready_a > now});
    const std::uint64_t key_b =
        (s.key_b & write_mask) | (0 - std::uint64_t{ready_b > now});
    pick = std::min(pick, std::min(key_a, key_b));
  }
  ledger_.pick_candidates += active;

  // Fold the continuation transaction back in: it contributes its bank's
  // ContinuationReady (col_shared without the tCCD term) instead of
  // ColumnReady. While writes drain, its class cannot change the pick as
  // long as tCCD is one channel-wide lane: any other column due then means
  // its own bank offers a class-0 candidate at least as old. The drain term
  // keeps the fold right should tCCD become per bank group.
  if (cont_slot_ != -1 && cont_row_ == lanes_.OpenRow(cont_bank_)) {
    const Cycle cont_ready = lanes_.ContinuationReady(cont_bank_, cont_write_);
    if (cont_ready <= now) {
      const std::uint64_t cls = cont_write_ && !drain_writes ? kWriteClass : 0;
      pick = std::min(pick, cls | EntryKey(cont_slot_));
    } else {
      min_ready = std::min(min_ready, cont_ready);
    }
  }
  if (raw_min != kNever) {
    min_ready = std::min(min_ready, TimingLanes::AlignUp(raw_min));
  }
  return pick;
}

void DramChannel::IssuePick(std::uint64_t pick, Cycle now) {
  const auto s = static_cast<std::int32_t>(pick & kSlotMask);
  const std::uint32_t b = q_[static_cast<std::size_t>(s)].bank;
  if (pick < kRowClass) {
    IssueColumn(s, now);
  } else if (lanes_.RowOpen(b)) {
    IssuePrecharge(b, now);
  } else {
    IssueActivate(s, now);
  }
}

void DramChannel::IssueColumn(std::int32_t s, Cycle now) {
  const auto& t = cfg_.timing;
  const auto& geo = cfg_.geometry;
  const Queued& q = q_[static_cast<std::size_t>(s)];
  const std::uint32_t bank_idx = q.bank;
  const bool is_write = q.is_write != 0;
  Pending& p = slots_[static_cast<std::size_t>(s)];

  const Cycle lat = is_write ? t.tCWD : t.tCAS;
  const Cycle data_end = now + lat + t.tBL;
  lanes_.RecordColumn(bank_idx, is_write, now);
  next_cmd_slot_ = now + kCpuCyclesPerDramCycle;

  if (is_write) {
    counters_.write_bursts++;
    if (last_data_ == LastData::kRead) counters_.turnarounds_rw++;
    last_data_ = LastData::kWrite;
  } else {
    counters_.read_bursts++;
    if (last_data_ == LastData::kWrite) counters_.turnarounds_wr++;
    last_data_ = LastData::kRead;
  }
  counters_.data_busy_cycles += t.tBL;
  counters_.bytes_transferred += geo.burst_bytes + geo.sideband_bytes;
  counters_.row_hits++;

  if (!p.first_command_issued) {
    p.first_command_issued = true;
    counters_.queue_wait_cycles += now - p.req.arrival;
  }

  if (observer_ != nullptr) {
    observer_->OnColumnCommand({p.req.loc, is_write, now});
  }

  REDCACHE_TRACE_EVENT(obs::TraceEvent{
      .cycle = now,
      .dur = static_cast<std::uint32_t>(t.tBL),
      .type = is_write ? obs::TraceEventType::kCmdWrite
                       : obs::TraceEventType::kCmdRead,
      .device = trace_device_,
      .rank = static_cast<std::uint8_t>(p.req.loc.rank),
      .bank = static_cast<std::uint8_t>(p.req.loc.bank),
      .channel = channel_index_,
      .addr = p.req.addr,
      .arg = p.req.loc.row});

  p.bursts_left--;
  if (p.bursts_left == 0) {
    pending_done_.push_back(
        {p.req.id, p.req.addr, is_write, data_end, p.req.tenant,
         p.req.user_tag});
    pending_done_min_ = std::min(pending_done_min_, data_end);
    if (is_write) write_count_--;
    cont_slot_ = -1;  // the streaming transaction retired
    RemoveFromQueue(s);
  } else {
    cont_slot_ = s;
    cont_bank_ = bank_idx;
    cont_row_ = q.row;
    cont_write_ = is_write;
  }
  RefreshBankSummary(bank_idx);
}

void DramChannel::IssueActivate(std::int32_t s, Cycle now) {
  const auto& t = cfg_.timing;
  Pending& p = slots_[static_cast<std::size_t>(s)];
  const std::uint32_t bank_idx = q_[static_cast<std::size_t>(s)].bank;
  lanes_.RecordActivate(bank_idx, q_[static_cast<std::size_t>(s)].row, now);
  CountOpenRowDemand(bank_idx);
  next_cmd_slot_ = now + kCpuCyclesPerDramCycle;
  counters_.activates++;
  counters_.row_misses++;
  REDCACHE_TRACE_EVENT(obs::TraceEvent{
      .cycle = now,
      .dur = static_cast<std::uint32_t>(t.tRCD),
      .type = obs::TraceEventType::kCmdActivate,
      .device = trace_device_,
      .rank = static_cast<std::uint8_t>(p.req.loc.rank),
      .bank = static_cast<std::uint8_t>(p.req.loc.bank),
      .channel = channel_index_,
      .addr = p.req.addr,
      .arg = p.req.loc.row});
  if (!p.first_command_issued) {
    p.first_command_issued = true;
    counters_.queue_wait_cycles += now - p.req.arrival;
  }
  RefreshBankSummary(bank_idx);
}

void DramChannel::IssuePrecharge(std::uint32_t bank_idx, Cycle now) {
  const std::uint64_t closed_row = lanes_.OpenRow(bank_idx);
  lanes_.RecordPrecharge(bank_idx, now);
  open_reads_[bank_idx] = 0;
  open_writes_[bank_idx] = 0;
  next_cmd_slot_ = now + kCpuCyclesPerDramCycle;
  counters_.precharges++;
  REDCACHE_TRACE_EVENT(obs::TraceEvent{
      .cycle = now,
      .dur = static_cast<std::uint32_t>(cfg_.timing.tRP),
      .type = obs::TraceEventType::kCmdPrecharge,
      .device = trace_device_,
      .rank = static_cast<std::uint8_t>(bank_idx /
                                        cfg_.geometry.banks_per_rank),
      .bank = static_cast<std::uint8_t>(bank_idx %
                                        cfg_.geometry.banks_per_rank),
      .channel = channel_index_,
      .arg = closed_row});
  RefreshBankSummary(bank_idx);
}

void DramChannel::PrepassNextSlot() {
  // The next slot's pass would run MaybeRefresh's fast path, skip the
  // starved-head branch and then this same pre-pass, on inputs that only an
  // Enqueue (which discards the result) can change before then.
  const Cycle slot = next_cmd_slot_;
  if (q_size_ == 0 || slot >= refresh_wake_ ||
      HeadArrival() + cfg_.controller.starvation_cycles < slot) {
    return;
  }
  Cycle min_ready = refresh_wake_;
  prepass_pick_ = SummarizeBanks(slot, min_ready);
  prepass_slot_ = slot;
  // Some bank is due: the slot's pass issues this pick.
  if (prepass_pick_ != kNoPick) return;
  // Nothing is due: sleep exactly as the slot's pass would, and skip it.
  prepass_saved_sleep_ = sleep_until_;
  sleep_until_ = min_ready == kNever
                     ? slot + kCpuCyclesPerDramCycle
                     : std::max(min_ready, slot + kCpuCyclesPerDramCycle);
}

bool DramChannel::RefreshWalk(Cycle now, Cycle& min_ready) {
  ledger_.refresh_walks++;
  Cycle wake = kNever;
  const std::uint32_t banks_per_rank = cfg_.geometry.banks_per_rank;
  for (std::uint32_t r = 0; r < lanes_.num_ranks(); ++r) {
    if (lanes_.Refreshing(r, now)) {
      wake = std::min(wake, lanes_.refresh_until(r));
      continue;
    }
    if (!lanes_.RefreshDue(r, now)) {
      wake = std::min(wake, lanes_.next_refresh(r));
      continue;
    }
    // Refresh is due: close all banks (the lowest-indexed closable first),
    // then wait tRP, then refresh. One branch-free pass over the rank's
    // banks: an open bank contributes its precharge gate, a closed one its
    // activate gate.
    const std::uint32_t bank_base = r * banks_per_rank;
    Cycle rank_ready = now;
    std::uint64_t open = 0;
    std::uint64_t closable = 0;
    for (std::uint32_t b = 0; b < banks_per_rank; ++b) {
      const std::uint32_t bank = bank_base + b;
      // All ones for an open bank: a masked select, not a branch.
      const std::uint64_t is_open = 0 - std::uint64_t{lanes_.RowOpen(bank)};
      open |= (is_open & 1) << b;
      const Cycle gate = (lanes_.RawPrechargeGate(bank) & is_open) |
                         (lanes_.RawActivateGate(bank) & ~is_open);
      rank_ready = std::max(rank_ready, gate);
      closable |= (is_open & std::uint64_t{gate <= now}) << b;
    }
    if (closable != 0) {
      IssuePrecharge(bank_base + static_cast<std::uint32_t>(
                                     std::countr_zero(closable)),
                     now);
      return true;  // refresh_wake_ stays hot (<= now)
    }
    if (open != 0 || now < rank_ready) {
      wake = std::min(wake, AlignUp(std::max(rank_ready, now + 1)));
      continue;
    }
    lanes_.StartRefresh(r, now);
    refresh_epoch_++;
    // StartRefresh raised the rank's bank activate gates by tRFC. Only
    // banks with queued demand need their packed summary recomputed — an
    // inactive bank's summary is never read before its next activation
    // (Enqueue) recomputes it.
    for (const std::uint32_t bank : active_banks_) {
      if (lanes_.rank_of(bank) == r) RefreshBankSummary(bank);
    }
    next_cmd_slot_ = now + kCpuCyclesPerDramCycle;
    counters_.refreshes++;
    REDCACHE_TRACE_EVENT(obs::TraceEvent{
        .cycle = now,
        .dur = static_cast<std::uint32_t>(cfg_.timing.tRFC),
        .type = obs::TraceEventType::kCmdRefresh,
        .device = trace_device_,
        .rank = static_cast<std::uint8_t>(r),
        .channel = channel_index_});
    return true;
  }
  refresh_wake_ = wake;
  min_ready = std::min(min_ready, wake);
  return false;
}

Cycle DramChannel::Tick(Cycle now, std::vector<DramCompletion>& done) {
  // Deliver finished data movements: one stable compacting pass (delivery
  // order matches insertion order, no per-element erase).
  if (pending_done_min_ <= now) {
    std::size_t keep = 0;
    Cycle next_min = kNever;
    for (std::size_t i = 0; i < pending_done_.size(); ++i) {
      if (pending_done_[i].done <= now) {
        done.push_back(pending_done_[i]);
      } else {
        next_min = std::min(next_min, pending_done_[i].done);
        pending_done_[keep++] = pending_done_[i];
      }
    }
    pending_done_.resize(keep);
    pending_done_min_ = next_min;
  }
  if (now % kCpuCyclesPerDramCycle == 0 && now >= next_cmd_slot_ &&
      now >= sleep_until_) {
    SchedulePass(now);
  }
  return NextEventHint(now);
}

void DramChannel::SchedulePass(Cycle now) {
  // A pre-pass kept from the previous issue is valid for its slot only.
  const bool kept = now == prepass_slot_ && prepass_pick_ != kNoPick;
  prepass_slot_ = kNever;

  Cycle min_ready = kNever;
  if (MaybeRefresh(now, min_ready)) return;

  if (q_size_ == 0) {
    ledger_.empty_passes++;
    sleep_until_ = min_ready == kNever ? now + cfg_.timing.tREFI : min_ready;
    return;
  }

  // Anti-starvation: once the oldest request (queue position 0, arrival
  // order) has waited past the threshold, issue its next command ahead of
  // row hits — but only when it can actually issue; blocking the channel on
  // a not-yet-ready command would serialize the banks.
  if (HeadArrival() + cfg_.controller.starvation_cycles < now) {
    Cycle head_ready = kNever;
    const Action head_act = RequiredAction(q_head_, head_ready);
    if (head_ready <= now) {
      if (head_act == Action::kColumn) {
        IssueColumn(q_head_, now);
      } else if (head_act == Action::kActivate) {
        IssueActivate(q_head_, now);
      } else {
        IssuePrecharge(q_[static_cast<std::size_t>(q_head_)].bank, now);
      }
      PrepassNextSlot();
      return;
    }
    min_ready = std::min(min_ready, head_ready);
    // Fall through: serve other ready work while the starved head waits on
    // its bank timing.
  }

  // The fused FR-FCFS pick over the per-bank summaries: if no bank can
  // issue at `now`, the exact sleep target is already in min_ready and the
  // queue is never touched. The previous issue may have run it for this
  // slot already.
  const std::uint64_t pick =
      kept ? prepass_pick_ : SummarizeBanks(now, min_ready);
  if (pick == kNoPick) {
    ledger_.idle_sleeps++;
    sleep_until_ = min_ready == kNever
                       ? now + kCpuCyclesPerDramCycle
                       : std::max(min_ready, now + kCpuCyclesPerDramCycle);
    return;
  }
  IssuePick(pick, now);
  PrepassNextSlot();
}

template <class Self, class Ar>
void DramChannel::Io(Self& s, Ar& a) {
  a.Section("chan");
  a.Part(s.lanes_);

  std::size_t q_size = s.q_size_;
  std::vector<bool> queued;  // reading: slots already restored
  if constexpr (Ar::kReading) {
    q_size = a.SeqLen(1);
    if (q_size > s.slots_.size()) {
      throw ser::SerializeError("channel queue exceeds queue_depth");
    }
    queued.assign(s.slots_.size(), false);
    s.q_head_ = s.q_tail_ = -1;
    s.q_size_ = 0;
    std::fill(s.bank_head_.begin(), s.bank_head_.end(), -1);
    std::fill(s.bank_tail_.begin(), s.bank_tail_.end(), -1);
  } else {
    a.U64(q_size);
  }
  // The queue in arrival order, one record per transaction.
  std::int32_t next = s.q_head_;
  for (std::size_t i = 0; i < q_size; ++i) {
    std::uint32_t bank = 0;
    std::uint32_t rank = 0;  // stored for the layout; implied by the bank
    std::uint64_t row = 0;
    std::uint8_t is_write = 0;
    Cycle arrival = 0;
    std::uint32_t slot = 0;
    if constexpr (!Ar::kReading) {
      const Queued& q = s.q_[static_cast<std::size_t>(next)];
      bank = q.bank;
      rank = bank / s.cfg_.geometry.banks_per_rank;
      row = q.row;
      is_write = q.is_write;
      arrival = q.arrival;
      slot = static_cast<std::uint32_t>(next);
      next = q.next;
    }
    a.U32(bank);
    a.U32(rank);
    a.U64(row);
    a.U8(is_write);
    a.U64(arrival);
    a.U32(slot);
    if constexpr (Ar::kReading) {
      if (slot >= s.slots_.size() || queued[slot] ||
          bank >= s.lanes_.num_banks() || rank != s.lanes_.rank_of(bank)) {
        throw ser::SerializeError("channel queue entry out of range");
      }
      queued[slot] = true;
      Queued& q = s.q_[slot];
      q.row = row;
      q.seq = i;  // only the order of sequences is behaviour
      q.arrival = arrival;
      q.bank = bank;
      q.is_write = is_write;
      s.Link(static_cast<std::int32_t>(slot));
    }
    auto& p = s.slots_[slot];
    a.U64(p.req.id);
    a.U64(p.req.addr);
    IoDramAddress(p.req.loc, a);
    a.Bool(p.req.is_write);
    a.U32(p.req.bursts);
    a.U64(p.req.arrival);
    a.U32(p.req.tenant);
    a.U64(p.req.user_tag);
    a.U32(p.bursts_left);
    a.Bool(p.first_command_issued);
  }
  a.U64Seq(s.free_slots_);
  if constexpr (Ar::kReading) {
    if (q_size + s.free_slots_.size() != s.slots_.size()) {
      throw ser::SerializeError("channel slot pool accounting mismatch");
    }
  }
  a.Records(s.pending_done_, 1, [&a](auto& d) { IoDramCompletion(d, a); });
  a.U64(s.pending_done_min_);
  a.U64(s.next_cmd_slot_);
  a.U64(s.sleep_until_);
  a.U64(s.refresh_wake_);
  // Only a pre-pass that moved sleep_until_ is state; a kept due count is
  // a cache the slot's pass recomputes.
  if constexpr (Ar::kReading) {
    a.U64(s.prepass_slot_);
    s.prepass_pick_ = kNoPick;
  } else {
    a.U64(s.prepass_pick_ == kNoPick ? s.prepass_slot_ : kNever);
  }
  a.U64(s.prepass_saved_sleep_);
  a.U64(s.refresh_epoch_);
  a.I64(s.cont_slot_);
  if constexpr (Ar::kReading) {
    if (s.cont_slot_ != -1 &&
        (s.cont_slot_ < 0 ||
         static_cast<std::size_t>(s.cont_slot_) >= s.slots_.size() ||
         !queued[static_cast<std::size_t>(s.cont_slot_)])) {
      throw ser::SerializeError(
          "channel continuation names no queued transaction");
    }
  }
  a.U32(s.cont_bank_);
  a.U64(s.cont_row_);
  a.Bool(s.cont_write_);
  if constexpr (Ar::kReading) {
    s.last_data_ = static_cast<LastData>(a.U8());
  } else {
    a.U8(static_cast<std::uint8_t>(s.last_data_));
  }
  a.U32(s.write_count_);
  auto& c = s.counters_;
  for (auto* field :
       {&c.activates, &c.precharges, &c.refreshes, &c.read_bursts,
        &c.write_bursts, &c.row_hits, &c.row_misses, &c.data_busy_cycles,
        &c.bytes_transferred, &c.turnarounds_rw, &c.turnarounds_wr,
        &c.transactions, &c.queue_wait_cycles}) {
    a.U64(*field);
  }
  if constexpr (Ar::kReading) {
    // Rebuild the derived scan state from the restored queue (the lists
    // were rebuilt above, with sequences restarting at the queue
    // positions). Replaying AddRowDemand in arrival order reproduces
    // demand_count_, the active-bank set and, because the lanes already
    // hold the open rows, the open-row direction counts and oldest
    // open-row entries; the pick summaries then recompute from those.
    // active_banks_ ordering may differ from the snapshotting run, which is
    // behavior-neutral: the pick is a minimum over the banks.
    std::fill(s.demand_count_.begin(), s.demand_count_.end(), 0u);
    std::fill(s.open_reads_.begin(), s.open_reads_.end(), 0u);
    std::fill(s.open_writes_.begin(), s.open_writes_.end(), 0u);
    std::fill(s.oldest_read_.begin(), s.oldest_read_.end(), -1);
    std::fill(s.oldest_write_.begin(), s.oldest_write_.end(), -1);
    s.active_banks_.clear();
    s.active_summary_.clear();
    std::fill(s.active_pos_.begin(), s.active_pos_.end(), -1);
    for (std::int32_t j = s.q_head_; j >= 0;
         j = s.q_[static_cast<std::size_t>(j)].next) {
      const Queued& q = s.q_[static_cast<std::size_t>(j)];
      s.AddRowDemand(q.bank, q.row, q.is_write != 0, j);
    }
    s.next_seq_ = q_size;
    for (const std::uint32_t bank : s.active_banks_) {
      s.RefreshBankSummary(bank);
    }
    s.idle_hint_epoch_ = ~std::uint64_t{0};  // force the memo to recompute
  }
}

void DramChannel::Snapshot(ser::Writer& w) const { Io(*this, w); }
void DramChannel::Restore(ser::Reader& r) { Io(*this, r); }

Cycle DramChannel::IdleHint(Cycle now) const {
  // Idle: the only future work is refresh bookkeeping. The rank walk is
  // memoized: its result is constant until `now` reaches it (refresh
  // starts/ends never fall inside the window — the minimum over the very
  // terms that bound them) or until a refresh starts, which bumps
  // refresh_epoch_. A hint at or before `now` (refresh due but blocked)
  // recomputes per call, exactly like an unmemoized walk.
  if (idle_hint_epoch_ != refresh_epoch_ || now >= idle_hint_) {
    Cycle h = kNever;
    for (std::uint32_t r = 0; r < lanes_.num_ranks(); ++r) {
      h = std::min(h, lanes_.Refreshing(r, now) ? lanes_.refresh_until(r)
                                                : lanes_.next_refresh(r));
    }
    idle_hint_ = h;
    idle_hint_epoch_ = refresh_epoch_;
  }
  return idle_hint_;
}

}  // namespace redcache
