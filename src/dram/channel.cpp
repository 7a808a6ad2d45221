#include "dram/channel.hpp"

#include <algorithm>
#include <cassert>

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
  q_bank_.reserve(depth);
  q_rank_.reserve(depth);
  q_row_.reserve(depth);
  q_write_.reserve(depth);
  q_arrival_.reserve(depth);
  q_slot_.reserve(depth);
  row_demand_.resize(lanes_.num_banks());
  demand_count_.assign(lanes_.num_banks(), 0);
  open_reads_.assign(lanes_.num_banks(), 0);
  open_writes_.assign(lanes_.num_banks(), 0);
  bank_due_.assign(lanes_.num_banks(), 0);
  bank_summary_.assign(lanes_.num_banks(), 0);  // selector 0: no demand
  active_banks_.reserve(lanes_.num_banks());
  active_pos_.assign(lanes_.num_banks(), -1);
  rank_lut_base_.resize(lanes_.num_banks());
  for (std::uint32_t b = 0; b < lanes_.num_banks(); ++b) {
    rank_lut_base_[b] = lanes_.rank_of(b) * 8;
  }
  summary_lut_.assign(std::size_t{lanes_.num_ranks()} * 8, 0);
}

void DramChannel::Enqueue(const DramRequest& req, bool slot_ticked) {
  assert(CanAccept());
  // A new request voids the issue-time pre-pass. If its slot's pass has not
  // run yet, that pass must now see the request, so the sleep target the
  // pre-pass set ahead of time is taken back.
  if (prepass_slot_ != kNever) {
    if (prepass_due_ == 0 &&
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
  q_bank_.push_back(bank_idx);
  q_rank_.push_back(req.loc.rank);
  q_row_.push_back(req.loc.row);
  q_write_.push_back(req.is_write ? 1 : 0);
  q_arrival_.push_back(req.arrival);
  q_slot_.push_back(s);
  AddRowDemand(bank_idx, req.loc.row, req.is_write);
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
  RequiredAction(q_slot_.size() - 1, ready_new);
  const Cycle starved_at =
      q_arrival_[0] + cfg_.controller.starvation_cycles + 1;
  sleep_until_ = std::min({sleep_until_, ready_new, starved_at});
}

void DramChannel::RemoveFromQueue(std::size_t i) {
  SubRowDemand(q_bank_[i], q_row_[i], q_write_[i] != 0);
  free_slots_.push_back(q_slot_[i]);
  q_bank_.erase(q_bank_.begin() + static_cast<std::ptrdiff_t>(i));
  q_rank_.erase(q_rank_.begin() + static_cast<std::ptrdiff_t>(i));
  q_row_.erase(q_row_.begin() + static_cast<std::ptrdiff_t>(i));
  q_write_.erase(q_write_.begin() + static_cast<std::ptrdiff_t>(i));
  q_arrival_.erase(q_arrival_.begin() + static_cast<std::ptrdiff_t>(i));
  q_slot_.erase(q_slot_.begin() + static_cast<std::ptrdiff_t>(i));
}

void DramChannel::AddRowDemand(std::uint32_t bank_idx, std::uint64_t row,
                               bool is_write) {
  if (demand_count_[bank_idx]++ == 0) {
    active_pos_[bank_idx] = static_cast<std::int32_t>(active_banks_.size());
    active_banks_.push_back(bank_idx);
  }
  if (row == lanes_.OpenRow(bank_idx)) {
    (is_write ? open_writes_ : open_reads_)[bank_idx]++;
  }
  auto& rows = row_demand_[bank_idx];
  for (RowDemand& d : rows) {
    if (d.row == row) {
      (is_write ? d.writes : d.reads)++;
      return;
    }
  }
  rows.push_back({row, is_write ? 0u : 1u, is_write ? 1u : 0u});
}

void DramChannel::SubRowDemand(std::uint32_t bank_idx, std::uint64_t row,
                               bool is_write) {
  if (--demand_count_[bank_idx] == 0) {
    const std::int32_t pos = active_pos_[bank_idx];
    const std::uint32_t moved = active_banks_.back();
    active_banks_[static_cast<std::size_t>(pos)] = moved;
    active_pos_[moved] = pos;
    active_banks_.pop_back();
    active_pos_[bank_idx] = -1;
  }
  if (row == lanes_.OpenRow(bank_idx)) {
    (is_write ? open_writes_ : open_reads_)[bank_idx]--;
  }
  auto& rows = row_demand_[bank_idx];
  for (RowDemand& d : rows) {
    if (d.row == row) {
      (is_write ? d.writes : d.reads)--;
      if (d.reads + d.writes == 0) {
        d = rows.back();
        rows.pop_back();
      }
      return;
    }
  }
  assert(false && "row demand underflow");
}

const DramChannel::RowDemand* DramChannel::FindDemand(
    std::uint32_t bank_idx, std::uint64_t row) const {
  for (const RowDemand& d : row_demand_[bank_idx]) {
    if (d.row == row) return &d;
  }
  return nullptr;
}

DramChannel::Action DramChannel::RequiredAction(std::size_t i,
                                                Cycle& ready_at) const {
  const std::uint32_t b = q_bank_[i];
  const std::uint64_t open = lanes_.OpenRow(b);
  if (open == TimingLanes::kNoRow) {
    ready_at = lanes_.ActivateReady(b);
    return Action::kActivate;
  }
  if (open != q_row_[i]) {
    ready_at = lanes_.PrechargeReady(b);
    return Action::kPrecharge;
  }
  const bool w = q_write_[i] != 0;
  // Follow-up bursts of the same transaction stream back to back, gated by
  // the data bus only (not tCCD). At most one queued request can be the
  // continuation.
  ready_at = q_slot_[i] == cont_slot_ ? lanes_.ContinuationReady(b, w)
                                      : lanes_.ColumnReady(b, w);
  return Action::kColumn;
}

void DramChannel::RefreshBankSummary(std::uint32_t b) {
  // Selector / bank-local-gate pairs (see the lane map in channel.hpp):
  //   no demand        -> 0, raw ready kNever (bank contributes nothing)
  //   closed row       -> every transaction needs an activate
  //   open, not wanted -> every transaction needs a precharge
  //   open, row wanted -> column ready per represented direction
  //                       (precharge candidates are blocked and contribute
  //                        nothing, matching the scan; the continuation
  //                        transaction is lifted out of its direction count
  //                        since it is gated by ContinuationReady, not
  //                        ColumnReady, and folded back in per scan)
  std::uint64_t sel;
  Cycle local = 0;
  if (demand_count_[b] == 0) {
    sel = 0;
  } else if (!lanes_.RowOpen(b)) {
    sel = 1;
    local = lanes_.RawActivateGate(b);
  } else if (open_reads_[b] + open_writes_[b] == 0) {
    sel = 2;
    local = lanes_.RawPrechargeGate(b);
  } else {
    std::uint32_t reads = open_reads_[b];
    std::uint32_t writes = open_writes_[b];
    if (cont_slot_ != -1 && cont_bank_ == b &&
        cont_row_ == lanes_.OpenRow(b)) {
      (cont_write_ ? writes : reads)--;
    }
    sel = 3 + (reads != 0 ? 1u : 0u) + (writes != 0 ? 2u : 0u);
    local = lanes_.RawColumnGate(b);
  }
  bank_summary_[b] = (local << 3) | sel;
}

std::uint32_t DramChannel::SummarizeBanks(Cycle now, Cycle& min_ready) {
  // Per-scan LUT: the bank-invariant completion of each selector's
  // max-chain, per rank. A bank's exact raw earliest-ready is then
  // max(local gate, lut[rank][sel]) — max distributes over the min across
  // direction terms because the bank-local and refresh terms are common:
  //   min over dirs of max(col_gate, shared[dir], refresh)
  //     == max(col_gate, refresh, min over dirs of shared[dir]).
  const std::uint32_t ranks = lanes_.num_ranks();
  for (std::uint32_t r = 0; r < ranks; ++r) {
    Cycle* lut = &summary_lut_[std::size_t{r} * 8];
    const Cycle refresh = lanes_.refresh_until(r);
    const Cycle col_rd = std::max(refresh, lanes_.SharedColumnGate(false));
    const Cycle col_wr = std::max(refresh, lanes_.SharedColumnGate(true));
    lut[0] = kNever;  // no demand
    lut[1] = lanes_.RankActivateGate(r);
    lut[2] = refresh;  // precharge
    lut[3] = kNever;   // column, both dirs continuation-only
    lut[4] = col_rd;
    lut[5] = col_wr;
    lut[6] = std::min(col_rd, col_wr);
    lut[7] = kNever;  // unused (pad)
  }

  // Branchless per-bank loop over the banks that actually have queued
  // demand: one packed load, one LUT load, max, compare. AlignUp commutes
  // with min/<=-vs-even-now, so it is applied once at the end instead of
  // per bank.
  std::uint32_t due = 0;
  Cycle raw_min = kNever;
  const std::uint32_t active = static_cast<std::uint32_t>(active_banks_.size());
  const std::uint32_t* active_banks = active_banks_.data();
  const std::uint64_t* summary = bank_summary_.data();
  const std::uint32_t* lut_base = rank_lut_base_.data();
  const Cycle* lut = summary_lut_.data();
  std::uint8_t* due_flags = bank_due_.data();
  for (std::uint32_t k = 0; k < active; ++k) {
    const std::uint32_t b = active_banks[k];
    const std::uint64_t v = summary[b];
    const Cycle raw =
        std::max(static_cast<Cycle>(v >> 3), lut[lut_base[b] + (v & 7)]);
    const bool is_due = raw <= now;
    due_flags[b] = is_due;
    due += is_due;
    raw_min = std::min(raw_min, is_due ? kNever : raw);
  }

  // Fold the continuation transaction back in: it contributes its bank's
  // ContinuationReady (col_shared without the tCCD term) instead of
  // ColumnReady. Correct even when its bank was counted due already — once
  // any bank is due a command issues this scan and min_ready goes unused.
  if (cont_slot_ != -1 && cont_row_ == lanes_.OpenRow(cont_bank_)) {
    const Cycle cont_ready = lanes_.ContinuationReady(cont_bank_, cont_write_);
    if (cont_ready <= now) {
      due += 1 - due_flags[cont_bank_];
      due_flags[cont_bank_] = 1;
    } else {
      min_ready = std::min(min_ready, cont_ready);
    }
  }
  if (raw_min != kNever) {
    min_ready = std::min(min_ready, TimingLanes::AlignUp(raw_min));
  }
  return due;
}

void DramChannel::IssueColumn(std::size_t i, Cycle now) {
  const auto& t = cfg_.timing;
  const auto& geo = cfg_.geometry;
  const std::uint32_t bank_idx = q_bank_[i];
  const bool is_write = q_write_[i] != 0;
  Pending& p = slots_[static_cast<std::size_t>(q_slot_[i])];

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

  const std::int32_t old_cont_slot = cont_slot_;
  const std::uint32_t old_cont_bank = cont_bank_;
  p.bursts_left--;
  if (p.bursts_left == 0) {
    pending_done_.push_back(
        {p.req.id, p.req.addr, is_write, data_end, p.req.tenant,
         p.req.user_tag});
    pending_done_min_ = std::min(pending_done_min_, data_end);
    if (is_write) write_count_--;
    cont_slot_ = -1;  // the streaming transaction retired
    RemoveFromQueue(i);
  } else {
    cont_slot_ = q_slot_[i];
    cont_bank_ = bank_idx;
    cont_row_ = q_row_[i];
    cont_write_ = is_write;
  }
  RefreshBankSummary(bank_idx);
  // Taking over (or retiring) the continuation restores the displaced
  // holder's direction count to its bank's summary.
  if (old_cont_slot != -1 && old_cont_bank != bank_idx) {
    RefreshBankSummary(old_cont_bank);
  }
}

void DramChannel::IssueActivate(std::size_t i, Cycle now) {
  const auto& t = cfg_.timing;
  Pending& p = slots_[static_cast<std::size_t>(q_slot_[i])];
  lanes_.RecordActivate(q_bank_[i], q_row_[i], now);
  const RowDemand* d = FindDemand(q_bank_[i], q_row_[i]);
  open_reads_[q_bank_[i]] = d->reads;
  open_writes_[q_bank_[i]] = d->writes;
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
  RefreshBankSummary(q_bank_[i]);
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
  if (q_slot_.empty() || slot >= refresh_wake_ ||
      q_arrival_[0] + cfg_.controller.starvation_cycles < slot) {
    return;
  }
  Cycle min_ready = refresh_wake_;
  prepass_due_ = SummarizeBanks(slot, min_ready);
  prepass_slot_ = slot;
  if (prepass_due_ != 0) {
    // Some bank is due: the slot's pass reuses the flags and this minimum.
    prepass_min_ = min_ready;
    return;
  }
  // Nothing is due: sleep exactly as the slot's pass would, and skip it.
  prepass_saved_sleep_ = sleep_until_;
  sleep_until_ = min_ready == kNever
                     ? slot + kCpuCyclesPerDramCycle
                     : std::max(min_ready, slot + kCpuCyclesPerDramCycle);
}

bool DramChannel::MaybeRefresh(Cycle now, Cycle& min_ready) {
  // Fast path: nothing refresh-related can happen before refresh_wake_.
  if (now < refresh_wake_) {
    min_ready = std::min(min_ready, refresh_wake_);
    return false;
  }
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
    // Refresh is due: close all banks, then wait tRP, then refresh.
    Cycle rank_ready = now;
    bool all_closed = true;
    const std::uint32_t bank_base = r * banks_per_rank;
    for (std::uint32_t b = 0; b < banks_per_rank; ++b) {
      const std::uint32_t bank = bank_base + b;
      if (lanes_.RowOpen(bank)) {
        all_closed = false;
        if (now >= lanes_.RawPrechargeGate(bank)) {
          IssuePrecharge(bank, now);
          return true;  // refresh_wake_ stays hot (<= now)
        }
        rank_ready = std::max(rank_ready, lanes_.RawPrechargeGate(bank));
      } else {
        rank_ready = std::max(rank_ready, lanes_.RawActivateGate(bank));
      }
    }
    if (!all_closed || now < rank_ready) {
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

void DramChannel::Tick(Cycle now, std::vector<DramCompletion>& done) {
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

  if (now % kCpuCyclesPerDramCycle != 0) return;
  if (now < next_cmd_slot_ || now < sleep_until_) return;

  // A pre-pass kept from the previous issue is valid for its slot only.
  const bool kept = now == prepass_slot_;
  prepass_slot_ = kNever;

  Cycle min_ready = kNever;
  if (MaybeRefresh(now, min_ready)) return;

  const std::size_t q_size = q_slot_.size();
  if (q_size == 0) {
    sleep_until_ = min_ready == kNever ? now + cfg_.timing.tREFI : min_ready;
    return;
  }

  const Cycle starve = cfg_.controller.starvation_cycles;

  // Anti-starvation: once the oldest request (queue position 0, arrival
  // order) has waited past the threshold, issue its next command ahead of
  // row hits — but only when it can actually issue; blocking the channel on
  // a not-yet-ready command would serialize the banks.
  Action head_act = Action::kNone;
  Cycle head_ready = kNever;
  bool head_cached = false;
  if (q_arrival_[0] + starve < now) {
    head_act = RequiredAction(0, head_ready);
    head_cached = true;
    if (head_ready <= now) {
      if (head_act == Action::kColumn) {
        IssueColumn(0, now);
      } else if (head_act == Action::kActivate) {
        IssueActivate(0, now);
      } else {
        IssuePrecharge(q_bank_[0], now);
      }
      PrepassNextSlot();
      return;
    }
    min_ready = std::min(min_ready, head_ready);
    // Fall through: serve other ready work while the starved head waits on
    // its bank timing.
  }

  // Per-bank pre-pass over the flat lanes: if no bank can issue at `now`,
  // the exact sleep target is already in min_ready and the queue is never
  // touched. The previous issue may have run it for this slot already.
  std::uint32_t due;
  if (kept) {
    due = prepass_due_;
    min_ready = std::min(min_ready, prepass_min_);
  } else {
    due = SummarizeBanks(now, min_ready);
  }
  if (due == 0) {
    sleep_until_ = min_ready == kNever
                       ? now + kCpuCyclesPerDramCycle
                       : std::max(min_ready, now + kCpuCyclesPerDramCycle);
    return;
  }

  // Writes are posted: demand reads get priority until writes pile up past
  // the watermark (standard write-drain policy; keeps read latency low
  // without starving fills/writebacks/update traffic).
  const bool drain_writes =
      2 * write_count_ > cfg_.controller.queue_depth;

  std::size_t open_pick = q_size;
  Action open_action = Action::kNone;
  std::size_t write_pick = q_size;

  for (std::size_t i = 0; i < q_size; ++i) {
    // A bank the pre-pass left unflagged cannot issue at `now`, and its
    // earliest-ready cycle is already folded into min_ready.
    if (!bank_due_[q_bank_[i]]) continue;

    Cycle ready = kNever;
    // The starved-head branch already computed the head's action this slot.
    const Action act = (i == 0 && head_cached)
                           ? (ready = head_ready, head_act)
                           : RequiredAction(i, ready);

    if (act == Action::kColumn && ready <= now) {
      if (q_write_[i] == 0 || drain_writes) {
        // FR-FCFS: the oldest ready row-hit (read-first) wins.
        IssueColumn(i, now);
        PrepassNextSlot();
        return;
      }
      if (write_pick == q_size) write_pick = i;
      continue;
    }
    if (act == Action::kPrecharge) {
      // Do not close a row another queued transaction still wants.
      if (open_reads_[q_bank_[i]] + open_writes_[q_bank_[i]] != 0) continue;
    }

    min_ready = std::min(min_ready, ready);
    if (ready > now) continue;
    if (act != Action::kColumn && open_pick == q_size) {
      open_pick = i;
      open_action = act;
    }
  }

  if (write_pick != q_size) {
    IssueColumn(write_pick, now);
    PrepassNextSlot();
    return;
  }
  if (open_pick != q_size) {
    if (open_action == Action::kActivate) {
      IssueActivate(open_pick, now);
    } else {
      IssuePrecharge(q_bank_[open_pick], now);
    }
    PrepassNextSlot();
    return;
  }

  sleep_until_ = min_ready == kNever
                     ? now + kCpuCyclesPerDramCycle
                     : std::max(min_ready, now + kCpuCyclesPerDramCycle);
}

template <class Self, class Ar>
void DramChannel::Io(Self& s, Ar& a) {
  a.Section("chan");
  a.Part(s.lanes_);

  std::size_t q_size = s.q_slot_.size();
  if constexpr (Ar::kReading) {
    q_size = a.SeqLen(1);
    if (q_size > s.slots_.size()) {
      throw ser::SerializeError("channel queue exceeds queue_depth");
    }
    s.q_bank_.resize(q_size);
    s.q_rank_.resize(q_size);
    s.q_row_.resize(q_size);
    s.q_write_.resize(q_size);
    s.q_arrival_.resize(q_size);
    s.q_slot_.resize(q_size);
  } else {
    a.U64(q_size);
  }
  for (std::size_t i = 0; i < q_size; ++i) {
    a.U32(s.q_bank_[i]);
    a.U32(s.q_rank_[i]);
    a.U64(s.q_row_[i]);
    a.U8(s.q_write_[i]);
    a.U64(s.q_arrival_[i]);
    a.U32(s.q_slot_[i]);
    const auto slot = static_cast<std::uint32_t>(s.q_slot_[i]);
    if constexpr (Ar::kReading) {
      if (slot >= s.slots_.size() || s.q_bank_[i] >= s.lanes_.num_banks()) {
        throw ser::SerializeError("channel queue entry out of range");
      }
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
    s.prepass_due_ = 0;
  } else {
    a.U64(s.prepass_due_ == 0 ? s.prepass_slot_ : kNever);
  }
  a.U64(s.prepass_saved_sleep_);
  a.U64(s.refresh_epoch_);
  a.I64(s.cont_slot_);
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
    // Rebuild the derived scan state from the restored queue. Replaying
    // AddRowDemand reproduces row_demand_ / demand_count_ / the active-bank
    // set and, because the lanes already hold the open rows, the open-row
    // direction counts; the packed summaries then recompute from those.
    // active_banks_ ordering may differ from the snapshotting run, which is
    // behavior-neutral: the pre-pass only accumulates a min and per-bank
    // due flags, and command selection walks the queue in arrival order.
    for (auto& rows : s.row_demand_) rows.clear();
    std::fill(s.demand_count_.begin(), s.demand_count_.end(), 0u);
    std::fill(s.open_reads_.begin(), s.open_reads_.end(), 0u);
    std::fill(s.open_writes_.begin(), s.open_writes_.end(), 0u);
    std::fill(s.bank_due_.begin(), s.bank_due_.end(), std::uint8_t{0});
    std::fill(s.bank_summary_.begin(), s.bank_summary_.end(),
              std::uint64_t{0});
    s.active_banks_.clear();
    std::fill(s.active_pos_.begin(), s.active_pos_.end(), -1);
    for (std::size_t i = 0; i < q_size; ++i) {
      s.AddRowDemand(s.q_bank_[i], s.q_row_[i], s.q_write_[i] != 0);
    }
    for (const std::uint32_t bank : s.active_banks_) {
      s.RefreshBankSummary(bank);
    }
    s.idle_hint_epoch_ = ~std::uint64_t{0};  // force the memo to recompute
  }
}

void DramChannel::Snapshot(ser::Writer& w) const { Io(*this, w); }
void DramChannel::Restore(ser::Reader& r) { Io(*this, r); }

Cycle DramChannel::NextEventHint(Cycle now) const {
  Cycle next = pending_done_min_;
  if (!q_slot_.empty()) {
    // Exact, not conservative: commands issue only on DRAM command-slot
    // boundaries and Tick returns on misalignment, so the poll term rounds
    // up to the next slot — the cycles in between are provable no-ops.
    next = std::min(next,
                    std::max({AlignUp(now + 1), next_cmd_slot_, sleep_until_}));
  } else {
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
    next = std::min(next, idle_hint_);
  }
  return next;
}

}  // namespace redcache
