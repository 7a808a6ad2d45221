// Structured event tracing for DRAM command timelines and cache-policy
// decisions.
//
// Design constraints, in order:
//  1. Zero observable effect on simulation results — probes only *read*
//     simulator state, never mutate it.
//  2. Near-zero cost while disabled: every probe compiles to one predictable
//     branch on a thread-local pointer (see trace_macros.hpp), so the
//     FR-FCFS hot path stays within noise of the untraced build.
//  3. Bounded memory: events land in a fixed-capacity ring buffer that
//     keeps the most recent window and counts what it dropped.
//
// The buffer is thread-local by installation (TraceScope), so concurrent
// batch-engine simulations on worker threads trace independently — or not
// at all — without synchronization in the hot path.
//
// Export is Chrome trace-event JSON ("X" complete events, one track per
// (device, channel, bank) plus a policy track), which loads directly into
// Perfetto / chrome://tracing. Timestamps are simulated CPU cycles
// presented as microseconds (1 cycle == 1 us on the viewer axis).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace redcache::obs {

enum class TraceEventType : std::uint8_t {
  // DRAM command stream (device 0/1 tracks).
  kCmdRead = 0,
  kCmdWrite,
  kCmdActivate,
  kCmdPrecharge,
  kCmdRefresh,
  // Cache-policy decisions (policy track).
  kAlphaBypass,
  kRefreshBypass,
  kGammaInvalidate,
  kRcuServe,
  kRcuFlush,
  kFill,
  kVictimWriteback,
  kRetune,
};

/// Perfetto process id the event renders under.
enum : std::uint8_t {
  kTraceDeviceHbm = 0,
  kTraceDeviceMainMem = 1,
  kTraceDevicePolicy = 2,
};

/// RCU drain reasons carried in kRcuFlush's `arg`.
enum : std::uint64_t {
  kRcuFlushMerged = 0,   ///< piggybacked on a same-row data write
  kRcuFlushIdle = 1,     ///< channel transaction queue went empty
  kRcuFlushCapacity = 2, ///< queue full, oldest entry force-flushed
};

struct TraceEvent {
  Cycle cycle = 0;
  std::uint32_t dur = 1;  ///< duration in cycles (rendered slice width)
  TraceEventType type = TraceEventType::kCmdRead;
  std::uint8_t device = 0;
  std::uint8_t rank = 0;
  std::uint8_t bank = 0;
  std::uint16_t channel = 0;
  Addr addr = 0;
  std::uint64_t arg = 0;  ///< row for commands, type-specific otherwise
};

const char* ToString(TraceEventType t);

/// Receives events the ring is about to overwrite, oldest first — the hook
/// behind windowed full-run tracing (obs/trace_spill.hpp): the ring keeps
/// the most recent window in memory while the sink persists the history,
/// so emitted == spilled + retained and nothing is lost.
class TraceSpillSink {
 public:
  virtual ~TraceSpillSink() = default;
  virtual void Consume(const TraceEvent& e) = 0;
};

/// Fixed-capacity ring of the most recent events; capacity is rounded up
/// to a power of two. Overwrites the oldest entries when full — unless a
/// spill sink is attached, which receives each overwritten event first.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = kDefaultCapacity);

  void Emit(const TraceEvent& e) {
    if (spill_ != nullptr && head_ >= events_.size()) {
      spill_->Consume(events_[head_ & mask_]);
    }
    events_[head_ & mask_] = e;
    head_++;
  }

  /// Attach (or detach, with nullptr) the overwrite sink. The sink is
  /// borrowed and must outlive the last Emit.
  void SetSpill(TraceSpillSink* spill) { spill_ = spill; }
  TraceSpillSink* spill() const { return spill_; }

  /// Total events ever emitted (>= size()).
  std::uint64_t emitted() const { return head_; }
  /// Events currently retained.
  std::size_t size() const {
    return head_ < events_.size() ? static_cast<std::size_t>(head_)
                                  : events_.size();
  }
  /// Events overwritten because the ring was full.
  std::uint64_t dropped() const { return head_ - size(); }
  std::size_t capacity() const { return events_.size(); }

  /// Retained events, oldest first.
  std::vector<TraceEvent> Snapshot() const;

  void Clear() { head_ = 0; }

  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 18;

 private:
  std::vector<TraceEvent> events_;
  std::uint64_t mask_ = 0;
  std::uint64_t head_ = 0;
  TraceSpillSink* spill_ = nullptr;
};

/// The calling thread's active trace buffer; nullptr when tracing is off.
/// Declared here (not in trace_macros.hpp) so non-macro code can test it.
extern constinit thread_local TraceBuffer* tls_active_trace;
inline TraceBuffer* ActiveTrace() { return tls_active_trace; }

/// RAII installation of a buffer as this thread's active trace.
class TraceScope {
 public:
  explicit TraceScope(TraceBuffer* buffer) : prev_(tls_active_trace) {
    tls_active_trace = buffer;
  }
  ~TraceScope() { tls_active_trace = prev_; }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceBuffer* prev_;
};

/// Chrome trace-event serialization primitives, used by the one writer,
/// TraceSpillWriter (obs/trace_spill.hpp).
const char* TraceDeviceName(std::uint8_t device);
/// Stable per-track thread id: commands render one lane per (channel,
/// rank, bank), refreshes a rank-level lane, policy events lane 0.
std::uint32_t TraceTrackTid(const TraceEvent& e);
std::string TraceTrackName(const TraceEvent& e);
/// One complete ("X") trace-event object for `e`, no trailing separator.
std::string TraceEventJson(const TraceEvent& e);

/// Chrome trace-event JSON for the retained events (one "X" event per
/// TraceEvent plus metadata tracks): TraceSpillWriter over a string, with
/// nothing spilled. Loads in Perfetto / chrome://tracing.
std::string ChromeTraceJson(const TraceBuffer& trace);

/// Validate that `json` parses and every traceEvents element carries the
/// fields the Chrome trace-event schema requires ("name", "ph", "ts",
/// "pid", "tid"; "dur" for ph=="X"). Used by tests and CI on our own
/// exports; `error` describes the first violation.
bool ValidateChromeTrace(const std::string& json, std::string* error);

}  // namespace redcache::obs
