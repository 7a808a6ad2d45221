#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/json.hpp"

namespace redcache::obs {

constinit thread_local TraceBuffer* tls_active_trace = nullptr;

const char* ToString(TraceEventType t) {
  switch (t) {
    case TraceEventType::kCmdRead: return "RD";
    case TraceEventType::kCmdWrite: return "WR";
    case TraceEventType::kCmdActivate: return "ACT";
    case TraceEventType::kCmdPrecharge: return "PRE";
    case TraceEventType::kCmdRefresh: return "REF";
    case TraceEventType::kAlphaBypass: return "alpha_bypass";
    case TraceEventType::kRefreshBypass: return "refresh_bypass";
    case TraceEventType::kGammaInvalidate: return "gamma_invalidate";
    case TraceEventType::kRcuServe: return "rcu_serve";
    case TraceEventType::kRcuFlush: return "rcu_flush";
    case TraceEventType::kFill: return "fill";
    case TraceEventType::kVictimWriteback: return "victim_writeback";
    case TraceEventType::kRetune: return "retune";
  }
  return "?";
}

namespace {

std::size_t RoundUpPow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

bool IsCommand(TraceEventType t) {
  return t <= TraceEventType::kCmdRefresh;
}

const char* RcuFlushReason(std::uint64_t arg) {
  switch (arg) {
    case kRcuFlushMerged: return "merged";
    case kRcuFlushIdle: return "idle";
    case kRcuFlushCapacity: return "capacity";
    default: return "?";
  }
}

void AppendArgs(std::ostringstream& os, const TraceEvent& e) {
  char addr_buf[24];
  std::snprintf(addr_buf, sizeof(addr_buf), "0x%llx",
                static_cast<unsigned long long>(e.addr));
  os << "\"args\":{\"addr\":\"" << addr_buf << "\"";
  if (IsCommand(e.type)) {
    os << ",\"row\":" << e.arg;
  } else if (e.type == TraceEventType::kRcuFlush) {
    os << ",\"reason\":\"" << RcuFlushReason(e.arg) << "\"";
  } else {
    os << ",\"value\":" << e.arg;
  }
  os << "}";
}

}  // namespace

const char* TraceDeviceName(std::uint8_t device) {
  switch (device) {
    case kTraceDeviceHbm: return "hbm";
    case kTraceDeviceMainMem: return "ddr4";
    default: return "policy";
  }
}

// Commands render one lane per (channel, rank, bank) so overlapping bank
// activity never produces mis-nested slices.
std::uint32_t TraceTrackTid(const TraceEvent& e) {
  if (e.device == kTraceDevicePolicy) return 0;
  if (e.type == TraceEventType::kCmdRefresh) {
    return (std::uint32_t{e.channel} << 16) | 0xFF00u | e.rank;
  }
  return (std::uint32_t{e.channel} << 16) | (std::uint32_t{e.rank} << 8) |
         e.bank;
}

std::string TraceTrackName(const TraceEvent& e) {
  if (e.device == kTraceDevicePolicy) return "decisions";
  std::ostringstream os;
  os << "chan" << e.channel;
  if (e.type == TraceEventType::kCmdRefresh) {
    os << ".rank" << static_cast<unsigned>(e.rank) << ".refresh";
  } else {
    os << ".rank" << static_cast<unsigned>(e.rank) << ".bank"
       << static_cast<unsigned>(e.bank);
  }
  return os.str();
}

std::string TraceEventJson(const TraceEvent& e) {
  std::ostringstream os;
  os << "{\"name\":\"" << ToString(e.type) << "\",\"cat\":\""
     << (IsCommand(e.type) ? "dram" : "policy")
     << "\",\"ph\":\"X\",\"ts\":" << e.cycle
     << ",\"dur\":" << std::max<std::uint32_t>(e.dur, 1)
     << ",\"pid\":" << static_cast<unsigned>(e.device)
     << ",\"tid\":" << TraceTrackTid(e) << ",";
  AppendArgs(os, e);
  os << "}";
  return os.str();
}

TraceBuffer::TraceBuffer(std::size_t capacity) {
  const std::size_t cap = RoundUpPow2(std::max<std::size_t>(capacity, 2));
  events_.resize(cap);
  mask_ = cap - 1;
}

std::vector<TraceEvent> TraceBuffer::Snapshot() const {
  std::vector<TraceEvent> out;
  const std::size_t n = size();
  out.reserve(n);
  const std::uint64_t first = head_ - n;
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(events_[(first + i) & mask_]);
  }
  return out;
}

bool ValidateChromeTrace(const std::string& json, std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  JsonValue root;
  std::string parse_error;
  if (!ParseJson(json, root, &parse_error)) {
    return fail("not valid JSON: " + parse_error);
  }
  if (!root.is_object()) return fail("top level is not an object");
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return fail("missing traceEvents array");
  }
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& e = events->array[i];
    const std::string at = "traceEvents[" + std::to_string(i) + "] ";
    if (!e.is_object()) return fail(at + "is not an object");
    const JsonValue* name = e.Find("name");
    if (name == nullptr || !name->is_string()) {
      return fail(at + "missing string \"name\"");
    }
    const JsonValue* ph = e.Find("ph");
    if (ph == nullptr || !ph->is_string() || ph->string.size() != 1) {
      return fail(at + "missing one-character \"ph\"");
    }
    const JsonValue* pid = e.Find("pid");
    const JsonValue* tid = e.Find("tid");
    if (pid == nullptr || !pid->is_number() || tid == nullptr ||
        !tid->is_number()) {
      return fail(at + "missing numeric \"pid\"/\"tid\"");
    }
    if (ph->string == "M") continue;  // metadata carries no timestamp
    const JsonValue* ts = e.Find("ts");
    if (ts == nullptr || !ts->is_number()) {
      return fail(at + "missing numeric \"ts\"");
    }
    if (ph->string == "X") {
      const JsonValue* dur = e.Find("dur");
      if (dur == nullptr || !dur->is_number() || dur->number < 0) {
        return fail(at + "complete event missing non-negative \"dur\"");
      }
    }
  }
  return true;
}

}  // namespace redcache::obs
