#include "obs/trace_spill.hpp"

#include <set>
#include <sstream>

#include "obs/json.hpp"

namespace redcache::obs {

namespace {
// Flush threshold: bounds writer memory regardless of run length while
// amortizing ofstream calls over many small event records.
constexpr std::size_t kFlushBytes = std::size_t{64} * 1024;
}  // namespace

TraceSpillWriter::TraceSpillWriter(const std::string& path)
    : file_(path), out_(file_) {
  Start();
}

TraceSpillWriter::TraceSpillWriter(std::ostream& out) : out_(out) { Start(); }

void TraceSpillWriter::Start() {
  ok_ = static_cast<bool>(out_);
  if (!ok_) return;
  buf_.reserve(kFlushBytes + 4096);
  Append("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
}

TraceSpillWriter::~TraceSpillWriter() {
  // Finish() not called (early exit path): close what we have so the file
  // is at least inspectable, though not valid JSON.
  if (ok_ && !finished_) FlushBuffer();
}

void TraceSpillWriter::Append(const std::string& chunk) {
  buf_ += chunk;
  if (buf_.size() >= kFlushBytes) FlushBuffer();
}

void TraceSpillWriter::FlushBuffer() {
  if (!buf_.empty()) {
    out_ << buf_;
    buf_.clear();
  }
  if (!out_) ok_ = false;
}

void TraceSpillWriter::AppendEvent(const TraceEvent& e) {
  tracks_.emplace(std::make_pair(e.device, TraceTrackTid(e)),
                  TraceTrackName(e));
  if (!first_) Append(",");
  first_ = false;
  Append(TraceEventJson(e));
}

void TraceSpillWriter::Consume(const TraceEvent& e) {
  if (!ok_ || finished_) return;
  spilled_++;
  AppendEvent(e);
}

bool TraceSpillWriter::Finish(const TraceBuffer& ring) {
  if (finished_) return ok_;
  finished_ = true;
  if (!ok_) return false;

  const std::vector<TraceEvent> retained = ring.Snapshot();
  for (const TraceEvent& e : retained) AppendEvent(e);

  // Metadata for every device and track the run ever touched — spilled-only
  // tracks included, which the whole-buffer writer cannot know about.
  std::set<std::uint8_t> devices;
  for (const auto& [key, name] : tracks_) devices.insert(key.first);
  for (const std::uint8_t d : devices) {
    std::ostringstream os;
    if (!first_) os << ",";
    first_ = false;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
       << static_cast<unsigned>(d) << ",\"tid\":0,\"args\":{\"name\":\""
       << TraceDeviceName(d) << "\"}}";
    Append(os.str());
  }
  for (const auto& [key, name] : tracks_) {
    std::ostringstream os;
    if (!first_) os << ",";
    first_ = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
       << static_cast<unsigned>(key.first) << ",\"tid\":" << key.second
       << ",\"args\":{\"name\":\"" << JsonEscape(name) << "\"}}";
    Append(os.str());
  }

  const std::uint64_t overwritten = ring.dropped();
  const std::uint64_t lost =
      overwritten >= spilled_ ? overwritten - spilled_ : 0;
  std::ostringstream os;
  os << "],\"otherData\":{\"generator\":\"redcache-obs\","
     << "\"time_unit\":\"cpu_cycle\",\"emitted\":" << ring.emitted()
     << ",\"spilled\":" << spilled_ << ",\"retained\":" << retained.size()
     << ",\"dropped\":" << lost << ",\"ring_capacity\":" << ring.capacity()
     << "}}";
  Append(os.str());
  Append("\n");
  FlushBuffer();
  if (file_.is_open()) file_.close();
  if (!out_) ok_ = false;
  return ok_;
}

std::string ChromeTraceJson(const TraceBuffer& trace) {
  std::ostringstream os;
  TraceSpillWriter(os).Finish(trace);
  return os.str();
}

}  // namespace redcache::obs
