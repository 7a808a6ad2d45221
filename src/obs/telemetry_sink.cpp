#include "obs/telemetry_sink.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "obs/adaptive_epoch.hpp"
#include "obs/json.hpp"

namespace redcache::obs {

namespace {

/// Six significant digits (%.6g), the precision of the derived rates.
std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Append `,"name":value` (no comma for the first member of an object).
template <class Int>
void AppendMember(std::string& out, bool& first, const std::string& name,
                  Int value) {
  if (!first) out += ',';
  first = false;
  out += '"';
  // Counter names are plain identifiers; escape only when one is not.
  const bool plain = std::all_of(name.begin(), name.end(), [](char c) {
    return static_cast<unsigned char>(c) >= 0x20 && c != '"' && c != '\\';
  });
  if (plain) {
    out += name;
  } else {
    out += JsonEscape(name);
  }
  out += "\":";
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

/// A dead telemetry reader must surface as a write error (EPIPE), not a
/// process-killing SIGPIPE, so a serve-mode drain stays graceful. Done once,
/// lazily, when the first fd sink opens — embedders that never stream are
/// untouched.
void IgnoreSigpipeOnce() {
  static const bool done = [] {
    std::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)done;
}

}  // namespace

FdTelemetrySink::FdTelemetrySink(int fd, bool owns_fd, std::string target)
    : fd_(fd), owns_fd_(owns_fd), target_(std::move(target)) {}

FdTelemetrySink::~FdTelemetrySink() {
  if (owns_fd_ && fd_ >= 0) ::close(fd_);
}

std::unique_ptr<FdTelemetrySink> FdTelemetrySink::OpenPath(
    const std::string& path) {
  IgnoreSigpipeOnce();
  if (path == "-") {
    return std::unique_ptr<FdTelemetrySink>(
        new FdTelemetrySink(STDOUT_FILENO, /*owns_fd=*/false, "stdout"));
  }
  // O_WRONLY|O_CREAT|O_TRUNC covers plain files and pre-made FIFOs alike
  // (opening a FIFO for writing blocks until a reader attaches, which is
  // the behavior any pipe writer has).
  int fd = -1;
  do {
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    throw std::runtime_error("cannot open telemetry sink '" + path +
                             "': " + std::strerror(errno));
  }
  return std::unique_ptr<FdTelemetrySink>(
      new FdTelemetrySink(fd, /*owns_fd=*/true, path));
}

bool FdTelemetrySink::WriteLine(const std::string& line) {
  if (broken_) return false;
  std::string buf = line;
  buf += '\n';
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n = ::write(fd_, buf.data() + off, buf.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // EPIPE (reader went away) or any other hard error: disarm the sink so
    // the simulation finishes its drain instead of dying mid-run.
    broken_ = true;
    return false;
  }
  lines_written_++;
  return true;
}

std::string NdjsonHeaderLine(const TelemetryMeta& meta,
                             const EpochSampler& sampler) {
  std::ostringstream os;
  os << "{\"type\":\"header\",\"schema\":2,\"workload\":\""
     << JsonEscape(meta.workload) << "\",\"preset\":\""
     << JsonEscape(meta.preset) << "\",\"policy\":\""
     << JsonEscape(meta.policy) << "\",\"mix\":\"" << JsonEscape(meta.mix)
     << "\",\"epoch_cycles\":" << sampler.epoch_cycles()
     << ",\"adaptive\":" << (sampler.adaptive() ? "true" : "false");
  if (sampler.adaptive()) {
    const AdaptiveEpochConfig& cfg = sampler.adaptive_controller()->config();
    os << ",\"epoch_min\":" << cfg.min_cycles
       << ",\"epoch_max\":" << cfg.max_cycles;
  }
  // Present only for checkpoint-restored runs: where epoch accounting
  // resumes, and the pre-restore cumulative counters the deltas exclude.
  // Validators check sum(deltas) + baseline == the end record's totals.
  if (sampler.restored()) {
    os << ",\"restored_at\":" << sampler.restored_at() << ",\"baseline\":{";
    bool first = true;
    for (const auto& [name, value] : sampler.baseline()) {
      if (!first) os << ",";
      first = false;
      os << "\"" << JsonEscape(name) << "\":" << value;
    }
    os << "}";
  }
  os << "}";
  return os.str();
}

std::string NdjsonEpochLine(std::uint64_t seq, const EpochRecord& e) {
  const DerivedMetrics d = DeriveMetrics(e);
  std::string out = "{\"type\":\"epoch\",\"seq\":" + std::to_string(seq) +
                    ",\"begin\":" + std::to_string(e.begin) +
                    ",\"end\":" + std::to_string(e.end) +
                    ",\"derived\":{\"hit_rate\":" + FormatDouble(d.hit_rate) +
                    ",\"bypass_rate\":" + FormatDouble(d.bypass_rate) +
                    ",\"bw_bytes_per_cycle\":" +
                    FormatDouble(d.bw_bytes_per_cycle) + "},\"gauges\":{";
  // About 40 bytes per member.
  out.reserve(out.size() + 40 * (e.gauges.size() + e.delta.size()) + 16);
  bool first = true;
  for (const auto& [name, value] : e.gauges) {
    AppendMember(out, first, name, value);
  }
  out += "},\"delta\":{";
  first = true;
  for (const auto& [name, value] : e.delta) {
    AppendMember(out, first, name, value);
  }
  out += "}}";
  return out;
}

std::string NdjsonEndLine(const TelemetryMeta& meta,
                          const EpochSampler& sampler) {
  std::ostringstream os;
  os << "{\"type\":\"end\",\"exec_cycles\":" << meta.exec_cycles
     << ",\"num_epochs\":" << sampler.total_epochs()
     << ",\"epoch_min_used\":" << sampler.min_width_used()
     << ",\"epoch_max_used\":" << sampler.max_width_used() << ",\"totals\":{";
  bool first = true;
  for (const auto& [name, value] : sampler.cumulative()) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(name) << "\":" << value;
  }
  os << "}}";
  return os.str();
}

TelemetrySession::TelemetrySession(const std::string& path,
                                   const EpochSpec& epoch,
                                   Cycle preset_epoch_cycles) {
  const Cycle base = epoch.cycles > 0 ? epoch.cycles : preset_epoch_cycles;
  sampler_ = std::make_unique<EpochSampler>(base);
  if (epoch.adaptive) {
    AdaptiveEpochConfig cfg;
    cfg.min_cycles =
        epoch.min_cycles > 0 ? epoch.min_cycles : std::max<Cycle>(base / 8, 1);
    cfg.max_cycles = epoch.max_cycles > 0 ? epoch.max_cycles : base * 4;
    if (cfg.max_cycles < cfg.min_cycles) cfg.max_cycles = cfg.min_cycles;
    sampler_->EnableAdaptive(cfg);
  }
  if (!path.empty()) {
    sink_ = FdTelemetrySink::OpenPath(path);
    // Streaming runs can be arbitrarily long (serve mode): do not retain
    // the per-epoch series in memory, the sink already has it.
    sampler_->SetSink(sink_.get(), /*retain_epochs=*/false);
  }
}

TelemetrySession::~TelemetrySession() = default;

bool TelemetrySession::Begin(const TelemetryMeta& meta) {
  if (!sink_) return true;
  return sink_->WriteLine(NdjsonHeaderLine(meta, *sampler_));
}

bool TelemetrySession::Close(const TelemetryMeta& meta) {
  if (!sink_) return true;
  return sink_->WriteLine(NdjsonEndLine(meta, *sampler_));
}

}  // namespace redcache::obs
