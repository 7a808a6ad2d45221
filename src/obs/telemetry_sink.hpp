// Telemetry sinks: the NDJSON epoch record stream every --telemetry
// target receives, written as each epoch closes.
//
// A TelemetrySink is a line-oriented byte stream: the sampler writes one
// self-contained JSON object per line (NDJSON) the moment an epoch closes,
// so `--telemetry -` can be piped straight into `jq`, a dashboard, or
// scripts/check_telemetry.py while the simulation is still running, and a
// long serve run streams its series in bounded memory. The target's name
// selects nothing: a file, "-" (stdout) or a FIFO all get the same bytes.
//
// Record stream layout (schema 2):
//   {"type":"header", run identity, epoch pacing}          -- first line
//   {"type":"epoch","seq":K,"begin":..,"end":..,
//    "derived":{..},"gauges":{..},"delta":{..}}            -- per epoch
//   {"type":"end","exec_cycles":..,"num_epochs":..,
//    "totals":{counter: final cumulative value, ...}}      -- last line
// The end record's totals are the telescoping target: summing every epoch's
// delta for a counter must reproduce them exactly.
//
// Robustness contract: a target that cannot be opened fails the run before
// it starts; writes retry on EINTR, and a dead reader (EPIPE / any hard
// write error) silently disarms the sink instead of killing the run — a
// serve-mode drain stays graceful even when the telemetry consumer goes
// away first. Opening a sink ignores SIGPIPE process-wide (once) so the
// failure surfaces as a write error, not a signal.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/epoch_sampler.hpp"

namespace redcache::obs {

class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;

  /// Write one NDJSON record (`line` carries no trailing newline; the sink
  /// appends it) and flush, so a consumer sees the epoch immediately.
  /// Returns false once the sink is broken; further calls are no-ops.
  virtual bool WriteLine(const std::string& line) = 0;

  virtual bool ok() const = 0;

  /// Human-readable target for CLI summaries ("stdout", a path, ...).
  virtual std::string describe() const = 0;
};

/// File-descriptor sink covering the file, stdout ("-") and FIFO/pipe
/// backends. Buffering is bounded to the single line being written.
class FdTelemetrySink : public TelemetrySink {
 public:
  /// Open `path` for writing ("-" = stdout, unowned; a FIFO path blocks
  /// until a reader attaches, like any writer). Throws std::runtime_error
  /// when the path cannot be opened.
  static std::unique_ptr<FdTelemetrySink> OpenPath(const std::string& path);

  ~FdTelemetrySink() override;
  FdTelemetrySink(const FdTelemetrySink&) = delete;
  FdTelemetrySink& operator=(const FdTelemetrySink&) = delete;

  bool WriteLine(const std::string& line) override;
  bool ok() const override { return !broken_; }
  std::string describe() const override { return target_; }
  std::uint64_t lines_written() const { return lines_written_; }

 private:
  FdTelemetrySink(int fd, bool owns_fd, std::string target);

  int fd_;
  bool owns_fd_;
  bool broken_ = false;
  std::uint64_t lines_written_ = 0;
  std::string target_;
};

/// In-memory sink for tests and embedders.
class BufferTelemetrySink : public TelemetrySink {
 public:
  bool WriteLine(const std::string& line) override {
    lines.push_back(line);
    return true;
  }
  bool ok() const override { return true; }
  std::string describe() const override { return "buffer"; }

  std::vector<std::string> lines;
};

// --- NDJSON record builders (no trailing newline) --------------------------
std::string NdjsonHeaderLine(const TelemetryMeta& meta,
                             const EpochSampler& sampler);
std::string NdjsonEpochLine(std::uint64_t seq, const EpochRecord& e);
std::string NdjsonEndLine(const TelemetryMeta& meta,
                          const EpochSampler& sampler);

/// Glue for one run's telemetry: resolves the epoch pacing, owns the
/// sampler and, for a non-empty path, the sink. Callers attach sampler() to
/// the System, call Begin before the run and Close after it.
///
///   TelemetrySession session(path, epoch_spec, preset_epoch_cycles);
///   system.SetTelemetry(&session.sampler());
///   session.Begin(meta);            // NDJSON header
///   ... run ...                     // one epoch line per closed epoch
///   meta.exec_cycles = result.exec_cycles;
///   session.Close(meta);            // NDJSON end record
class TelemetrySession {
 public:
  /// Throws std::runtime_error when `path` cannot be opened. An empty
  /// path paces a sampler with no sink.
  TelemetrySession(const std::string& path, const EpochSpec& epoch,
                   Cycle preset_epoch_cycles);
  ~TelemetrySession();

  EpochSampler& sampler() { return *sampler_; }

  bool Begin(const TelemetryMeta& meta);
  bool Close(const TelemetryMeta& meta);

 private:
  std::unique_ptr<EpochSampler> sampler_;
  std::unique_ptr<TelemetrySink> sink_;
};

}  // namespace redcache::obs
