// Trace capture and replay: the RCTR binary trace format.
//
// Lets users run the simulator on real application traces (e.g. captured
// with a PIN/DynamoRIO tool) instead of the synthetic Table II suite, and
// lets the synthetic generators be snapshotted for exact cross-machine
// reproduction.
//
// File format (little-endian, versioned):
//   header:  magic "RCTR" | u32 version | u32 num_cores
//   records: u8 core | u8 flags(bit0=write) | u16 gap | u32 pad | u64 addr
//            (pad is written as zero and ignored on read)
// Records may interleave cores arbitrarily; replay demultiplexes them into
// per-core queues.
#pragma once

#include <csignal>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "workloads/trace.hpp"

namespace redcache {

/// Writes a trace file from any TraceSource (or record-by-record).
class TraceFileWriter {
 public:
  /// Throws std::runtime_error if the file cannot be created.
  TraceFileWriter(const std::string& path, std::uint32_t num_cores);
  ~TraceFileWriter();
  TraceFileWriter(const TraceFileWriter&) = delete;
  TraceFileWriter& operator=(const TraceFileWriter&) = delete;

  void Append(std::uint32_t core, const MemRef& ref);
  /// Drain `source` completely into the file (round-robin across cores).
  void CaptureAll(TraceSource& source);
  void Flush();

  std::uint64_t records_written() const { return records_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::uint64_t records_ = 0;
};

/// Replays an RCTR trace, read incrementally from a file descriptor: a
/// regular file (--replay), or a pipe, FIFO, socket or "-" for stdin
/// (serve mode). Records are read in chunks as cores ask for them, so a
/// run over a piped trace produces the same reference sequence (and
/// therefore the same stats) as a run over the same records on disk.
///
/// Drain semantics: on EOF, or when the installed stop flag becomes
/// non-zero (set from a SIGTERM/SIGINT handler; the read() is interrupted
/// via EINTR), the source stops ingesting and Next() drains the
/// already-buffered records before reporting exhaustion. The simulator then
/// retires its outstanding requests normally — a graceful drain, never a
/// mid-request abort.
class StreamTraceSource : public TraceSource {
 public:
  /// Opens `path` ("-" = stdin) and blocks until the RCTR header arrives.
  /// Throws std::runtime_error on open/format errors.
  explicit StreamTraceSource(const std::string& path);
  ~StreamTraceSource() override;
  StreamTraceSource(const StreamTraceSource&) = delete;
  StreamTraceSource& operator=(const StreamTraceSource&) = delete;

  /// Install a flag polled whenever a blocking read is interrupted; a
  /// non-zero value requests a graceful drain (treated like EOF). The flag
  /// must outlive the source. Typically set by a signal handler installed
  /// WITHOUT SA_RESTART so the read actually returns EINTR.
  void SetStopFlag(const volatile std::sig_atomic_t* stop) { stop_ = stop; }

  /// Blocks until a record for `core` arrives (buffering records for other
  /// cores along the way), then returns it; false once the stream has
  /// reached EOF / been stopped and this core's buffer is drained.
  bool Next(std::uint32_t core, MemRef& out) override;
  std::uint32_t num_cores() const override { return num_cores_; }
  /// Footprint bound of the records seen so far (grows as the trace is
  /// read; 0 right after construction).
  std::uint64_t footprint_bytes() const override { return footprint_; }
  std::string name() const override { return name_; }

  std::uint64_t total_records() const { return total_records_; }

  /// Live ingest feed for the telemetry pipeline: `serve.records`
  /// (cumulative, so epochs show the ingest rate) plus point-in-time
  /// gauges — buffered queue depth across cores (backpressure), EOF and
  /// stop-flag state, and the footprint bound seen so far.
  void SampleTelemetry(StatSet& out) const override;

  /// Checkpointing: a regular file can be reopened and re-read, so its
  /// read offset, per-core queues and ingest state cross the boundary and
  /// Restore seeks a freshly opened copy of the same file. Pipes, FIFOs,
  /// sockets and stdin cannot rewind and keep the throwing defaults.
  bool checkpointable() const override { return regular_; }
  void Snapshot(ser::Writer& w) const override;
  void Restore(ser::Reader& r) override;

 private:
  /// One blocking read; parses complete records into the per-core queues.
  /// Returns false when the stream is finished (EOF, stop, or error).
  bool Ingest();
  bool StopRequested() const { return stop_ != nullptr && *stop_ != 0; }
  void Push(const char* record);
  template <class Self, class Ar>
  static void Io(Self& s, Ar& a);

  int fd_ = -1;
  bool owns_fd_ = false;
  bool regular_ = false;          ///< a regular file, not stdin
  std::uint64_t file_bytes_ = 0;  ///< size at open (regular files only)
  bool eof_ = false;
  const volatile std::sig_atomic_t* stop_ = nullptr;
  std::string name_;
  std::uint32_t num_cores_ = 0;
  std::uint64_t footprint_ = 0;
  std::uint64_t total_records_ = 0;
  Addr lo_ = ~Addr{0};
  Addr hi_ = 0;
  std::vector<char> tail_;  // partial record carried between reads
  std::vector<std::deque<MemRef>> per_core_;
};

}  // namespace redcache
