// Incremental spill-to-disk writer for windowed full-run tracing, and the
// one Chrome trace-event serializer (ChromeTraceJson is this writer over a
// string stream, finished at once on a ring with nothing spilled).
//
// The TraceBuffer ring alone forces a choice: size it for the whole run
// (unbounded memory on a full Table II cell or a long serve run) or keep a
// window and lose the history. The spill writer removes the choice — attach
// it as the ring's overwrite sink and every event the window would discard
// is appended to a Chrome trace-event JSON file instead, oldest first, in
// bounded (~64 KiB buffered) memory. At end of run, Finish() appends the
// still-retained window, the process/thread metadata for every track ever
// seen (including spilled-only tracks), and an otherData accounting block:
//
//   {"displayTimeUnit":"ms","traceEvents":[ <spilled...>, <retained...>,
//    <metadata "M" records> ],"otherData":{"generator":...,"emitted":N,
//    "spilled":M,"retained":K,"dropped":0,"ring_capacity":C}}
//
// Metadata records may appear anywhere in a trace-event array, so placing
// them after the events keeps the file appendable; otherData comes last for
// the same reason. emitted == spilled + retained and dropped == 0 whenever
// the writer was attached before the first overwrite — that equality is the
// CI memory-cap proof that a full run was traced through a small window.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <utility>

#include "obs/trace.hpp"

namespace redcache::obs {

class TraceSpillWriter : public TraceSpillSink {
 public:
  /// Opens `path` and writes the array prefix. Check ok() — a failed open
  /// makes every later call a no-op rather than an error cascade.
  explicit TraceSpillWriter(const std::string& path);
  /// Writes to `out`, which must outlive the writer.
  explicit TraceSpillWriter(std::ostream& out);
  ~TraceSpillWriter() override;

  TraceSpillWriter(const TraceSpillWriter&) = delete;
  TraceSpillWriter& operator=(const TraceSpillWriter&) = delete;

  /// Ring overwrite hook: append one event (buffered).
  void Consume(const TraceEvent& e) override;

  /// Append `ring`'s retained window, the track metadata, and the closing
  /// otherData block, then flush (and close a file the writer opened).
  /// Idempotent; false on I/O error or when the writer never opened.
  bool Finish(const TraceBuffer& ring);

  bool ok() const { return ok_; }
  std::uint64_t spilled() const { return spilled_; }

 private:
  void AppendEvent(const TraceEvent& e);
  void Append(const std::string& chunk);
  void Start();
  void FlushBuffer();

  std::ofstream file_;  ///< the path constructor's file
  std::ostream& out_;
  std::string buf_;
  bool ok_ = false;
  bool first_ = true;
  bool finished_ = false;
  std::uint64_t spilled_ = 0;
  /// (device, tid) -> track name, for the end-of-run metadata records.
  std::map<std::pair<std::uint8_t, std::uint32_t>, std::string> tracks_;
};

}  // namespace redcache::obs
