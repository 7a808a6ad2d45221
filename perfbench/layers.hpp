// Benchmark-side decorators over the simulator's public layer interfaces.
//
// Each decorator forwards every virtual of the interface it wraps, unchanged
// and in order, and adds host-time and call counts around the calls that
// cross a layer boundary. A System built from decorated parts therefore
// simulates exactly what an undecorated one does; the benchmark checks this
// on every traced run by comparing the two runs' counters byte for byte.
//
// Durations are summed per (cell, layer) with call counts; no per-call span
// is recorded. Each timed call costs two steady_clock reads, which the
// benchmark calibrates (ClockReadNs) and subtracts when it derives self time.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "dramcache/controller.hpp"
#include "obs/telemetry_sink.hpp"
#include "obs/trace.hpp"
#include "sim/runner.hpp"
#include "workloads/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Summed host time and call count of one layer entry point.
struct CallStat {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
};

/// What the decorators of one System measured.
struct LayerCounts {
  CallStat tick;    ///< MemController::Tick (dramcache: policy + core + dram)
  CallStat submit;  ///< MemController::SubmitRead / SubmitWriteback
  CallStat hint;    ///< MemController::NextEventHint
  CallStat next;    ///< TraceSource::Next (workloads)
  /// MemController::read_completions calls. System::Run makes exactly one
  /// per event-loop visit, so this equals RunResult::ticks_executed.
  std::uint64_t visits = 0;
};

/// MemController decorator: times Tick, Submit* and NextEventHint, counts
/// event-loop visits, forwards everything else (including underlying(),
/// which the System's energy model follows to the concrete policy).
class TimedController final : public redcache::MemController {
 public:
  TimedController(std::unique_ptr<redcache::MemController> inner,
                  LayerCounts& counts)
      : inner_(std::move(inner)), counts_(counts) {}

  const char* name() const override { return inner_->name(); }
  bool CanAcceptRead() const override { return inner_->CanAcceptRead(); }
  bool CanAcceptWriteback() const override {
    return inner_->CanAcceptWriteback();
  }
  void SubmitRead(redcache::Addr addr, std::uint64_t tag,
                  redcache::Cycle now) override {
    const auto t0 = Clock::now();
    inner_->SubmitRead(addr, tag, now);
    Add(counts_.submit, t0);
  }
  void SubmitWriteback(redcache::Addr addr, redcache::Cycle now) override {
    const auto t0 = Clock::now();
    inner_->SubmitWriteback(addr, now);
    Add(counts_.submit, t0);
  }
  redcache::Cycle Tick(redcache::Cycle now) override {
    const auto t0 = Clock::now();
    const redcache::Cycle wake = inner_->Tick(now);
    Add(counts_.tick, t0);
    return wake;
  }
  std::vector<redcache::ReadCompletion>& read_completions() override {
    ++counts_.visits;
    return inner_->read_completions();
  }
  redcache::Cycle NextEventHint(redcache::Cycle now) const override {
    const auto t0 = Clock::now();
    const redcache::Cycle wake = inner_->NextEventHint(now);
    Add(counts_.hint, t0);
    return wake;
  }
  void ExportStats(redcache::StatSet& stats) const override {
    inner_->ExportStats(stats);
  }
  bool Idle() const override { return inner_->Idle(); }
  void SampleTelemetry(redcache::StatSet& out) const override {
    inner_->SampleTelemetry(out);
  }
  void SetVerifySink(redcache::VerifySink* sink) override {
    inner_->SetVerifySink(sink);
  }
  void SetTenantAccounting(redcache::tenant::TenantAccounting* acct) override {
    inner_->SetTenantAccounting(acct);
  }
  const redcache::MemController* underlying() const override {
    return inner_->underlying();
  }
  void Snapshot(redcache::ser::Writer& w) const override {
    inner_->Snapshot(w);
  }
  void Restore(redcache::ser::Reader& r) override { inner_->Restore(r); }
  void SetFunctionalTiming(redcache::Cycle fixed_latency) override {
    inner_->SetFunctionalTiming(fixed_latency);
  }

 private:
  void Add(CallStat& s, Clock::time_point t0) const {
    s.ns += NsBetween(t0, Clock::now());
    ++s.calls;
  }

  std::unique_ptr<redcache::MemController> inner_;
  LayerCounts& counts_;
};

/// TraceSource decorator: times Next, forwards everything else.
class TimedTrace final : public redcache::TraceSource {
 public:
  TimedTrace(std::unique_ptr<redcache::TraceSource> inner, CallStat& next)
      : inner_(std::move(inner)), next_(next) {}

  bool Next(std::uint32_t core, redcache::MemRef& out) override {
    const auto t0 = Clock::now();
    const bool more = inner_->Next(core, out);
    next_.ns += NsBetween(t0, Clock::now());
    ++next_.calls;
    return more;
  }
  std::uint32_t num_cores() const override { return inner_->num_cores(); }
  std::uint64_t footprint_bytes() const override {
    return inner_->footprint_bytes();
  }
  std::string name() const override { return inner_->name(); }
  void SampleTelemetry(redcache::StatSet& out) const override {
    inner_->SampleTelemetry(out);
  }
  bool checkpointable() const override { return inner_->checkpointable(); }
  void Snapshot(redcache::ser::Writer& w) const override {
    inner_->Snapshot(w);
  }
  void Restore(redcache::ser::Reader& r) override { inner_->Restore(r); }

 private:
  std::unique_ptr<redcache::TraceSource> inner_;
  CallStat& next_;
};

/// TelemetrySink decorator: times and counts WriteLine.
class TimedTelemetrySink final : public redcache::obs::TelemetrySink {
 public:
  explicit TimedTelemetrySink(redcache::obs::TelemetrySink& inner)
      : inner_(inner) {}

  bool WriteLine(const std::string& line) override {
    const auto t0 = Clock::now();
    const bool ok = inner_.WriteLine(line);
    lines.ns += NsBetween(t0, Clock::now());
    ++lines.calls;
    return ok;
  }
  bool ok() const override { return inner_.ok(); }
  std::string describe() const override { return inner_.describe(); }

  CallStat lines;

 private:
  redcache::obs::TelemetrySink& inner_;
};

/// Trace-ring overwrite sink that only counts what the ring spills.
class CountingSpill final : public redcache::obs::TraceSpillSink {
 public:
  void Consume(const redcache::obs::TraceEvent& /*e*/) override { ++spilled; }
  std::uint64_t spilled = 0;
};

/// BuildSystem(spec) with the controller wrapped in a TimedController and
/// every Table II trace (each tenant's, for a mix) in a TimedTrace. Serve,
/// verify and restore specs are rejected: the benchmark never runs them.
std::unique_ptr<redcache::System> BuildTimedSystem(const redcache::RunSpec& spec,
                                                   LayerCounts& counts);

/// Host cost of one steady_clock::now() call in ns (median of batches).
double ClockReadNs();

/// FNV-1a digest of a result's simulated outcome: exec_cycles and every
/// counter, by name. Two runs that simulate the same thing give equal
/// digests; event-loop economics (ticks, skips) are not part of it.
std::string StatsDigest(const redcache::StatSet& stats,
                        std::uint64_t exec_cycles);

}  // namespace perfbench
