// End-to-end telemetry guarantees over real simulations:
//  - attaching the sampler and the tracer does not perturb results,
//  - per-epoch deltas telescope to the final cumulative counters,
//  - the exported Chrome trace passes our schema validator.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "obs/epoch_sampler.hpp"
#include "obs/json.hpp"
#include "obs/telemetry_sink.hpp"
#include "obs/trace.hpp"
#include "sim/runner.hpp"

namespace redcache {
namespace {

RunSpec SmallSpec() {
  RunSpec spec;
  spec.policy = "RedCache";
  spec.workload = "LU";
  spec.scale = 0.02;
  spec.ignore_env_scale = true;
  return spec;
}

TEST(TelemetryIntegration, AttachingObserversDoesNotPerturbResults) {
  const RunResult plain = BuildSystem(SmallSpec())->Run();
  ASSERT_TRUE(plain.completed);

  obs::EpochSampler sampler(25000);
  obs::TraceBuffer trace;
  RunResult observed;
  {
    auto system = BuildSystem(SmallSpec());
    system->SetTelemetry(&sampler);
    obs::TraceScope scope(&trace);
    observed = system->Run();
  }
  ASSERT_TRUE(observed.completed);
  EXPECT_GT(sampler.epochs().size(), 1u);
  EXPECT_GT(trace.emitted(), 0u);

  // Byte-identical stats and identical timing: observability is read-only.
  EXPECT_EQ(observed.exec_cycles, plain.exec_cycles);
  EXPECT_EQ(observed.stats.ToString(), plain.stats.ToString());
}

TEST(TelemetryIntegration, EpochDeltasSumToFinalCounters) {
  obs::BufferTelemetrySink sink;
  obs::EpochSampler sampler(25000);
  sampler.SetSink(&sink, /*retain_epochs=*/true);
  auto system = BuildSystem(SmallSpec());
  system->SetTelemetry(&sampler);
  const RunResult r = system->Run();
  ASSERT_TRUE(r.completed);
  ASSERT_GT(sampler.epochs().size(), 1u);

  std::map<std::string, std::int64_t> totals;
  for (const obs::EpochRecord& e : sampler.epochs()) {
    for (const auto& [name, delta] : e.delta) totals[name] += delta;
  }
  ASSERT_FALSE(totals.empty());
  // Every counter the run also reports must telescope exactly; spot-check
  // that the load-bearing ones are actually present in the series.
  for (const auto& [name, total] : totals) {
    if (!r.stats.HasCounter(name)) continue;  // telemetry-only counters
    EXPECT_EQ(total, static_cast<std::int64_t>(r.stats.GetCounter(name)))
        << name;
  }
  EXPECT_TRUE(totals.count("ctrl.cache_hits"));
  EXPECT_TRUE(totals.count("hbm.bytes_transferred"));
  EXPECT_EQ(totals.at("core.refs"),
            static_cast<std::int64_t>(r.stats.GetCounter("core.refs")));

  // RedCache-specific gauges ride along in the final epoch.
  const obs::EpochRecord& last = sampler.epochs().back();
  EXPECT_TRUE(last.gauges.count("gamma"));
  EXPECT_TRUE(last.gauges.count("alpha"));
  EXPECT_TRUE(last.gauges.count("rcu_depth"));

  // And the streamed series parses, one epoch line per record.
  ASSERT_EQ(sink.lines.size(), sampler.epochs().size());
  std::int64_t streamed_refs = 0;
  for (const std::string& line : sink.lines) {
    obs::JsonValue doc;
    std::string err;
    ASSERT_TRUE(obs::ParseJson(line, doc, &err)) << err << "\n" << line;
    EXPECT_EQ(doc.Find("type")->string, "epoch");
    const obs::JsonValue* refs = doc.Find("delta")->Find("core.refs");
    ASSERT_NE(refs, nullptr) << line;
    streamed_refs += static_cast<std::int64_t>(refs->number);
  }
  EXPECT_EQ(streamed_refs, totals.at("core.refs"));
}

TEST(TelemetryIntegration, ChromeTraceFromRealRunValidates) {
  obs::TraceBuffer trace;
  {
    auto system = BuildSystem(SmallSpec());
    obs::TraceScope scope(&trace);
    const RunResult r = system->Run();
    ASSERT_TRUE(r.completed);
  }
  ASSERT_GT(trace.emitted(), 0u);

  const std::string json = obs::ChromeTraceJson(trace);
  std::string err;
  EXPECT_TRUE(obs::ValidateChromeTrace(json, &err)) << err;

  obs::JsonValue doc;
  ASSERT_TRUE(obs::ParseJson(json, doc, &err)) << err;
  bool saw_dram_cmd = false, saw_policy = false;
  for (const obs::JsonValue& e : doc.Find("traceEvents")->array) {
    const obs::JsonValue* ph = e.Find("ph");
    if (ph == nullptr || ph->string != "X") continue;
    const int pid = static_cast<int>(e.Find("pid")->number);
    if (pid == obs::kTraceDeviceHbm || pid == obs::kTraceDeviceMainMem) {
      saw_dram_cmd = true;
    }
    if (pid == obs::kTraceDevicePolicy) saw_policy = true;
  }
  EXPECT_TRUE(saw_dram_cmd) << "expected RD/WR/ACT/PRE events";
  EXPECT_TRUE(saw_policy) << "expected alpha/gamma/RCU policy events";
}

}  // namespace
}  // namespace redcache
