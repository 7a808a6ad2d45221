// Transparency self-test for the benchmark's decorators (layers.hpp): a
// decorated System must simulate exactly what BuildSystem's does, count one
// visit per event-loop iteration, and forward the interfaces it wraps.
// Exits non-zero on the first failed check. run.py --self-test runs it.
#include <cstdio>
#include <string>

#include "layers.hpp"
#include "obs/telemetry_sink.hpp"

namespace {

using namespace redcache;

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

RunSpec SmallSpec(const std::string& policy, const std::string& workload) {
  RunSpec s;
  s.policy = policy;
  s.workload = workload;
  s.scale = 0.02;
  s.ignore_env_scale = true;
  s.seed = 7;
  return s;
}

void CheckTransparent(const std::string& label, const RunSpec& spec,
                      Cycle functional_latency = 0) {
  auto plain_sys = BuildSystem(spec);
  perfbench::LayerCounts counts;
  auto timed_sys = perfbench::BuildTimedSystem(spec, counts);
  if (functional_latency > 0) {
    plain_sys->SetFunctionalTiming(functional_latency);
    timed_sys->SetFunctionalTiming(functional_latency);
  }
  const RunResult plain = plain_sys->Run();
  const RunResult timed = timed_sys->Run();
  Check(plain.completed && timed.completed, label + ": both runs complete");
  Check(plain.stats.ToString() == timed.stats.ToString() &&
            plain.exec_cycles == timed.exec_cycles,
        label + ": decorated counters byte-identical");
  Check(perfbench::StatsDigest(plain.stats, plain.exec_cycles) ==
            perfbench::StatsDigest(timed.stats, timed.exec_cycles),
        label + ": digests equal");
  Check(plain.ticks_executed == timed.ticks_executed &&
            counts.visits == timed.ticks_executed,
        label + ": visits == ticks_executed");
  Check(plain.energy.SystemNj() == timed.energy.SystemNj() &&
            plain.energy.HbmCacheNj() == timed.energy.HbmCacheNj(),
        label + ": energy equal (underlying() forwarded)");
  Check(counts.tick.calls > 0 && counts.next.calls > 0 &&
            counts.submit.calls > 0,
        label + ": layer calls counted");
  Check(counts.next.calls >= plain.stats.GetCounter("core.refs"),
        label + ": every reference came through Next");
}

void CheckDigestSensitivity() {
  StatSet a;
  a.Counter("x") = 1;
  StatSet b = a;
  b.Counter("x") = 2;
  StatSet c = a;
  c.Counter("y") = 0;
  Check(perfbench::StatsDigest(a, 5) == perfbench::StatsDigest(a, 5),
        "digest: deterministic");
  Check(perfbench::StatsDigest(a, 5) != perfbench::StatsDigest(b, 5),
        "digest: counter value changes it");
  Check(perfbench::StatsDigest(a, 5) != perfbench::StatsDigest(c, 5),
        "digest: added counter changes it");
  Check(perfbench::StatsDigest(a, 5) != perfbench::StatsDigest(a, 6),
        "digest: exec_cycles changes it");
}

void CheckSinkForwarding() {
  obs::BufferTelemetrySink buffer;
  perfbench::TimedTelemetrySink sink(buffer);
  sink.WriteLine("{\"a\":1}");
  sink.WriteLine("{\"b\":2}");
  Check(buffer.lines.size() == 2 && buffer.lines[1] == "{\"b\":2}" &&
            sink.lines.calls == 2 && sink.ok(),
        "telemetry sink: lines forwarded and counted");
}

}  // namespace

int main() {
  CheckDigestSensitivity();
  CheckSinkForwarding();
  Check(perfbench::ClockReadNs() > 0.0, "clock read cost is positive");
  CheckTransparent("RedCache/LU", SmallSpec("RedCache", "LU"));
  CheckTransparent("No-HBM/RDX", SmallSpec("No-HBM", "RDX"));
  RunSpec mix = SmallSpec("RedCache", "LU");
  mix.mix = tenant::MixSpec::Parse("LU:1,HIST:1");
  CheckTransparent("RedCache/mix", mix);
  CheckTransparent("RedCache/RDX functional", SmallSpec("RedCache", "RDX"), 40);
  std::printf("%s\n", failures == 0 ? "all checks passed" : "checks FAILED");
  return failures == 0 ? 0 : 1;
}
