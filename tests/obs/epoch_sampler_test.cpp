#include "obs/epoch_sampler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/adaptive_epoch.hpp"
#include "obs/json.hpp"
#include "obs/telemetry_sink.hpp"

namespace redcache::obs {
namespace {

StatSet Snap(std::uint64_t hits, std::uint64_t misses, std::uint64_t depth) {
  StatSet s;
  s.Counter("ctrl.cache_hits") = hits;
  s.Counter("ctrl.cache_misses") = misses;
  s.Counter("gauge.rcu_depth") = depth;
  return s;
}

TEST(EpochSampler, DueFollowsActualSampleTime) {
  EpochSampler sampler(100);
  EXPECT_FALSE(sampler.Due(99));
  EXPECT_TRUE(sampler.Due(100));
  // Event-paced loop overshoots to 250; the next epoch is 250+100, not 300.
  sampler.Sample(250, Snap(1, 0, 0));
  EXPECT_FALSE(sampler.Due(300));
  EXPECT_TRUE(sampler.Due(350));
}

TEST(EpochSampler, HugeEpochAfterRestoreNeverWrapsDue) {
  // restored_at + epoch saturates: it must not wrap to a cycle in the past
  // and make every later cycle an epoch boundary.
  EpochSampler sampler(~Cycle{0});
  sampler.SeedBaseline(100000, Snap(1, 0, 0));
  EXPECT_FALSE(sampler.Due(100001));
  EXPECT_EQ(sampler.next_due(), ~Cycle{0});
  sampler.Sample(200000, Snap(2, 0, 0));
  EXPECT_FALSE(sampler.Due(200001));
}

TEST(EpochSampler, SplitsGaugesFromDeltas) {
  EpochSampler sampler(100);
  sampler.Sample(100, Snap(10, 5, 7));
  sampler.Sample(200, Snap(25, 6, 3));
  const auto& epochs = sampler.epochs();
  ASSERT_EQ(epochs.size(), 2u);
  EXPECT_EQ(epochs[0].begin, 0u);
  EXPECT_EQ(epochs[0].end, 100u);
  EXPECT_EQ(epochs[0].delta.at("ctrl.cache_hits"), 10);
  EXPECT_EQ(epochs[1].delta.at("ctrl.cache_hits"), 15);
  EXPECT_EQ(epochs[1].delta.at("ctrl.cache_misses"), 1);
  // Gauges are raw point-in-time values, never differenced, prefix stripped.
  EXPECT_EQ(epochs[0].gauges.at("rcu_depth"), 7u);
  EXPECT_EQ(epochs[1].gauges.at("rcu_depth"), 3u);
  EXPECT_EQ(epochs[1].delta.count("gauge.rcu_depth"), 0u);
}

TEST(EpochSampler, DeltasMayGoNegative) {
  // Legacy gauge-like counters (ctrl.resident_lines) can shrink.
  EpochSampler sampler(10);
  StatSet a, b;
  a.Counter("ctrl.resident_lines") = 100;
  b.Counter("ctrl.resident_lines") = 40;
  sampler.Sample(10, a);
  sampler.Sample(20, b);
  EXPECT_EQ(sampler.epochs()[1].delta.at("ctrl.resident_lines"), -60);
}

TEST(EpochSampler, DeltasTelescopeToFinalCumulative) {
  EpochSampler sampler(50);
  std::uint64_t hits = 0;
  Cycle now = 0;
  for (int i = 1; i <= 7; ++i) {
    now += 50 + static_cast<Cycle>(i);  // irregular epoch spans
    hits += static_cast<std::uint64_t>(i * i);
    sampler.Sample(now, Snap(hits, 2 * hits, 1));
  }
  sampler.Finalize(now + 13, Snap(hits + 5, 2 * hits, 0));

  std::int64_t sum = 0;
  for (const EpochRecord& e : sampler.epochs()) {
    sum += e.delta.at("ctrl.cache_hits");
  }
  EXPECT_EQ(sum, static_cast<std::int64_t>(hits + 5));
  // Epochs tile the run: each begins where the previous ended.
  for (std::size_t i = 1; i < sampler.epochs().size(); ++i) {
    EXPECT_EQ(sampler.epochs()[i].begin, sampler.epochs()[i - 1].end);
  }
}

TEST(EpochSampler, FinalizeOnSampleBoundaryRefreshesGaugesOnly) {
  EpochSampler sampler(100);
  sampler.Sample(100, Snap(10, 0, 9));
  sampler.Finalize(100, Snap(10, 0, 0));
  ASSERT_EQ(sampler.epochs().size(), 1u);
  EXPECT_EQ(sampler.epochs()[0].gauges.at("rcu_depth"), 0u);
  EXPECT_EQ(sampler.epochs()[0].delta.at("ctrl.cache_hits"), 10);
}

TEST(EpochSampler, CounterAppearingMidRunDeltasFromZero) {
  EpochSampler sampler(10);
  StatSet first;
  first.Counter("ctrl.cache_hits") = 1;
  sampler.Sample(10, first);
  StatSet second = first;
  second.Counter("late.counter") = 5;
  sampler.Sample(20, second);
  EXPECT_EQ(sampler.epochs()[0].delta.count("late.counter"), 0u);
  EXPECT_EQ(sampler.epochs()[1].delta.at("late.counter"), 5);
}

/// Parse one NDJSON record; fails the test on malformed JSON.
JsonValue ParseLine(const std::string& line) {
  JsonValue doc;
  std::string err;
  EXPECT_TRUE(ParseJson(line, doc, &err)) << err << "\n" << line;
  return doc;
}

TEST(TelemetryJson, ParsesAndCarriesDerivedMetrics) {
  BufferTelemetrySink sink;
  EpochSampler sampler(100);
  sampler.SetSink(&sink, /*retain_epochs=*/false);
  StatSet s;
  s.Counter("ctrl.cache_hits") = 30;
  s.Counter("ctrl.cache_misses") = 10;
  s.Counter("ctrl.alpha_bypasses") = 60;
  s.Counter("hbm.bytes_transferred") = 6400;
  s.Counter("gauge.gamma") = 8;
  sampler.Sample(100, s);

  TelemetryMeta meta;
  meta.workload = "LU";
  meta.preset = "eval";
  meta.policy = "RedCache";
  meta.exec_cycles = 100;
  sink.WriteLine(NdjsonEndLine(meta, sampler));
  ASSERT_EQ(sink.lines.size(), 2u);

  const JsonValue e = ParseLine(sink.lines[0]);
  EXPECT_EQ(e.Find("type")->string, "epoch");
  const JsonValue* derived = e.Find("derived");
  ASSERT_NE(derived, nullptr);
  EXPECT_DOUBLE_EQ(derived->Find("hit_rate")->number, 0.3);
  EXPECT_DOUBLE_EQ(derived->Find("bypass_rate")->number, 0.6);
  EXPECT_DOUBLE_EQ(derived->Find("bw_bytes_per_cycle")->number, 64.0);
  EXPECT_DOUBLE_EQ(e.Find("gauges")->Find("gamma")->number, 8.0);
  EXPECT_DOUBLE_EQ(e.Find("delta")->Find("ctrl.cache_hits")->number, 30.0);

  const JsonValue end = ParseLine(sink.lines[1]);
  EXPECT_DOUBLE_EQ(end.Find("num_epochs")->number, 1.0);
  EXPECT_DOUBLE_EQ(end.Find("exec_cycles")->number, 100.0);
}

TEST(TelemetryCsv, HeaderUnionInNaturalOrderWithEmptyCells) {
  // A counter or gauge that first appears in epoch 2 is absent from epoch
  // 1's record, not a zero-filled column.
  BufferTelemetrySink sink;
  EpochSampler sampler(10);
  sampler.SetSink(&sink, /*retain_epochs=*/false);
  StatSet a;
  a.Counter("hbm.chan2.activates") = 1;
  sampler.Sample(10, a);
  StatSet b = a;
  b.Counter("hbm.chan10.activates") = 4;  // appears only in epoch 2
  b.Counter("gauge.rcu_depth") = 2;
  sampler.Sample(20, b);
  ASSERT_EQ(sink.lines.size(), 2u);

  EXPECT_EQ(sink.lines[0],
            "{\"type\":\"epoch\",\"seq\":0,\"begin\":0,\"end\":10,"
            "\"derived\":{\"hit_rate\":0,\"bypass_rate\":0,"
            "\"bw_bytes_per_cycle\":0},\"gauges\":{},"
            "\"delta\":{\"hbm.chan2.activates\":1}}");
  const JsonValue e2 = ParseLine(sink.lines[1]);
  EXPECT_DOUBLE_EQ(e2.Find("begin")->number, 10.0);
  EXPECT_DOUBLE_EQ(e2.Find("gauges")->Find("rcu_depth")->number, 2.0);
  EXPECT_DOUBLE_EQ(e2.Find("delta")->Find("hbm.chan2.activates")->number,
                   0.0);
  EXPECT_DOUBLE_EQ(e2.Find("delta")->Find("hbm.chan10.activates")->number,
                   4.0);
}

TEST(TelemetryCsv, MetaLineCarriesPolicyAndEscapesMixDescriptor) {
  EpochSampler sampler(10);
  TelemetryMeta meta;
  meta.workload = "serve:a \"b\"\\c.rctr";  // a path may hold any byte
  meta.policy = "RedCache";
  meta.mix = "LU:2,RDX:1@8/offset";
  const std::string header = NdjsonHeaderLine(meta, sampler);
  EXPECT_NE(header.find("\"workload\":\"serve:a \\\"b\\\"\\\\c.rctr\""),
            std::string::npos)
      << header;
  const JsonValue doc = ParseLine(header);
  EXPECT_EQ(doc.Find("workload")->string, meta.workload);
  EXPECT_EQ(doc.Find("policy")->string, "RedCache");
  EXPECT_EQ(doc.Find("arch"), nullptr);
  EXPECT_EQ(doc.Find("mix")->string, "LU:2,RDX:1@8/offset");
}

TEST(TelemetryJson, MetaCarriesPolicyAndMix) {
  EpochSampler sampler(10);
  TelemetryMeta meta;
  meta.policy = "Banshee";
  meta.mix = "LU:1,FT:1/interleave";
  const JsonValue doc = ParseLine(NdjsonHeaderLine(meta, sampler));
  EXPECT_EQ(doc.Find("type")->string, "header");
  EXPECT_EQ(doc.Find("policy")->string, "Banshee");
  EXPECT_EQ(doc.Find("mix")->string, "LU:1,FT:1/interleave");
}

TEST(ParseEpochSpec, AcceptsFixedAutoAndBandedForms) {
  EpochSpec spec;
  ASSERT_TRUE(ParseEpochSpec("250000", spec));
  EXPECT_EQ(spec.cycles, 250000u);
  EXPECT_FALSE(spec.adaptive);

  ASSERT_TRUE(ParseEpochSpec("auto", spec));
  EXPECT_TRUE(spec.adaptive);
  EXPECT_EQ(spec.cycles, 0u);  // base resolves from the preset
  EXPECT_EQ(spec.min_cycles, 0u);
  EXPECT_EQ(spec.max_cycles, 0u);

  ASSERT_TRUE(ParseEpochSpec("auto:1000:8000", spec));
  EXPECT_TRUE(spec.adaptive);
  EXPECT_EQ(spec.min_cycles, 1000u);
  EXPECT_EQ(spec.max_cycles, 8000u);

  EpochSpec untouched;
  EXPECT_FALSE(ParseEpochSpec("", untouched));
  EXPECT_FALSE(ParseEpochSpec("0", untouched));
  EXPECT_FALSE(ParseEpochSpec("fast", untouched));
  EXPECT_FALSE(ParseEpochSpec("auto:10", untouched));
  EXPECT_FALSE(ParseEpochSpec("auto:8000:1000", untouched));  // inverted band
  EXPECT_FALSE(ParseEpochSpec("auto:10:20x", untouched));
  // Whole decimal digits only: no sign, blank, or wrap past 2^64-1.
  EXPECT_FALSE(ParseEpochSpec("-1", untouched));
  EXPECT_FALSE(ParseEpochSpec("+5000", untouched));
  EXPECT_FALSE(ParseEpochSpec(" 5000", untouched));
  EXPECT_FALSE(ParseEpochSpec("18446744073709551616", untouched));
  EXPECT_FALSE(ParseEpochSpec("auto:5:-1", untouched));
  EXPECT_FALSE(ParseEpochSpec("auto: 5:10", untouched));
  EXPECT_FALSE(untouched.adaptive);
  EXPECT_EQ(untouched.cycles, 0u);

  ASSERT_TRUE(ParseEpochSpec("18446744073709551615", spec));
  EXPECT_EQ(spec.cycles, ~Cycle{0});
}

// A StatSet whose derived rates the adaptive controller reads: hit_rate is
// hits / (hits + misses + bypasses).
StatSet RateSnap(std::uint64_t hits, std::uint64_t misses) {
  StatSet s;
  s.Counter("ctrl.cache_hits") = hits;
  s.Counter("ctrl.cache_misses") = misses;
  return s;
}

TEST(AdaptiveEpoch, ShrinksAcrossPhaseChangeAndGrowsBackWhenFlat) {
  EpochSampler sampler(1000);
  AdaptiveEpochConfig cfg;
  cfg.min_cycles = 125;
  cfg.max_cycles = 4000;
  cfg.stable_epochs_to_grow = 2;
  sampler.EnableAdaptive(cfg);

  // Two identical epochs seed the controller with a flat baseline
  // (hit rate 0.5): prev is seeded on the first, score 0 on the second.
  Cycle now = 1000;
  std::uint64_t hits = 500, misses = 500;
  sampler.Sample(now, RateSnap(hits, misses));
  now += sampler.epoch_cycles();
  hits += 500;
  misses += 500;
  sampler.Sample(now, RateSnap(hits, misses));
  const Cycle before_phase = sampler.epoch_cycles();

  // Phase change: the next epoch is all misses, hit rate 0.5 -> 0.
  now += sampler.epoch_cycles();
  misses += 1000;
  sampler.Sample(now, RateSnap(hits, misses));
  EXPECT_LT(sampler.epoch_cycles(), before_phase);
  ASSERT_NE(sampler.adaptive_controller(), nullptr);
  EXPECT_GE(sampler.adaptive_controller()->shrinks(), 1u);

  // Flat tail: all-miss epochs forever. After enough stable epochs the
  // width doubles back up to the clamp.
  for (int i = 0; i < 20; ++i) {
    now += sampler.epoch_cycles();
    misses += 1000;
    sampler.Sample(now, RateSnap(hits, misses));
  }
  EXPECT_EQ(sampler.epoch_cycles(), cfg.max_cycles);
  EXPECT_GE(sampler.adaptive_controller()->grows(), 1u);
  EXPECT_LE(sampler.min_width_used(), before_phase / 2);
  EXPECT_EQ(sampler.max_width_used(), cfg.max_cycles);
}

TEST(AdaptiveEpoch, RecordsCarryWidthGaugeOnlyWhenAdaptive) {
  EpochSampler fixed(100);
  fixed.Sample(100, RateSnap(1, 1));
  EXPECT_EQ(fixed.epochs()[0].gauges.count("telemetry.epoch_cycles"), 0u);

  EpochSampler adaptive(100);
  adaptive.EnableAdaptive({});
  adaptive.Sample(100, RateSnap(1, 1));
  EXPECT_EQ(adaptive.epochs()[0].gauges.at("telemetry.epoch_cycles"), 100u);
}

TEST(AdaptiveEpoch, DeltasTelescopeAcrossResizingAndResidualFinalize) {
  // The ISSUE's satellite invariant: adaptive resizing plus an early-EOF
  // residual epoch must not break telescoping.
  EpochSampler sampler(1000);
  AdaptiveEpochConfig cfg;
  cfg.min_cycles = 100;
  cfg.max_cycles = 2000;
  sampler.EnableAdaptive(cfg);

  std::uint64_t hits = 0, misses = 0;
  Cycle now = 0;
  // Alternate hit-heavy and miss-heavy epochs so the width keeps moving.
  for (int i = 0; i < 12; ++i) {
    now += sampler.epoch_cycles();
    if (i % 2 == 0) {
      hits += 900 + static_cast<std::uint64_t>(i);
      misses += 100;
    } else {
      hits += 100;
      misses += 900 + static_cast<std::uint64_t>(i);
    }
    sampler.Sample(now, RateSnap(hits, misses));
  }
  ASSERT_GT(sampler.adaptive_controller()->shrinks(), 0u);
  // Mid-epoch end (serve-mode EOF): the residual partial epoch closes here.
  hits += 37;
  sampler.Finalize(now + 41, RateSnap(hits, misses));

  std::int64_t hit_sum = 0, miss_sum = 0;
  for (const EpochRecord& e : sampler.epochs()) {
    hit_sum += e.delta.at("ctrl.cache_hits");
    miss_sum += e.delta.at("ctrl.cache_misses");
  }
  EXPECT_EQ(hit_sum, static_cast<std::int64_t>(hits));
  EXPECT_EQ(miss_sum, static_cast<std::int64_t>(misses));
  EXPECT_EQ(sampler.cumulative().at("ctrl.cache_hits"), hits);
  for (std::size_t i = 1; i < sampler.epochs().size(); ++i) {
    EXPECT_EQ(sampler.epochs()[i].begin, sampler.epochs()[i - 1].end);
  }
  EXPECT_EQ(sampler.total_epochs(), sampler.epochs().size());
}

TEST(EpochSampler, SinkWithoutRetentionKeepsOnlyLastRecordButCounts) {
  BufferTelemetrySink sink;
  EpochSampler sampler(10);
  sampler.SetSink(&sink, /*retain_epochs=*/false);
  for (int i = 1; i <= 5; ++i) {
    sampler.Sample(static_cast<Cycle>(10 * i),
                   RateSnap(static_cast<std::uint64_t>(i), 0));
  }
  EXPECT_EQ(sampler.epochs().size(), 1u);  // bounded memory
  EXPECT_EQ(sampler.total_epochs(), 5u);
  EXPECT_EQ(sink.lines.size(), 5u);
  // Finalize's gauge-refresh path still has a record to refresh.
  StatSet last = RateSnap(5, 0);
  last.Counter("gauge.rcu_depth") = 3;
  sampler.Finalize(50, last);
  EXPECT_EQ(sampler.epochs().back().gauges.at("rcu_depth"), 3u);
}

}  // namespace
}  // namespace redcache::obs
