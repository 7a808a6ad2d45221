// Telemetry sinks: NDJSON record shape, incremental delivery, broken-reader
// robustness, and TelemetrySession streaming to any target name.
#include "obs/telemetry_sink.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/adaptive_epoch.hpp"
#include "obs/json.hpp"

namespace redcache::obs {
namespace {

StatSet Snap(std::uint64_t hits, std::uint64_t misses) {
  StatSet s;
  s.Counter("ctrl.cache_hits") = hits;
  s.Counter("ctrl.cache_misses") = misses;
  s.Counter("gauge.rcu_depth") = hits % 7;
  return s;
}

TelemetryMeta Meta() {
  TelemetryMeta meta;
  meta.workload = "LU";
  meta.preset = "eval";
  meta.policy = "RedCache";
  return meta;
}

std::vector<JsonValue> ParseLines(const std::vector<std::string>& lines) {
  std::vector<JsonValue> docs(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string err;
    EXPECT_TRUE(ParseJson(lines[i], docs[i], &err))
        << "line " << i << ": " << err << "\n" << lines[i];
  }
  return docs;
}

TEST(NdjsonRecords, StreamTelescopesToEndTotals) {
  BufferTelemetrySink sink;
  EpochSampler sampler(100);
  sampler.SetSink(&sink, /*retain_epochs=*/true);

  sink.WriteLine(NdjsonHeaderLine(Meta(), sampler));
  std::uint64_t hits = 0, misses = 0;
  for (int i = 1; i <= 4; ++i) {
    hits += 10 * static_cast<std::uint64_t>(i);
    misses += 3;
    sampler.Sample(static_cast<Cycle>(100 * i), Snap(hits, misses));
  }
  TelemetryMeta meta = Meta();
  meta.exec_cycles = 400;
  sink.WriteLine(NdjsonEndLine(meta, sampler));

  // header + 4 epochs (written by the sampler as each closed) + end.
  ASSERT_EQ(sink.lines.size(), 6u);
  std::vector<JsonValue> docs = ParseLines(sink.lines);

  EXPECT_EQ(docs.front().Find("type")->string, "header");
  EXPECT_EQ(docs.front().Find("schema")->number, 2.0);
  EXPECT_EQ(docs.front().Find("policy")->string, "RedCache");
  EXPECT_EQ(docs.front().Find("arch"), nullptr);
  EXPECT_EQ(docs.front().Find("epoch_cycles")->number, 100.0);

  double hit_sum = 0.0, miss_sum = 0.0;
  for (int i = 1; i <= 4; ++i) {
    const JsonValue& e = docs[static_cast<std::size_t>(i)];
    EXPECT_EQ(e.Find("type")->string, "epoch");
    EXPECT_EQ(e.Find("seq")->number, static_cast<double>(i - 1));
    EXPECT_EQ(e.Find("begin")->number, static_cast<double>(100 * (i - 1)));
    EXPECT_EQ(e.Find("end")->number, static_cast<double>(100 * i));
    hit_sum += e.Find("delta")->Find("ctrl.cache_hits")->number;
    miss_sum += e.Find("delta")->Find("ctrl.cache_misses")->number;
    EXPECT_NE(e.Find("derived")->Find("hit_rate"), nullptr);
    EXPECT_NE(e.Find("gauges")->Find("rcu_depth"), nullptr);
  }

  const JsonValue& end = docs.back();
  EXPECT_EQ(end.Find("type")->string, "end");
  EXPECT_EQ(end.Find("exec_cycles")->number, 400.0);
  EXPECT_EQ(end.Find("num_epochs")->number, 4.0);
  EXPECT_EQ(hit_sum, end.Find("totals")->Find("ctrl.cache_hits")->number);
  EXPECT_EQ(miss_sum, end.Find("totals")->Find("ctrl.cache_misses")->number);
}

TEST(FdTelemetrySink, WritesOneRecordPerLineToFile) {
  const std::string path = testing::TempDir() + "/sink_test.ndjson";
  {
    auto sink = FdTelemetrySink::OpenPath(path);
    ASSERT_TRUE(sink->ok());
    EXPECT_TRUE(sink->WriteLine("{\"type\":\"header\"}"));
    EXPECT_TRUE(sink->WriteLine("{\"type\":\"end\"}"));
    EXPECT_EQ(sink->lines_written(), 2u);
    EXPECT_EQ(sink->describe(), path);
  }
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"type\":\"header\"}");
  EXPECT_EQ(lines[1], "{\"type\":\"end\"}");
  std::remove(path.c_str());
}

TEST(FdTelemetrySink, DeadReaderDisarmsInsteadOfKillingTheRun) {
  // Serve-mode contract: the telemetry consumer exiting first must not take
  // the simulation down (SIGPIPE) or error-cascade — the sink just goes
  // quiet. Write through a pipe whose read end is already closed.
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const std::string fifo = testing::TempDir() + "/sink_pipe_fd";
  // Route the pipe's write end through /proc/self/fd so OpenPath exercises
  // its real open() path against a pipe.
  close(fds[0]);
  std::ostringstream dev;
  dev << "/proc/self/fd/" << fds[1];
  std::unique_ptr<FdTelemetrySink> sink;
  try {
    sink = FdTelemetrySink::OpenPath(dev.str());
  } catch (const std::runtime_error&) {
    // Some kernels refuse re-opening a writer-only pipe fd; fall back to
    // exercising the disarm path is impossible then — skip.
    close(fds[1]);
    GTEST_SKIP() << "cannot reopen pipe fd via /proc";
  }
  close(fds[1]);
  // First write hits EPIPE; the sink must disarm, not throw or crash.
  EXPECT_FALSE(sink->WriteLine("{\"type\":\"epoch\"}"));
  EXPECT_FALSE(sink->ok());
  // Subsequent writes are silent no-ops.
  EXPECT_FALSE(sink->WriteLine("{\"type\":\"end\"}"));
  (void)fifo;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// One short session (header, one epoch, end) streamed to `path`.
void RunShortSession(const std::string& path) {
  EpochSpec spec;
  spec.cycles = 100;
  TelemetrySession session(path, spec, 250000);
  ASSERT_TRUE(session.Begin(Meta()));
  session.sampler().Sample(100, Snap(4, 4));
  TelemetryMeta meta = Meta();
  meta.exec_cycles = 100;
  ASSERT_TRUE(session.Close(meta));
}

TEST(StreamingTelemetryPathFn, SelectsNdjsonAndStdout) {
  // The target's name selects nothing: every name gets the same stream.
  const std::string dir = testing::TempDir();
  RunShortSession(dir + "/any_name.ndjson");
  const std::vector<std::string> want = ReadLines(dir + "/any_name.ndjson");
  ASSERT_EQ(want.size(), 3u);
  for (const std::string name : {"run.json", "run.csv", "run"}) {
    RunShortSession(dir + "/" + name);
    EXPECT_EQ(ReadLines(dir + "/" + name), want) << name;
    std::remove((dir + "/" + name).c_str());
  }
  std::remove((dir + "/any_name.ndjson").c_str());
  EXPECT_EQ(FdTelemetrySink::OpenPath("-")->describe(), "stdout");
}

TEST(TelemetrySession, StreamsNdjsonIncrementallyBeforeClose) {
  const std::string path = testing::TempDir() + "/session.ndjson";
  EpochSpec spec;
  spec.cycles = 50;
  TelemetrySession session(path, spec, /*preset_epoch_cycles=*/250000);
  EXPECT_EQ(session.sampler().epoch_cycles(), 50u);
  ASSERT_TRUE(session.Begin(Meta()));
  session.sampler().Sample(50, Snap(5, 1));

  // Liveness: header + first epoch are on disk before Close.
  {
    const std::vector<std::string> lines = ReadLines(path);
    ASSERT_EQ(lines.size(), 2u);
    std::vector<JsonValue> docs = ParseLines(lines);
    EXPECT_EQ(docs[0].Find("type")->string, "header");
    EXPECT_EQ(docs[1].Find("type")->string, "epoch");
  }

  session.sampler().Sample(100, Snap(9, 2));
  TelemetryMeta meta = Meta();
  meta.exec_cycles = 100;
  ASSERT_TRUE(session.Close(meta));
  std::ifstream in(path);
  std::string line, last;
  while (std::getline(in, line)) last = line;
  JsonValue end;
  std::string err;
  ASSERT_TRUE(ParseJson(last, end, &err)) << err;
  EXPECT_EQ(end.Find("type")->string, "end");
  EXPECT_EQ(end.Find("totals")->Find("ctrl.cache_hits")->number, 9.0);
  EXPECT_EQ(session.sampler().total_epochs(), 2u);
  std::remove(path.c_str());
}

TEST(TelemetrySession, AdaptiveClampsDeriveFromBaseWidth) {
  EpochSpec spec;
  spec.cycles = 800;
  spec.adaptive = true;
  TelemetrySession session("", spec, /*preset_epoch_cycles=*/250000);
  ASSERT_TRUE(session.sampler().adaptive());
  const AdaptiveEpochConfig& cfg =
      session.sampler().adaptive_controller()->config();
  EXPECT_EQ(cfg.min_cycles, 100u);  // base / 8
  EXPECT_EQ(cfg.max_cycles, 3200u);  // base * 4

  // Explicit band wins over the derived clamps.
  EpochSpec banded;
  banded.adaptive = true;
  banded.min_cycles = 10;
  banded.max_cycles = 90;
  TelemetrySession banded_session("", banded, 40);
  const AdaptiveEpochConfig& bcfg =
      banded_session.sampler().adaptive_controller()->config();
  EXPECT_EQ(banded_session.sampler().epoch_cycles(), 40u);  // preset base
  EXPECT_EQ(bcfg.min_cycles, 10u);
  EXPECT_EQ(bcfg.max_cycles, 90u);
}

TEST(TelemetrySession, CloseWritesCsvOrJsonForNonStreamingPaths) {
  // The target's name selects nothing: .csv and .json paths get the
  // header, epoch and end records like any other target.
  for (const std::string name : {"session_out.csv", "session_out.json"}) {
    const std::string path = testing::TempDir() + "/" + name;
    RunShortSession(path);
    const std::vector<std::string> lines = ReadLines(path);
    ASSERT_EQ(lines.size(), 3u) << name;
    std::vector<JsonValue> docs = ParseLines(lines);
    EXPECT_EQ(docs[0].Find("type")->string, "header");
    EXPECT_EQ(docs[0].Find("policy")->string, "RedCache");
    EXPECT_EQ(docs[0].Find("arch"), nullptr);
    EXPECT_EQ(docs[1].Find("type")->string, "epoch");
    EXPECT_EQ(docs[2].Find("type")->string, "end");
    EXPECT_EQ(docs[2].Find("num_epochs")->number, 1.0);
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace redcache::obs
