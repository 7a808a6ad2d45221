// Serve-mode integration: streaming a captured trace must reproduce the
// synthetic run that produced it exactly, EOF mid-stream on a pipe must
// drain to the stats of a replay of the same prefix from a regular file,
// and the stop flag must end ingestion while still draining buffered
// records.
#include "workloads/trace_file.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "sim/runner.hpp"

namespace redcache {
namespace {

constexpr std::size_t kHeaderBytes = 12;  // magic + version + num_cores
constexpr std::size_t kRecordBytes = 16;
constexpr double kCaptureScale = 0.01;

std::string Serialize(const RunResult& r) {
  std::ostringstream os;
  os << "completed=" << r.completed << "\nexec_cycles=" << r.exec_cycles
     << "\n" << r.stats.ToString();
  return os.str();
}

/// Capture the LU generator to an RCTR file and return the path.
std::string CaptureTrace(const std::string& path) {
  WorkloadBuildParams wp;
  wp.num_cores = EvalPreset().hierarchy.num_cores;
  wp.scale = kCaptureScale;
  auto source = MakeWorkload("LU", wp);
  TraceFileWriter writer(path, source->num_cores());
  writer.CaptureAll(*source);
  writer.Flush();
  return path;
}

/// First `records` records of `full` as a standalone RCTR file.
void WritePrefix(const std::string& full, const std::string& prefix,
                 std::size_t records) {
  std::ifstream in(full, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::vector<char> bytes(kHeaderBytes + records * kRecordBytes);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_EQ(static_cast<std::size_t>(in.gcount()), bytes.size())
      << "capture shorter than the requested prefix";
  std::ofstream out(prefix, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

RunResult ServeFrom(const std::string& path) {
  RunSpec spec;
  spec.policy = "RedCache";
  spec.serve_path = path;
  return RunOne(spec);
}

TEST(Serve, StreamedFileMatchesBatchReplayExactly) {
  char dir_tmpl[] = "/tmp/redcache_serve_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_tmpl), nullptr);
  const std::string dir = dir_tmpl;
  const std::string trace = CaptureTrace(dir + "/full.rctr");

  // The synthetic run that produced the records is the reference.
  RunSpec synthetic;
  synthetic.policy = "RedCache";
  synthetic.workload = "LU";
  synthetic.scale = kCaptureScale;
  synthetic.ignore_env_scale = true;
  const RunResult streamed = ServeFrom(trace);
  ASSERT_TRUE(streamed.completed);
  EXPECT_EQ(Serialize(streamed), Serialize(RunOne(synthetic)))
      << "replaying a captured trace changed simulation results";

  std::remove(trace.c_str());
  ::rmdir(dir.c_str());
}

TEST(Serve, PipeEofMidStreamDrainsToTheBatchPrefix) {
  char dir_tmpl[] = "/tmp/redcache_serve_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_tmpl), nullptr);
  const std::string dir = dir_tmpl;
  const std::string full = CaptureTrace(dir + "/full.rctr");
  const std::string prefix = dir + "/prefix.rctr";
  constexpr std::size_t kPrefixRecords = 2000;
  WritePrefix(full, prefix, kPrefixRecords);

  const std::string fifo = dir + "/serve.fifo";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  // The writer delivers only the prefix, then closes — EOF arrives while
  // the simulated trace is logically mid-stream.
  std::thread writer([&] {
    const int fd = ::open(fifo.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    std::ifstream in(prefix, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::write(fd, bytes.data() + sent, bytes.size() - sent);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
    ::close(fd);
  });

  const RunResult streamed = ServeFrom(fifo);
  writer.join();
  const RunResult from_file = ServeFrom(prefix);
  ASSERT_TRUE(streamed.completed);
  EXPECT_EQ(Serialize(streamed), Serialize(from_file))
      << "the graceful drain must equal a file replay of the same records";

  std::remove(full.c_str());
  std::remove(prefix.c_str());
  std::remove(fifo.c_str());
  ::rmdir(dir.c_str());
}

TEST(Serve, StopFlagEndsIngestionButDrainsBufferedRecords) {
  char dir_tmpl[] = "/tmp/redcache_serve_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_tmpl), nullptr);
  const std::string dir = dir_tmpl;
  const std::string trace = CaptureTrace(dir + "/full.rctr");

  volatile std::sig_atomic_t stop = 0;
  StreamTraceSource source(trace);
  source.SetStopFlag(&stop);

  // One successful Next buffers at least a chunk's worth of records.
  MemRef ref;
  ASSERT_TRUE(source.Next(0, ref));
  const std::uint64_t ingested = source.total_records();
  ASSERT_GT(ingested, 0u);

  stop = 1;
  // Everything already buffered must still drain — a graceful stop, not a
  // mid-request abort — but nothing new may be ingested.
  std::uint64_t drained = 1;  // the record already returned above
  for (std::uint32_t core = 0; core < source.num_cores(); ++core) {
    while (source.Next(core, ref)) drained++;
  }
  EXPECT_EQ(source.total_records(), ingested)
      << "ingestion continued after the stop flag was set";
  EXPECT_EQ(drained, ingested);

  // A source stopped before any Next serves nothing at all.
  StreamTraceSource eager(trace);
  volatile std::sig_atomic_t stopped_at_birth = 1;
  eager.SetStopFlag(&stopped_at_birth);
  for (std::uint32_t core = 0; core < eager.num_cores(); ++core) {
    EXPECT_FALSE(eager.Next(core, ref));
  }
  EXPECT_EQ(eager.total_records(), 0u);

  std::remove(trace.c_str());
  ::rmdir(dir.c_str());
}

TEST(Serve, EarlyEofTelemetryTelescopesThroughResidualEpoch) {
  // The ISSUE satellite: a serve run ending early (prefix EOF) with
  // adaptive epoch resizing must close a residual partial epoch whose
  // NDJSON deltas still telescope exactly to the end record's totals, and
  // the stream must carry the live serve/QoS gauges.
  char dir_tmpl[] = "/tmp/redcache_serve_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_tmpl), nullptr);
  const std::string dir = dir_tmpl;
  const std::string full = CaptureTrace(dir + "/full.rctr");
  const std::string prefix = dir + "/prefix.rctr";
  constexpr std::size_t kPrefixRecords = 1500;
  WritePrefix(full, prefix, kPrefixRecords);

  const std::string ndjson = dir + "/serve.ndjson";
  RunSpec spec;
  spec.policy = "RedCache";
  spec.serve_path = prefix;
  spec.telemetry_path = ndjson;
  spec.epoch.cycles = 5000;  // narrow enough for several epochs + residual
  spec.epoch.adaptive = true;
  spec.epoch.min_cycles = 1000;
  spec.epoch.max_cycles = 20000;
  const RunResult r = RunOne(spec);
  ASSERT_TRUE(r.completed);
  ASSERT_GT(r.telemetry_epochs, 1u);

  std::ifstream in(ndjson);
  std::string line;
  std::vector<obs::JsonValue> docs;
  while (std::getline(in, line)) {
    obs::JsonValue doc;
    std::string err;
    ASSERT_TRUE(obs::ParseJson(line, doc, &err)) << err << "\n" << line;
    docs.push_back(std::move(doc));
  }
  ASSERT_EQ(docs.size(), r.telemetry_epochs + 2);  // header + epochs + end
  ASSERT_EQ(docs.front().Find("type")->string, "header");
  EXPECT_EQ(docs.front().Find("adaptive")->boolean, true);
  ASSERT_EQ(docs.back().Find("type")->string, "end");

  // The residual epoch ends exactly at the run's end, not on an epoch
  // boundary — the drain closed it.
  const obs::JsonValue& last_epoch = docs[docs.size() - 2];
  ASSERT_EQ(last_epoch.Find("type")->string, "epoch");
  EXPECT_EQ(last_epoch.Find("end")->number,
            static_cast<double>(r.exec_cycles));

  // Telescoping: for every counter in totals, the epoch deltas sum to it.
  const obs::JsonValue* totals = docs.back().Find("totals");
  ASSERT_NE(totals, nullptr);
  std::map<std::string, double> sums;
  for (std::size_t i = 1; i + 1 < docs.size(); ++i) {
    for (const auto& [name, v] : docs[i].Find("delta")->object) {
      sums[name] += v.number;
    }
  }
  for (const auto& [name, v] : totals->object) {
    EXPECT_EQ(sums[name], v.number) << "telescoping broke for " << name;
  }

  // The live serve feed: ingest totals and end-state gauges are present,
  // and the records counter telescopes to exactly the prefix size.
  EXPECT_EQ(totals->Find("serve.records")->number,
            static_cast<double>(kPrefixRecords));
  const obs::JsonValue* gauges = last_epoch.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->Find("serve.eof")->number, 1.0);
  EXPECT_EQ(gauges->Find("serve.queue_depth")->number, 0.0);
  // Adaptive pacing was active: every record carries the width gauge.
  EXPECT_NE(gauges->Find("telemetry.epoch_cycles"), nullptr);

  std::remove(full.c_str());
  std::remove(prefix.c_str());
  std::remove(ndjson.c_str());
  ::rmdir(dir.c_str());
}

TEST(Serve, RejectsMalformedStreams) {
  char dir_tmpl[] = "/tmp/redcache_serve_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_tmpl), nullptr);
  const std::string dir = dir_tmpl;
  const std::string bogus = dir + "/bogus.rctr";
  std::ofstream(bogus, std::ios::binary) << "NOTATRACEFILE";
  EXPECT_THROW(StreamTraceSource{bogus}, std::runtime_error);
  EXPECT_THROW(StreamTraceSource{dir + "/missing.rctr"},
               std::runtime_error);
  std::remove(bogus.c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace redcache
