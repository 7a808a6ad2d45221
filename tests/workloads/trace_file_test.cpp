#include "workloads/trace_file.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "sim/checkpoint.hpp"
#include "sim/runner.hpp"
#include "workloads/benchmarks.hpp"

namespace redcache {
namespace {

class TraceFileTest : public ::testing::Test {
 protected:
  std::string Path(const char* name) {
    return testing::TempDir() + "/" + name;
  }

  /// A 4-core LU spec replaying `path`, captured from the same generator
  /// by CaptureLu.
  static RunSpec ReplaySpec(const std::string& path) {
    RunSpec spec;
    spec.policy = "RedCache";
    spec.preset.hierarchy.num_cores = 4;
    spec.scale = 0.02;
    spec.ignore_env_scale = true;
    spec.serve_path = path;
    return spec;
  }
  static void CaptureLu(const std::string& path) {
    WorkloadBuildParams p;
    p.num_cores = 4;
    p.scale = 0.02;
    auto source = MakeWorkload("LU", p);
    TraceFileWriter w(path, source->num_cores());
    w.CaptureAll(*source);
  }

  /// Run `spec` with a checkpoint at `at` and return the blob.
  static std::string CheckpointAt(const RunSpec& spec, Cycle at,
                                  RunResult* result = nullptr) {
    const std::string key = ckpt::SpecKeyOf(spec);
    std::string blob;
    auto sys = BuildSystem(spec);
    System* raw = sys.get();
    sys->SetCheckpointHook(at, /*every=*/0, [raw, &blob, &key](Cycle now) {
      blob = ckpt::Capture(*raw, now, key);
    });
    const RunResult r = sys->Run();
    if (result != nullptr) *result = r;
    return blob;
  }
};

std::string Dump(const RunResult& r) {
  return std::to_string(r.exec_cycles) + "\n" + r.stats.ToString();
}

TEST_F(TraceFileTest, RoundTripsRecords) {
  const std::string path = Path("roundtrip.rctr");
  {
    TraceFileWriter w(path, 2);
    w.Append(0, {.addr = 0x1000, .is_write = false, .gap = 3});
    w.Append(1, {.addr = 0x2000, .is_write = true, .gap = 7});
    w.Append(0, {.addr = 0x1040, .is_write = false, .gap = 1});
    EXPECT_EQ(w.records_written(), 3u);
  }
  StreamTraceSource src(path);
  EXPECT_EQ(src.num_cores(), 2u);
  MemRef r;
  ASSERT_TRUE(src.Next(0, r));
  EXPECT_EQ(r.addr, 0x1000u);
  EXPECT_FALSE(r.is_write);
  EXPECT_EQ(r.gap, 3u);
  ASSERT_TRUE(src.Next(0, r));
  EXPECT_EQ(r.addr, 0x1040u);
  ASSERT_FALSE(src.Next(0, r));
  ASSERT_TRUE(src.Next(1, r));
  EXPECT_TRUE(r.is_write);
  EXPECT_EQ(r.gap, 7u);
  EXPECT_EQ(src.total_records(), 3u);
}

TEST_F(TraceFileTest, CapturesSyntheticWorkloadExactly) {
  const std::string path = Path("capture.rctr");
  WorkloadBuildParams p;
  p.num_cores = 2;
  p.scale = 0.02;
  {
    auto source = MakeWorkload("LREG", p);
    TraceFileWriter w(path, source->num_cores());
    w.CaptureAll(*source);
    EXPECT_GT(w.records_written(), 100u);
  }
  // Replay must match a freshly generated copy record for record.
  auto fresh = MakeWorkload("LREG", p);
  StreamTraceSource replay(path);
  MemRef a, b;
  for (std::uint32_t c = 0; c < 2; ++c) {
    while (fresh->Next(c, a)) {
      ASSERT_TRUE(replay.Next(c, b));
      EXPECT_EQ(a.addr, b.addr);
      EXPECT_EQ(a.is_write, b.is_write);
    }
    EXPECT_FALSE(replay.Next(c, b));
  }
}

TEST_F(TraceFileTest, FootprintCoversAddressRange) {
  const std::string path = Path("footprint.rctr");
  {
    TraceFileWriter w(path, 1);
    w.Append(0, {.addr = 0x1000, .is_write = false, .gap = 1});
    w.Append(0, {.addr = 0x9000, .is_write = false, .gap = 1});
  }
  // The footprint is the bound of the records read so far.
  StreamTraceSource src(path);
  EXPECT_EQ(src.footprint_bytes(), 0u);
  MemRef r;
  while (src.Next(0, r)) {
  }
  EXPECT_EQ(src.footprint_bytes(), 0x9000u + kBlockBytes - 0x1000u);
}

TEST_F(TraceFileTest, GapsClampToAtLeastOne) {
  const std::string path = Path("gap.rctr");
  {
    TraceFileWriter w(path, 1);
    w.Append(0, {.addr = 0x0, .is_write = false, .gap = 0});
  }
  StreamTraceSource src(path);
  MemRef r;
  ASSERT_TRUE(src.Next(0, r));
  EXPECT_GE(r.gap, 1u);
}

TEST_F(TraceFileTest, RejectsGarbageFile) {
  const std::string path = Path("garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a trace";
  }
  EXPECT_THROW(StreamTraceSource src(path), std::runtime_error);
}

TEST_F(TraceFileTest, RejectsMissingFile) {
  EXPECT_THROW(StreamTraceSource src(Path("does_not_exist.rctr")),
               std::runtime_error);
}

TEST_F(TraceFileTest, WriterRefusesUnwritablePath) {
  EXPECT_THROW(TraceFileWriter w("/nonexistent_dir/x.rctr", 1),
               std::runtime_error);
}

TEST_F(TraceFileTest, MidRunCheckpointRestoresByteIdentically) {
  const std::string path = Path("ckpt_lu.rctr");
  CaptureLu(path);
  const RunSpec spec = ReplaySpec(path);
  const RunResult baseline = RunOne(spec);
  ASSERT_TRUE(baseline.completed);
  ASSERT_TRUE(StreamTraceSource(path).checkpointable());

  for (const Cycle at : {Cycle{1}, baseline.exec_cycles / 3,
                         (2 * baseline.exec_cycles) / 3}) {
    SCOPED_TRACE("checkpoint_at=" + std::to_string(at));
    RunResult with_ckpt;
    const std::string blob = CheckpointAt(spec, at, &with_ckpt);
    ASSERT_FALSE(blob.empty()) << "checkpoint hook never fired";
    EXPECT_EQ(Dump(with_ckpt), Dump(baseline));

    auto fresh = BuildSystem(spec);
    ckpt::RestoreInto(*fresh, blob, ckpt::SpecKeyOf(spec));
    const RunResult resumed = fresh->Run();
    ASSERT_TRUE(resumed.completed);
    EXPECT_EQ(Dump(resumed), Dump(baseline));
  }
  std::remove(path.c_str());
}

TEST_F(TraceFileTest, RestoreRefusesAnotherFileSize) {
  const std::string path = Path("ckpt_resized.rctr");
  CaptureLu(path);
  const RunSpec spec = ReplaySpec(path);
  const std::string blob = CheckpointAt(spec, 1000);
  ASSERT_FALSE(blob.empty());

  // Same path, and so the same spec key, but one record shorter.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 16);
  auto fresh = BuildSystem(spec);
  EXPECT_THROW(ckpt::RestoreInto(*fresh, blob, ckpt::SpecKeyOf(spec)),
               ser::SerializeError);
  std::remove(path.c_str());
}

TEST_F(TraceFileTest, FifoReaderIsNotCheckpointable) {
  const std::string fifo = Path("reader.fifo");
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  std::thread writer([&] {
    TraceFileWriter w(fifo, 1);
    w.Append(0, {.addr = 0x40, .is_write = false, .gap = 1});
  });
  {
    StreamTraceSource src(fifo);
    MemRef r;
    EXPECT_TRUE(src.Next(0, r));
    EXPECT_FALSE(src.checkpointable());
    ser::Writer w;
    EXPECT_THROW(src.Snapshot(w), ser::SerializeError);
  }
  writer.join();
  std::remove(fifo.c_str());
}

}  // namespace
}  // namespace redcache
