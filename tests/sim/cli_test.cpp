// Tests that drive the real CLI binary.
//
// Fresh-process checkpoint differential: the acceptance-critical variant
// of the round-trip tests runs the CLI twice — one process writes the
// checkpoint, a second process restores it — and requires the full --stats
// dumps to be byte-identical. This proves the blob carries everything
// across a process boundary (no in-process state leaks into the result).
//
// Flag handling: numeric flags parse strictly, and every flag either
// applies to the requested run or is a usage error (exit 2) — none
// silently changes or drops out of a run.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace redcache {
namespace {

#ifndef REDCACHE_CLI_PATH
#error "REDCACHE_CLI_PATH must point at the redcache_cli binary"
#endif

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Run the CLI with stdout + stderr captured to `stdout_path`; returns its
/// exit code.
int RunCli(const std::string& args, const std::string& stdout_path) {
  const std::string cmd = std::string(REDCACHE_CLI_PATH) + " " + args + " > " +
                          stdout_path + " 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CliCheckpoint, FreshProcessRestoreIsByteIdentical) {
  char tmpl[] = "/tmp/redcache_cli_ckpt_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string blob = dir + "/mid.ckpt";
  const std::string trace = dir + "/rdx.rctr";
  const std::string out_a = dir + "/capture.txt";
  const std::string out_b = dir + "/restored.txt";
  ASSERT_EQ(RunCli("--capture " + trace + " --workload RDX --scale 0.02",
                   out_a),
            0)
      << ReadAll(out_a);

  // A synthetic workload, and a replayed trace file.
  for (const std::string& common :
       {std::string("--policy RedCache --workload RDX --scale 0.02 --seed 7 "
                    "--stats"),
        "--policy RedCache --replay " + trace + " --seed 7 --stats"}) {
    SCOPED_TRACE(common);
    ASSERT_EQ(RunCli(common + " --checkpoint " + blob + " --checkpoint-at "
                         "100000",
                     out_a),
              0)
        << ReadAll(out_a);
    {
      std::ifstream in(blob, std::ios::binary);
      ASSERT_TRUE(in.good()) << "checkpoint blob was not written";
    }

    ASSERT_EQ(RunCli(common + " --restore " + blob, out_b), 0)
        << ReadAll(out_b);

    const std::string a = ReadAll(out_a);
    const std::string b = ReadAll(out_b);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "restored process output diverged from the "
                       "checkpointing process";
    std::remove(blob.c_str());
  }

  std::remove(trace.c_str());
  std::remove(out_a.c_str());
  std::remove(out_b.c_str());
  ::rmdir(dir.c_str());
}

TEST(CliCheckpoint, RestoreWithMismatchedSpecFails) {
  char tmpl[] = "/tmp/redcache_cli_ckptbad_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string blob = dir + "/mid.ckpt";
  const std::string out = dir + "/out.txt";

  ASSERT_EQ(RunCli("--policy RedCache --workload RDX --scale 0.02 --seed 7 "
                   "--checkpoint " +
                       blob + " --checkpoint-at 100000",
                   out),
            0)
      << ReadAll(out);
  // Different seed => different spec key: the restore must refuse.
  EXPECT_NE(RunCli("--policy RedCache --workload RDX --scale 0.02 --seed 8 "
                   "--restore " +
                       blob,
                   out),
            0);
  EXPECT_NE(ReadAll(out).find("different run configuration"),
            std::string::npos);

  std::remove(blob.c_str());
  std::remove(out.c_str());
  ::rmdir(dir.c_str());
}

TEST(CliCheckpoint, SampledRunReportsConfidenceInterval) {
  char tmpl[] = "/tmp/redcache_cli_sample_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string out = dir + "/out.txt";
  const std::string report = dir + "/report.json";

  ASSERT_EQ(RunCli("--policy RedCache --workload RDX --scale 0.02 "
                   "--sample 0.1:20000 --report " +
                       report,
                   out),
            0)
      << ReadAll(out);
  const std::string text = ReadAll(out);
  EXPECT_NE(text.find("sampled"), std::string::npos) << text;
  EXPECT_NE(text.find("95% CI"), std::string::npos) << text;
  const std::string rep = ReadAll(report);
  EXPECT_NE(rep.find("\"sampled\":true"), std::string::npos) << rep;
  EXPECT_NE(rep.find("\"sampling_ci_pct\""), std::string::npos) << rep;

  std::remove(out.c_str());
  std::remove(report.c_str());
  ::rmdir(dir.c_str());
}

struct Case {
  const char* args;
  int exit_code;
  const char* expect;  ///< substring of the combined output
};

// A small, fast run shape for the cases that do simulate.
#define TINY "--workload IS --scale 0.01"

const Case kCases[] = {
    // Numeric flags: the whole string must parse, within range.
    {"--hbm-mib 0", 2, "bad --hbm-mib 0"},
    {"--scale abc", 2, "bad --scale abc"},
    {"--scale 0", 2, "bad --scale 0"},
    {"--scale 0.5x", 2, "bad --scale 0.5x"},
    {"--seed 12x", 2, "bad --seed 12x"},
    {"--jobs -1", 2, "bad --jobs -1"},
    {"--alpha 256", 2, "bad --alpha 256"},
    {"--sample 1.5", 2, "bad --sample 1.5"},
    // --epoch counts are whole digits: no sign, blank or wrap past 2^64-1.
    {"--epoch -1", 2, "bad --epoch -1"},
    {"--epoch \" 5000\"", 2, "bad --epoch  5000"},
    {"--epoch auto:5:-1", 2, "bad --epoch auto:5:-1"},
    {"--sample 0.1:abc", 2, "bad --sample 0.1:abc"},
    // Mix weights and gaps parse the same way: no sign (which would wrap
    // to 2^32-1) and no suffix.
    {"--mix LU:-1,RDX:1 --scale 0.01", 1, "mix tenant weight"},
    {"--mix LU:2x,RDX:1 --scale 0.01", 1, "mix tenant weight"},
    {"--mix LU:0,RDX:1 --scale 0.01", 1, "mix tenant weight"},
    {"--mix LU:1@-5,RDX:1 --scale 0.01", 1, "mix tenant gap"},
    {"--mix LU:1@5x,RDX:1 --scale 0.01", 1, "mix tenant gap"},
    // Threshold pins belong to the requested redcache-family policy.
    {"--policy Alloy --alpha 2", 2, "Alloy belongs to the alloy family"},
    {"--policy Bear --gamma 4", 2, "Bear belongs to the alloy family"},
    {"--policy Red-Basic --alpha 2 " TINY, 0, "Red-Basic[alpha=2] on IS"},
    {"--policy RedCache-4way --gamma 16 " TINY, 0,
     "RedCache-4way[gamma=16] on IS"},
    // The extensions are registry policies; their old flags are gone.
    {"--policy RedCache-4way " TINY, 0, "RedCache-4way on IS"},
    {"--policy Footprint-2KB " TINY, 0, "Footprint-2KB on IS"},
    {"--ways 4 --sweep", 2, "unknown option: --ways"},
    {"--footprint", 2, "unknown option: --footprint"},
    // The policy has one name on the command line: the --arch aliases are
    // gone.
    {"--arch RedCache", 2, "unknown option: --arch"},
    {"--sweep --archs RedCache", 2, "unknown option: --archs"},
    // A sweep applies result-shaping flags to every cell, rejects the rest.
    {"--sweep --alpha 2 --policies RedCache,Red-Basic --workloads IS "
     "--scale 0.01 --jobs 1",
     0, "Red-Basic"},
    {"--sweep --alpha 2 --policies RedCache,Alloy", 2,
     "Alloy belongs to the alloy family"},
    {"--sweep --policy RedCache", 2, "--sweep takes --policies"},
    {"--sweep --workload LU", 2, "--sweep takes --workloads"},
    {"--sweep --trace t.json", 2, "--telemetry-dir"},
    {"--sweep --verify", 2, "single-run flags"},
    // Single runs reject sweep-only flags and contradictory pairs.
    {"--telemetry-dir d", 2, "need --sweep"},
    {"--report r.json", 2, "--report needs --sweep or --sample"},
    {"--replay a.rctr --serve b.rctr", 2, "pick one"},
    {"--mix LU,RDX --workload FT", 2, "--mix replaces --workload"},
    {"--sample 0.1 --checkpoint c.ckpt", 2, "manages its own checkpoints"},
    {"--sample 0.1 --trace t.json", 2, "a sampled run has none"},
    {"--serve - --restore c.ckpt", 2, "cannot be checkpointed"},
    // A replayed file can be sampled: this one fails only to open.
    {"--replay missing.rctr --sample 0.1", 1, "cannot open trace stream"},
    // Every telemetry target streams NDJSON, so an unopenable one fails
    // before the run, whatever its name.
    {"--telemetry no_such_dir/t.json " TINY, 1,
     "cannot open telemetry sink"},
};
#undef TINY

TEST(CliFlags, EveryFlagAppliesOrIsRejected) {
  char tmpl[] = "/tmp/redcache_cli_flags_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string out = std::string(tmpl) + "/out.txt";
  for (const Case& c : kCases) {
    EXPECT_EQ(RunCli(c.args, out), c.exit_code) << c.args << "\n"
                                                 << ReadAll(out);
    EXPECT_NE(ReadAll(out).find(c.expect), std::string::npos)
        << c.args << "\n" << ReadAll(out);
  }
  std::remove(out.c_str());
  ::rmdir(tmpl);
}

}  // namespace
}  // namespace redcache
