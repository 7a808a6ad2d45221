// Replay every checked-in corpus case (tests/verify/corpus/*.trace) through
// the differential harness and require a clean result.
//
// The corpus holds two kinds of cases: hand-crafted adversarial traces
// aimed at a specific policy family's worst pattern, and fuzzer-found
// counterexamples persisted by fuzz_differential_test when a campaign
// fails. Once a file lands here, the failure it captured can never
// silently return.
#include "verify/corpus.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "dramcache/policy_registry.hpp"

#ifndef REDCACHE_CORPUS_DIR
#error "REDCACHE_CORPUS_DIR must point at tests/verify/corpus"
#endif

namespace redcache {
namespace {

std::string Join(const std::vector<std::string>& lines) {
  std::ostringstream out;
  for (const std::string& l : lines) out << "  " << l << "\n";
  return out.str();
}

std::vector<std::string> CorpusFiles() {
  return ListCorpusFiles(REDCACHE_CORPUS_DIR);
}

TEST(RegressionCorpus, CorpusIsNotEmpty) {
  // At minimum the hand-crafted adversarial cases for the Banshee and
  // TicToc families must be present.
  const std::vector<std::string> files = CorpusFiles();
  ASSERT_GE(files.size(), 2u) << "corpus dir: " << REDCACHE_CORPUS_DIR;
}

TEST(RegressionCorpus, EveryCaseParsesAndNamesKnownPolicies) {
  for (const std::string& path : CorpusFiles()) {
    CorpusCase c;
    std::string error;
    ASSERT_TRUE(ReadCorpusFile(path, c, error)) << path << ": " << error;
    EXPECT_FALSE(c.name.empty());
    ASSERT_FALSE(c.params.policies.empty()) << path;
    for (const std::string& policy : c.params.policies) {
      EXPECT_NO_THROW(GetPolicy(policy))
          << path << " names unregistered policy '" << policy << "'";
    }
  }
}

TEST(RegressionCorpus, EveryCaseReplaysClean) {
  for (const std::string& path : CorpusFiles()) {
    CorpusCase c;
    std::string error;
    ASSERT_TRUE(ReadCorpusFile(path, c, error)) << path << ": " << error;
    const DifferentialResult res = RunDifferential(c.params);
    EXPECT_TRUE(res.ok()) << c.name << ":\n" << Join(res.errors);
    for (const auto& o : res.outcomes) {
      EXPECT_TRUE(o.completed) << c.name << "/" << o.policy;
      EXPECT_EQ(o.divergences, 0u) << c.name << "/" << o.policy;
    }
  }
}

TEST(RegressionCorpus, SerializationRoundTrips) {
  CorpusCase c;
  c.name = "roundtrip";
  c.note = "line one\nline two";
  c.params.trace.seed = 424242;
  c.params.trace.cores = 3;
  c.params.trace.refs_per_core = 777;
  c.params.trace.region_pages = 33;
  c.params.trace.hot_pages = 5;
  c.params.trace.conflict_stride_bytes = 8_MiB;
  c.params.trace.hot_weight = 11;
  c.params.trace.burst_weight = 22;
  c.params.trace.conflict_weight = 33;
  c.params.trace.row_storm_weight = 44;
  c.params.trace.write_weight = 55;
  c.params.trace.idle_every = 66;
  c.params.trace.idle_gap_cycles = 77;
  c.params.max_cycles = 123456789;
  c.params.policies = {"Banshee", "TicToc"};

  CorpusCase parsed;
  std::string error;
  ASSERT_TRUE(ParseCorpusCase(SerializeCorpusCase(c), parsed, error)) << error;
  EXPECT_EQ(parsed.params.trace.seed, c.params.trace.seed);
  EXPECT_EQ(parsed.params.trace.cores, c.params.trace.cores);
  EXPECT_EQ(parsed.params.trace.refs_per_core, c.params.trace.refs_per_core);
  EXPECT_EQ(parsed.params.trace.region_pages, c.params.trace.region_pages);
  EXPECT_EQ(parsed.params.trace.hot_pages, c.params.trace.hot_pages);
  EXPECT_EQ(parsed.params.trace.conflict_stride_bytes,
            c.params.trace.conflict_stride_bytes);
  EXPECT_EQ(parsed.params.trace.hot_weight, c.params.trace.hot_weight);
  EXPECT_EQ(parsed.params.trace.burst_weight, c.params.trace.burst_weight);
  EXPECT_EQ(parsed.params.trace.conflict_weight,
            c.params.trace.conflict_weight);
  EXPECT_EQ(parsed.params.trace.row_storm_weight,
            c.params.trace.row_storm_weight);
  EXPECT_EQ(parsed.params.trace.write_weight, c.params.trace.write_weight);
  EXPECT_EQ(parsed.params.trace.idle_every, c.params.trace.idle_every);
  EXPECT_EQ(parsed.params.trace.idle_gap_cycles,
            c.params.trace.idle_gap_cycles);
  EXPECT_EQ(parsed.params.max_cycles, c.params.max_cycles);
  EXPECT_EQ(parsed.params.policies, c.params.policies);
}

TEST(RegressionCorpus, MalformedInputIsRejected) {
  CorpusCase out;
  std::string error;
  EXPECT_FALSE(ParseCorpusCase("seed 17\n", out, error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseCorpusCase("mystery_knob = 3\n", out, error));
  EXPECT_NE(error.find("mystery_knob"), std::string::npos);
}

TEST(RegressionCorpus, MalformedNumbersAreRejected) {
  // Each value must be whole digits that fit the field: no sign (which
  // would wrap to 2^64-1), no suffix, no truncation of a 32-bit field.
  for (const char* bad :
       {"seed = -1", "cores = -1", "cores = 4x", "cores = 0x4", "cores = ",
        "hot_weight = 5000000000", "refs_per_core = 1e3",
        "max_cycles = 18446744073709551616", "idle_every = +3"}) {
    CorpusCase out;
    std::string error;
    EXPECT_FALSE(ParseCorpusCase(std::string(bad) + "\n", out, error)) << bad;
    EXPECT_NE(error.find("line 1"), std::string::npos) << bad << ": " << error;
  }
  CorpusCase out;
  std::string error;
  ASSERT_TRUE(ParseCorpusCase("cores = 4\nhot_weight = 4294967295\n"
                              "seed = 18446744073709551615\n",
                              out, error))
      << error;
  EXPECT_EQ(out.params.trace.cores, 4u);
  EXPECT_EQ(out.params.trace.hot_weight, 4294967295u);
  EXPECT_EQ(out.params.trace.seed, 18446744073709551615u);
}

}  // namespace
}  // namespace redcache
