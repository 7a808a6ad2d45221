// Golden-stats regression harness.
//
// Snapshots the key RunResult counters for a set of (arch, workload,
// preset) configurations into a deterministic JSON file under
// tests/verify/golden/. The test re-runs every configuration and fails on
// any counter drift; intentional behaviour changes regenerate the file with
//
//   REDCACHE_UPDATE_GOLDEN=1 ctest -R golden
//
// The JSON is hand-rolled (sorted keys, fixed layout, integers only) so a
// regeneration with unchanged behaviour is byte-identical and diffs stay
// reviewable.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/runner.hpp"

namespace redcache {

/// counters keyed by name, for one configuration.
using GoldenRecord = std::map<std::string, std::uint64_t>;
/// records keyed by GoldenKey(spec).
using GoldenTable = std::map<std::string, GoldenRecord>;

/// The counters a golden record tracks; chosen to pin end-to-end behaviour
/// (timing, hit rates, traffic split) without over-constraining internals.
const std::vector<std::string>& GoldenTrackedCounters();

/// "<arch>/<workload>/<preset>@scale=<s>,seed=<n>" — stable map key.
std::string GoldenKey(const RunSpec& spec);

/// Run `spec` and extract the tracked counters.
GoldenRecord CollectGolden(const RunSpec& spec);

std::string SerializeGolden(const GoldenTable& table);
/// Parse SerializeGolden output with obs::ParseJson: an object of objects
/// whose values are whole numbers in [0, 2^53]. Returns false and sets
/// `error` on anything else.
bool ParseGolden(const std::string& text, GoldenTable& out,
                 std::string& error);

bool ReadGoldenFile(const std::string& path, GoldenTable& out,
                    std::string& error);
bool WriteGoldenFile(const std::string& path, const GoldenTable& table);

/// Differences between an expected and an actual table, as readable lines
/// ("key: counter expected X, got Y" / missing / unexpected entries).
std::vector<std::string> DiffGolden(const GoldenTable& expected,
                                    const GoldenTable& actual);

}  // namespace redcache
