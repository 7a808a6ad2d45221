// Versioned whole-simulation checkpoint blobs.
//
// A checkpoint is System::Snapshot wrapped in a self-describing header:
// magic, format version, the producing run's spec key (CellKey over the
// RunSpec — preset fields, policy, workload, scale, seed, mix, cycle cap)
// and the capture cycle. RestoreInto refuses to restore into a System built
// from a different spec, so a stale or mismatched blob fails loudly instead
// of silently diverging.
//
// Producers: System::SetCheckpointHook (the run loop fires the hook at the
// top of an iteration, where every component sits at a cycle boundary) and
// the SMARTS sampler (sim/sampling.hpp), which captures a checkpoint at
// every measurement-interval start during the functional fast-forward pass.
#pragma once

#include <string>

#include "common/serialize.hpp"
#include "common/types.hpp"
#include "sim/runner.hpp"
#include "sim/system.hpp"

namespace redcache::ckpt {

/// Bump when the blob layout (header or any component's Snapshot encoding)
/// changes; a version mismatch on restore throws instead of misreading.
/// v3: the payload checksum folds each word's high bits down (Fnv64).
constexpr std::uint32_t kCheckpointVersion = 3;

struct CheckpointMeta {
  std::uint32_t version = 0;
  std::string spec_key;  ///< CellKey of the producing RunSpec
  Cycle cycle = 0;       ///< capture cycle (the next Run resumes here)
};

/// The compatibility key a spec's checkpoints carry: CellKey over the spec,
/// which covers every result-affecting input (preset fields, policy,
/// workload, effective scale, seed, mix descriptor, cycle cap).
std::string SpecKeyOf(const RunSpec& spec);

/// Serialize `sys` at cycle `now` into a blob keyed by `spec_key`.
std::string Capture(const System& sys, Cycle now, const std::string& spec_key);

/// Parse just the header. Throws ser::SerializeError on anything that is
/// not a well-formed checkpoint of a known version.
CheckpointMeta PeekMeta(const std::string& blob);

/// Restore `sys` (freshly built from the same RunSpec) from `blob`.
/// Verifies the magic, version and spec key before touching `sys`; throws
/// ser::SerializeError on mismatch or corruption.
CheckpointMeta RestoreInto(System& sys, const std::string& blob,
                           const std::string& spec_key);

/// File transport. SaveFile throws std::runtime_error on I/O failure;
/// LoadFile throws on a missing/unreadable path.
void SaveFile(const std::string& path, const std::string& blob);
std::string LoadFile(const std::string& path);

}  // namespace redcache::ckpt
