#include "sim/checkpoint.hpp"

#include <atomic>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/hash.hpp"
#include "sim/batch.hpp"

namespace redcache::ckpt {

namespace {

constexpr char kMagic[4] = {'R', 'C', 'K', 'P'};

/// Reads magic + version; leaves the reader at the checksummed frame
/// (common/hash.hpp) around the payload (spec_key, cycle, state), so any
/// flipped bit in a blob is rejected deterministically instead of
/// depending on a section tag happening to misalign.
void ReadPreamble(ser::Reader& r) {
  for (const char c : kMagic) {
    if (r.U8() != static_cast<std::uint8_t>(c)) {
      throw ser::SerializeError("not a checkpoint file (bad magic)");
    }
  }
  const std::uint32_t version = r.U32();
  if (version != kCheckpointVersion) {
    throw ser::SerializeError(
        "checkpoint format v" + std::to_string(version) +
        " is not supported (expected v" + std::to_string(kCheckpointVersion) +
        ")");
  }
}

CheckpointMeta ReadMeta(ser::Reader& r) {
  CheckpointMeta meta;
  meta.version = kCheckpointVersion;
  meta.spec_key = r.Str();
  meta.cycle = r.U64();
  return meta;
}

}  // namespace

std::string SpecKeyOf(const RunSpec& spec) {
  return CellKey(CellSpec{spec, /*variant=*/""});
}

std::string Capture(const System& sys, Cycle now,
                    const std::string& spec_key) {
  // Blob sizes are stable across captures of the same run, so remember the
  // last payload size as the reserve hint — sampled runs capture dozens of
  // megabyte-scale blobs and growth reallocations dominated without it.
  static std::atomic<std::size_t> size_hint{1 << 16};

  ser::Writer w;
  w.Reserve(size_hint.load(std::memory_order_relaxed) + 1024);
  for (const char c : kMagic) w.U8(static_cast<std::uint8_t>(c));
  w.U32(kCheckpointVersion);
  ser::WriteChecksummed(w, [&] {
    w.Str(spec_key);
    w.U64(now);
    sys.Snapshot(w, now);
  });
  size_hint.store(w.buffer().size(), std::memory_order_relaxed);
  return w.TakeString();
}

CheckpointMeta PeekMeta(const std::string& blob) {
  ser::Reader r(blob);
  ReadPreamble(r);
  (void)r.U64();  // Peek does not pay for a full-payload checksum walk.
  return ReadMeta(r);
}

CheckpointMeta RestoreInto(System& sys, const std::string& blob,
                           const std::string& spec_key) {
  ser::Reader r(blob);
  ReadPreamble(r);
  if (!ser::ChecksumMatches(r)) {
    throw ser::SerializeError("checkpoint payload checksum mismatch "
                              "(file is corrupt)");
  }
  const CheckpointMeta meta = ReadMeta(r);
  if (meta.spec_key != spec_key) {
    throw ser::SerializeError(
        "checkpoint was captured for a different run configuration\n"
        "  checkpoint: " +
        meta.spec_key + "\n  this run:   " + spec_key);
  }
  sys.Restore(r);
  r.ExpectEnd();
  return meta;
}

void SaveFile(const std::string& path, const std::string& blob) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot open checkpoint file for writing: " +
                             path);
  }
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  if (!out) {
    throw std::runtime_error("short write to checkpoint file: " + path);
  }
}

std::string LoadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open checkpoint file: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

}  // namespace redcache::ckpt
