// Uniform binary serialization for checkpointable simulation state.
//
// Each checkpointed component lists its layout once, in a static template
// `Io(Self& s, Ar& a)` serving both directions: Writer and Reader share
// the calls (`a.U64(s.field)`, `Section`, `U64Seq`, `Records`, `Part`),
// the Reader filling by reference what the Writer takes by value; `Self`
// is const when writing. Restore-only checks, derived-state rebuilds and
// bulk record loops sit under `if constexpr (Ar::kReading)`. The public
// Snapshot(Writer&) const / Restore(Reader&) forward to Io, so a whole
// simulation serializes to one versioned blob (sim/checkpoint.hpp), and
// the disk result cache shares the encoding and the checksummed frame
// (common/hash.hpp). Configuration (geometry, policy parameters) is not
// serialized: Restore runs on a component freshly built from the same
// RunSpec. Derived state may be recomputed on restore instead, as long as
// later behavior is bit-identical.
//
// The encoding is deliberately dumb: little-endian fixed-width integers,
// IEEE-754 bit patterns for doubles, length-prefixed strings. No varints,
// no alignment, no reflection. What it adds over raw memcpy:
//
//  - Section tags. Writer::Section(name) emits a 32-bit FNV-1a hash of the
//    section name; Reader::Section(name) verifies it. A reader that drifts
//    out of sync with the writer (schema skew, truncation, corruption)
//    fails loudly at the next section boundary with both names' context
//    instead of silently reinterpreting bytes.
//  - Bounds checking. Every read validates the remaining byte count and
//    throws SerializeError instead of running off the buffer, so a corrupt
//    or truncated blob can never fault — callers treat the exception as a
//    cache miss / unusable checkpoint.
//
// Endianness: bytes are composed and decomposed arithmetically, so the
// format is identical on any host.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace redcache::ser {

/// Thrown on any malformed input: truncation, a section-tag mismatch, an
/// impossible length, a version the reader does not understand.
class SerializeError : public std::runtime_error {
 public:
  explicit SerializeError(const std::string& what)
      : std::runtime_error("serialize: " + what) {}
};

/// Encode/decode one little-endian U64 at `p` — the same byte layout
/// Writer::U64/Reader::U64 use, for bulk record loops over Raw() spans.
inline void PutU64(std::uint8_t* p, std::uint64_t v) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // The wire format IS the little-endian host layout: a single 8-byte
  // store instead of a byte-compose loop the compiler won't vectorize.
  __builtin_memcpy(p, &v, 8);
#else
  for (int i = 0; i < 8; ++i) p[i] = (v >> (8 * i)) & 0xff;
#endif
}
inline std::uint64_t GetU64(const std::uint8_t* p) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  std::uint64_t v;
  __builtin_memcpy(&v, p, 8);
  return v;
#else
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
#endif
}

/// FNV-1a over the section name — the 32-bit guard tag.
constexpr std::uint32_t NameTag(const char* name) {
  std::uint32_t h = 2166136261u;
  for (const char* p = name; *p != '\0'; ++p) {
    h ^= static_cast<std::uint32_t>(static_cast<unsigned char>(*p));
    h *= 16777619u;
  }
  return h;
}

class Writer {
 public:
  static constexpr bool kReading = false;

  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U32(std::uint32_t v) {
    // Compose on the stack, append in one call: checkpoint blobs are
    // megabytes of fixed-width integers, and per-byte push_back (eight
    // capacity checks per U64) dominated snapshot capture time.
    std::uint8_t b[4];
    for (int i = 0; i < 4; ++i) b[i] = (v >> (8 * i)) & 0xff;
    buf_.insert(buf_.end(), b, b + 4);
  }
  void U64(std::uint64_t v) {
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = (v >> (8 * i)) & 0xff;
    buf_.insert(buf_.end(), b, b + 8);
  }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void F64(double v) {
    static_assert(sizeof(double) == 8);
    std::uint64_t bits;
    __builtin_memcpy(&bits, &v, 8);
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  /// Guard tag; pair with Reader::Section(name) at the same point.
  void Section(const char* name) { U32(NameTag(name)); }

  /// Bulk append: grows the buffer by `n` bytes and returns a pointer to
  /// them. For hot fixed-record loops (cache line arrays) where per-field
  /// calls dominate — fill with PutU64 / raw byte stores using the same
  /// little-endian layout. The pointer is invalidated by the next write.
  std::uint8_t* Raw(std::size_t n) {
    const std::size_t off = buf_.size();
    buf_.resize(off + n);
    return buf_.data() + off;
  }

  /// Length-prefixed sequences of uniform integral elements. The size
  /// error is the Reader's (see Reader::U64Seq).
  template <typename Seq>
  void U64Seq(const Seq& seq, const char* /*size_error*/ = nullptr) {
    U64(seq.size());
    std::uint8_t* p = Raw(8 * seq.size());
    for (const auto& v : seq) {
      PutU64(p, static_cast<std::uint64_t>(v));
      p += 8;
    }
  }
  template <typename Seq>
  void U8Seq(const Seq& seq, const char* /*size_error*/ = nullptr) {
    U64(seq.size());
    std::uint8_t* p = Raw(seq.size());
    for (const auto& v : seq) *p++ = static_cast<std::uint8_t>(v);
  }

  /// Length-prefixed records, each written by `record(element)`; see
  /// Reader::Records for the arguments only the reader uses.
  template <typename Seq, typename Fn>
  void Records(const Seq& seq, std::size_t /*min_record_bytes*/, Fn&& record,
               const char* /*size_error*/ = nullptr) {
    U64(seq.size());
    for (const auto& e : seq) record(e);
  }
  /// Length-prefixed map entries, each written by `entry(key, value)`.
  template <typename M, typename Fn>
  void Map(const M& map, std::size_t /*min_entry_bytes*/, Fn&& entry) {
    U64(map.size());
    for (const auto& [key, value] : map) entry(key, value);
  }

  /// A checkpointed sub-component: writes it with its own Snapshot.
  template <typename T>
  void Part(const T& part) {
    part.Snapshot(*this);
  }

  /// Capacity hint for blob-sized writes: reserving the expected size up
  /// front avoids the growth reallocations that otherwise dominate a
  /// megabyte-scale snapshot.
  void Reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

  /// Overwrite 8 already-written bytes at `off` (e.g. a checksum
  /// placeholder patched after the payload it covers is known).
  void PatchU64(std::size_t off, std::uint64_t v) {
    if (off + 8 > buf_.size()) {
      throw SerializeError("PatchU64 offset past the written bytes");
    }
    PutU64(buf_.data() + off, v);
  }

  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  /// The accumulated bytes as a std::string (checkpoint blobs, cache files).
  std::string TakeString() {
    std::string out(buf_.begin(), buf_.end());
    buf_.clear();
    return out;
  }

 private:
  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const std::string& bytes)
      : data_(reinterpret_cast<const std::uint8_t*>(bytes.data())),
        size_(bytes.size()) {}

  static constexpr bool kReading = true;

  std::uint8_t U8() {
    Need(1);
    return data_[pos_++];
  }
  std::uint32_t U32() {
    Need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    }
    return v;
  }
  std::uint64_t U64() {
    Need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    }
    return v;
  }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  bool Bool() { return U8() != 0; }
  double F64() {
    const std::uint64_t bits = U64();
    double v;
    __builtin_memcpy(&v, &bits, 8);
    return v;
  }
  std::string Str() {
    const std::uint64_t n = U64();
    Need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  /// By-reference mirrors of the Writer calls, for Io functions.
  template <typename T>
  void U8(T& v) {
    v = static_cast<T>(U8());
  }
  template <typename T>
  void U32(T& v) {
    v = static_cast<T>(U32());
  }
  template <typename T>
  void U64(T& v) {
    v = static_cast<T>(U64());
  }
  template <typename T>
  void I64(T& v) {
    v = static_cast<T>(I64());
  }
  void Bool(bool& v) { v = Bool(); }
  void F64(double& v) { v = F64(); }
  void Str(std::string& s) { s = Str(); }

  /// Verify the guard tag written by Writer::Section(name); throws with the
  /// expected section name on mismatch.
  void Section(const char* name) {
    const std::uint32_t got = U32();
    if (got != NameTag(name)) {
      throw SerializeError(std::string("section tag mismatch at \"") + name +
                           "\" (stream is misaligned or corrupt)");
    }
  }

  /// A sequence length that must be storable: guards against a corrupt
  /// length field causing a giant allocation. Each element still needs at
  /// least `min_elem_bytes` bytes in the remaining stream.
  std::size_t SeqLen(std::size_t min_elem_bytes = 1) {
    const std::uint64_t n = U64();
    if (min_elem_bytes != 0 && n > (size_ - pos_) / min_elem_bytes) {
      throw SerializeError("sequence length " + std::to_string(n) +
                           " exceeds remaining input");
    }
    return static_cast<std::size_t>(n);
  }

  /// Sequences written by Writer::U64Seq / U8Seq. Without `size_error` the
  /// container is resized to the stored length; with it, the container's
  /// size is geometry and a different stored length throws `size_error`.
  template <typename Seq>
  void U64Seq(Seq& seq, const char* size_error = nullptr) {
    const std::size_t n = FixLen(seq, SeqLen(8), size_error);
    const std::uint8_t* p = Raw(8 * n);
    for (std::size_t i = 0; i < n; ++i) {
      seq[i] = static_cast<typename Seq::value_type>(GetU64(p + 8 * i));
    }
  }
  template <typename Seq>
  void U8Seq(Seq& seq, const char* size_error = nullptr) {
    const std::size_t n = FixLen(seq, SeqLen(1), size_error);
    const std::uint8_t* p = Raw(n);
    for (std::size_t i = 0; i < n; ++i) {
      seq[i] = static_cast<typename Seq::value_type>(p[i]);
    }
  }

  /// Records written by Writer::Records; `record(element)` reads one. Each
  /// record takes at least `min_record_bytes` (0: no length plausibility
  /// check). Without `size_error` the container is refilled with the stored
  /// records; with it, the stored count must equal the container's size
  /// and the records overwrite its elements in place.
  template <typename Seq, typename Fn>
  void Records(Seq& seq, std::size_t min_record_bytes, Fn&& record,
               const char* size_error = nullptr) {
    if (size_error == nullptr) seq.clear();  // refill value-initialized
    FixLen(seq, SeqLen(min_record_bytes), size_error);
    for (auto& e : seq) record(e);
  }
  /// Map entries written by Writer::Map; replaces the map's contents.
  template <typename M, typename Fn>
  void Map(M& map, std::size_t min_entry_bytes, Fn&& entry) {
    map.clear();
    for (std::size_t i = SeqLen(min_entry_bytes); i > 0; --i) {
      typename M::key_type key;
      typename M::mapped_type value = typename M::mapped_type();
      entry(key, value);
      // Entries arrive in key order, so the end hint makes this O(1).
      map.insert_or_assign(map.end(), std::move(key), std::move(value));
    }
  }

  /// A checkpointed sub-component: reads it with its own Restore.
  template <typename T>
  void Part(T& part) {
    part.Restore(*this);
  }

  /// Bulk read: bounds-checks and consumes `n` bytes, returning a pointer
  /// to them. Decode with GetU64 / raw byte loads; the counterpart of
  /// Writer::Raw.
  const std::uint8_t* Raw(std::size_t n) {
    Need(n);
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }
  /// Assert the whole input was consumed (trailing garbage => corrupt).
  void ExpectEnd() const {
    if (!AtEnd()) {
      throw SerializeError(std::to_string(remaining()) +
                           " trailing bytes after the last field");
    }
  }

 private:
  template <typename Seq>
  static std::size_t FixLen(Seq& seq, std::size_t n, const char* size_error) {
    if (size_error == nullptr) {
      seq.resize(n);
    } else if (n != seq.size()) {
      throw SerializeError(size_error);
    }
    return n;
  }
  void Need(std::uint64_t n) const {
    if (n > size_ - pos_) {
      throw SerializeError("input truncated (need " + std::to_string(n) +
                           " bytes, have " + std::to_string(size_ - pos_) +
                           ")");
    }
  }
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace redcache::ser
