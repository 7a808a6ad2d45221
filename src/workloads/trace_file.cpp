#include "workloads/trace_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace redcache {

namespace {
constexpr char kMagic[4] = {'R', 'C', 'T', 'R'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 12;  // magic + version + num_cores

struct Record {
  std::uint8_t core;
  std::uint8_t flags;
  std::uint16_t gap;
  std::uint32_t pad;
  std::uint64_t addr;
};
static_assert(sizeof(Record) == 16, "RCTR record layout changed");
}  // namespace

struct TraceFileWriter::Impl {
  std::ofstream out;
};

TraceFileWriter::TraceFileWriter(const std::string& path,
                                 std::uint32_t num_cores)
    : impl_(std::make_unique<Impl>()) {
  impl_->out.open(path, std::ios::binary | std::ios::trunc);
  if (!impl_->out) {
    throw std::runtime_error("cannot create trace file: " + path);
  }
  char header[kHeaderBytes];
  std::memcpy(header, kMagic, sizeof(kMagic));
  std::memcpy(header + 4, &kVersion, 4);
  std::memcpy(header + 8, &num_cores, 4);
  impl_->out.write(header, sizeof(header));
}

TraceFileWriter::~TraceFileWriter() = default;

void TraceFileWriter::Append(std::uint32_t core, const MemRef& ref) {
  Record r{};
  r.core = static_cast<std::uint8_t>(core);
  r.flags = ref.is_write ? 1 : 0;
  r.gap = static_cast<std::uint16_t>(std::min<std::uint32_t>(ref.gap, 0xffff));
  r.addr = ref.addr;
  impl_->out.write(reinterpret_cast<const char*>(&r), sizeof(r));
  records_++;
}

void TraceFileWriter::CaptureAll(TraceSource& source) {
  bool progressed = true;
  MemRef ref;
  while (progressed) {
    progressed = false;
    for (std::uint32_t c = 0; c < source.num_cores(); ++c) {
      if (source.Next(c, ref)) {
        Append(c, ref);
        progressed = true;
      }
    }
  }
}

void TraceFileWriter::Flush() { impl_->out.flush(); }

StreamTraceSource::StreamTraceSource(const std::string& path)
    : name_("serve:" + path) {
  if (path == "-") {
    fd_ = STDIN_FILENO;
  } else {
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ < 0) {
      throw std::runtime_error("cannot open trace stream: " + path + ": " +
                               std::strerror(errno));
    }
    owns_fd_ = true;
    struct stat st;
    if (::fstat(fd_, &st) == 0 && S_ISREG(st.st_mode)) {
      regular_ = true;
      file_bytes_ = static_cast<std::uint64_t>(st.st_size);
    }
  }
  auto fail = [&](const char* what) {
    if (owns_fd_) ::close(fd_);
    throw std::runtime_error(what + path);
  };

  // Header: magic, version, num_cores. Block until all 12 bytes arrive.
  char header[kHeaderBytes];
  std::size_t got = 0;
  while (got < sizeof(header)) {
    const ssize_t n = ::read(fd_, header + got, sizeof(header) - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  if (got < sizeof(header) || std::memcmp(header, kMagic, 4) != 0) {
    fail("not a RedCache trace stream: ");
  }
  std::uint32_t version = 0;
  std::memcpy(&version, header + 4, 4);
  std::memcpy(&num_cores_, header + 8, 4);
  if (version != kVersion) fail("unsupported trace version on stream: ");
  if (num_cores_ == 0 || num_cores_ > 256) {
    fail("implausible core count on stream: ");
  }
  per_core_.resize(num_cores_);
  tail_.reserve(sizeof(Record));
}

StreamTraceSource::~StreamTraceSource() {
  if (owns_fd_ && fd_ >= 0) ::close(fd_);
}

void StreamTraceSource::Push(const char* bytes) {
  Record r;
  std::memcpy(&r, bytes, sizeof(r));
  if (r.core >= num_cores_) {
    throw std::runtime_error("stream record with out-of-range core");
  }
  MemRef ref;
  ref.addr = r.addr;
  ref.is_write = (r.flags & 1) != 0;
  ref.gap = std::max<std::uint16_t>(1, r.gap);
  per_core_[r.core].push_back(ref);
  total_records_++;
  lo_ = std::min(lo_, r.addr);
  hi_ = std::max(hi_, r.addr + kBlockBytes);
  footprint_ = hi_ - lo_;
}

bool StreamTraceSource::Ingest() {
  if (eof_) return false;
  if (StopRequested()) {
    eof_ = true;
    return false;
  }
  char buf[16 * 1024];
  ssize_t n;
  do {
    n = ::read(fd_, buf, sizeof(buf));
  } while (n < 0 && errno == EINTR && !StopRequested());
  if (n <= 0) {
    // EOF, stop-interrupted, or a hard error: all drain gracefully.
    eof_ = true;
    return false;
  }

  const char* p = buf;
  std::size_t left = static_cast<std::size_t>(n);
  // Complete any partial record carried from the previous read first.
  if (!tail_.empty()) {
    const std::size_t take = std::min(sizeof(Record) - tail_.size(), left);
    tail_.insert(tail_.end(), p, p + take);
    p += take;
    left -= take;
    if (tail_.size() < sizeof(Record)) return true;
    Push(tail_.data());
    tail_.clear();
  }
  for (; left >= sizeof(Record); p += sizeof(Record), left -= sizeof(Record)) {
    Push(p);
  }
  if (left > 0) tail_.assign(p, p + left);
  return true;
}

bool StreamTraceSource::Next(std::uint32_t core, MemRef& out) {
  if (core >= num_cores_) return false;
  while (per_core_[core].empty()) {
    if (!Ingest()) return false;
  }
  out = per_core_[core].front();
  per_core_[core].pop_front();
  return true;
}

void StreamTraceSource::SampleTelemetry(StatSet& out) const {
  out.Counter("serve.records") = total_records_;
  std::uint64_t queued = 0;
  for (const auto& q : per_core_) queued += q.size();
  out.Counter("gauge.serve.queue_depth") = queued;
  out.Counter("gauge.serve.eof") = eof_ ? 1 : 0;
  out.Counter("gauge.serve.stop_requested") = StopRequested() ? 1 : 0;
  out.Counter("gauge.serve.footprint_bytes") = footprint_;
}

template <class Self, class Ar>
void StreamTraceSource::Io(Self& s, Ar& a) {
  a.Section("rctr");
  std::uint32_t cores = s.num_cores_;
  std::uint64_t bytes = s.file_bytes_;
  // Every byte read is a parsed record or part of the carried tail, so
  // this is the offset of the first record not yet parsed. A tail only
  // exists just before EOF; re-reading it after Restore is equivalent.
  std::uint64_t offset = kHeaderBytes + s.total_records_ * sizeof(Record);
  a.U32(cores);
  a.U64(bytes);
  a.U64(offset);
  if constexpr (Ar::kReading) {
    if (cores != s.num_cores_) {
      throw ser::SerializeError("trace core-count mismatch in " + s.name_);
    }
    if (bytes != s.file_bytes_) {
      throw ser::SerializeError(
          "trace " + s.name_ + " is " + std::to_string(s.file_bytes_) +
          " bytes; the checkpoint was taken over " + std::to_string(bytes));
    }
    if (offset > s.file_bytes_) {
      throw ser::SerializeError("checkpoint read offset " +
                                std::to_string(offset) +
                                " is past the end of " + s.name_);
    }
    if (::lseek(s.fd_, static_cast<off_t>(offset), SEEK_SET) < 0) {
      throw ser::SerializeError("cannot seek " + s.name_ + ": " +
                                std::strerror(errno));
    }
    s.tail_.clear();
  }
  for (auto& q : s.per_core_) {
    a.Records(q, 13, [&a](auto& ref) {
      a.U64(ref.addr);
      a.U32(ref.gap);
      a.Bool(ref.is_write);
    });
  }
  a.U64(s.total_records_);
  a.U64(s.lo_);
  a.U64(s.hi_);
  if constexpr (Ar::kReading) {
    s.footprint_ = s.total_records_ == 0 ? 0 : s.hi_ - s.lo_;
  }
  a.Bool(s.eof_);
}

void StreamTraceSource::Snapshot(ser::Writer& w) const {
  if (!regular_) TraceSource::Snapshot(w);  // throws
  Io(*this, w);
}

void StreamTraceSource::Restore(ser::Reader& r) {
  if (!regular_) TraceSource::Restore(r);  // throws
  Io(*this, r);
}

}  // namespace redcache
