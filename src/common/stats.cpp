#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace redcache {

bool NaturalNameLess(const std::string& a, const std::string& b) {
  std::size_t i = 0, j = 0;
  const auto digit = [](char c) { return c >= '0' && c <= '9'; };
  while (i < a.size() && j < b.size()) {
    if (digit(a[i]) && digit(b[j])) {
      std::size_t ia = i, jb = j;
      while (ia < a.size() && digit(a[ia])) ia++;
      while (jb < b.size() && digit(b[jb])) jb++;
      // Compare the digit runs by value: longer run of significant digits
      // wins; equal lengths compare lexically (which is numeric here).
      std::size_t pa = i, pb = j;
      while (pa < ia && a[pa] == '0') pa++;
      while (pb < jb && b[pb] == '0') pb++;
      const std::size_t la = ia - pa, lb = jb - pb;
      if (la != lb) return la < lb;
      const int cmp = a.compare(pa, la, b, pb, lb);
      if (cmp != 0) return cmp < 0;
      // Equal values: fewer leading zeros first, for a total order.
      if (ia - i != jb - j) return ia - i < jb - j;
      i = ia;
      j = jb;
      continue;
    }
    if (a[i] != b[j]) return a[i] < b[j];
    i++;
    j++;
  }
  return a.size() - i < b.size() - j;
}

Histogram::Histogram(std::uint64_t bucket_width, std::size_t num_buckets)
    : bucket_width_(bucket_width == 0 ? 1 : bucket_width),
      buckets_(num_buckets == 0 ? 1 : num_buckets, 0) {}

void Histogram::Add(std::uint64_t value, std::uint64_t weight) {
  const std::uint64_t idx = value / bucket_width_;
  if (idx < buckets_.size()) {
    buckets_[idx] += weight;
  } else {
    overflow_ += weight;
  }
  total_samples_ += 1;
  total_weight_ += weight;
  weighted_sum_ += static_cast<double>(value) * static_cast<double>(weight);
}

double Histogram::Mean() const {
  if (total_weight_ == 0) return 0.0;
  return weighted_sum_ / static_cast<double>(total_weight_);
}

std::uint64_t Histogram::Quantile(double q) const {
  if (total_weight_ == 0) return 0;
  // Smallest positive rank at or past the requested quantile. Flooring here
  // (and a plain cast for q=0) yielded target 0, which made the scan stop at
  // bucket 0 even when it was empty — Quantile(0) must be the end of the
  // first bucket that actually observed weight.
  const double scaled = q * static_cast<double>(total_weight_);
  const auto target =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(scaled)));
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    acc += buckets_[i];
    if (acc >= target) return (i + 1) * bucket_width_ - 1;
  }
  return buckets_.size() * bucket_width_;  // in overflow
}

template <class Self, class Ar>
void Histogram::Io(Self& s, Ar& a) {
  a.Section("hist");
  a.U64(s.bucket_width_);
  a.U64Seq(s.buckets_);
  if constexpr (Ar::kReading) {
    if (s.bucket_width_ == 0) s.bucket_width_ = 1;
    if (s.buckets_.empty()) s.buckets_.assign(1, 0);
  }
  a.U64(s.overflow_);
  a.U64(s.total_samples_);
  a.U64(s.total_weight_);
  a.F64(s.weighted_sum_);
}

void Histogram::Snapshot(ser::Writer& w) const { Io(*this, w); }
void Histogram::Restore(ser::Reader& r) { Io(*this, r); }

void Histogram::Clear() {
  for (auto& b : buckets_) b = 0;
  overflow_ = 0;
  total_samples_ = 0;
  total_weight_ = 0;
  weighted_sum_ = 0.0;
}

std::uint64_t& StatSet::Counter(const std::string& name) {
  return counters_[name];
}

std::uint64_t StatSet::GetCounter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

bool StatSet::HasCounter(const std::string& name) const {
  return counters_.count(name) != 0;
}

Histogram& StatSet::Hist(const std::string& name, std::uint64_t bucket_width,
                         std::size_t num_buckets) {
  auto it = hists_.find(name);
  if (it == hists_.end()) {
    it = hists_.emplace(name, Histogram(bucket_width, num_buckets)).first;
  }
  return it->second;
}

const Histogram* StatSet::FindHist(const std::string& name) const {
  auto it = hists_.find(name);
  return it == hists_.end() ? nullptr : &it->second;
}

StatSet StatSet::Diff(const StatSet& other) const {
  StatSet out;
  for (const auto& [name, value] : counters_) {
    out.Counter(name) = value - other.GetCounter(name);
  }
  return out;
}

void StatSet::Absorb(const StatSet& other, const std::string& prefix) {
  for (const auto& [name, value] : other.counters_) {
    counters_[prefix + name] += value;
  }
  for (const auto& [name, hist] : other.hists_) {
    hists_.emplace(prefix + name, hist);
  }
}

void StatSet::ZeroCounters() {
  for (auto& [name, v] : counters_) v = 0;
}

void StatSet::Clear() {
  counters_.clear();
  hists_.clear();
}

template <class Self, class Ar>
void StatSet::Io(Self& s, Ar& a) {
  a.Section("stats");
  // Each entry holds at least a name's length prefix and 8 more bytes.
  a.Map(s.counters_, 16, [&a](auto& name, auto& value) {
    a.Str(name);
    a.U64(value);
  });
  a.Map(s.hists_, 16, [&a](auto& name, auto& hist) {
    a.Str(name);
    a.Part(hist);
  });
}

void StatSet::Snapshot(ser::Writer& w) const { Io(*this, w); }
void StatSet::Restore(ser::Reader& r) { Io(*this, r); }

std::string StatSet::ToString() const {
  // Human-facing dump: natural order groups "chan2" before "chan10".
  std::vector<const std::map<std::string, std::uint64_t>::value_type*> sorted;
  sorted.reserve(counters_.size());
  for (const auto& kv : counters_) sorted.push_back(&kv);
  std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
    return NaturalNameLess(a->first, b->first);
  });
  std::ostringstream os;
  for (const auto* kv : sorted) {
    os << kv->first << " = " << kv->second << '\n';
  }
  return os.str();
}

}  // namespace redcache
