// Lightweight statistics collection.
//
// Every simulated component owns named counters and histograms registered in
// a StatSet. Benches and tests read them by name; the registry supports
// hierarchical prefixes ("hbm.chan0.act") and snapshot/diff so a benchmark
// can measure a region of execution.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/serialize.hpp"

namespace redcache {

/// Numeric-aware name ordering: digit runs compare by value, so
/// "hbm.chan2.act" sorts before "hbm.chan10.act" and hierarchical names
/// group the way a human reads them. Used for dumps and telemetry output
/// only — StatSet's internal map stays lexicographic, because snapshot
/// serialization (checkpoints, cache entries) depends on that order.
bool NaturalNameLess(const std::string& a, const std::string& b);

/// A fixed-width bucketed histogram over uint64 samples.
class Histogram {
 public:
  /// `bucket_width` >= 1; values >= bucket_width*num_buckets go to overflow.
  Histogram(std::uint64_t bucket_width = 1, std::size_t num_buckets = 64);

  void Add(std::uint64_t value, std::uint64_t weight = 1);

  std::uint64_t total_samples() const { return total_samples_; }
  std::uint64_t total_weight() const { return total_weight_; }
  std::uint64_t overflow() const { return overflow_; }
  std::size_t num_buckets() const { return buckets_.size(); }
  std::uint64_t bucket_width() const { return bucket_width_; }
  std::uint64_t bucket(std::size_t i) const { return buckets_[i]; }
  double weighted_sum() const { return weighted_sum_; }

  /// Checkpointing (by value, not virtual — histograms live in value-typed
  /// maps). Restore overwrites the full state, including geometry, so a
  /// default-constructed histogram restores to an exact copy of the
  /// snapshotted one.
  void Snapshot(ser::Writer& w) const;
  void Restore(ser::Reader& r);

  /// Mean of the weighted samples (0 if empty).
  double Mean() const;
  /// Smallest v such that >= q of total weight lies in buckets <= v.
  std::uint64_t Quantile(double q) const;

  void Clear();

 private:
  template <class Self, class Ar>
  static void Io(Self& s, Ar& a);

  std::uint64_t bucket_width_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_samples_ = 0;
  std::uint64_t total_weight_ = 0;
  double weighted_sum_ = 0.0;
};

/// Named counters + histograms. Cheap to copy (snapshot).
class StatSet {
 public:
  /// Returns a reference valid until the StatSet is destroyed or copied.
  std::uint64_t& Counter(const std::string& name);
  std::uint64_t GetCounter(const std::string& name) const;
  bool HasCounter(const std::string& name) const;

  Histogram& Hist(const std::string& name, std::uint64_t bucket_width = 1,
                  std::size_t num_buckets = 64);
  const Histogram* FindHist(const std::string& name) const;

  /// All counters, sorted by name.
  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }

  /// All histograms, sorted by name.
  const std::map<std::string, Histogram>& hists() const { return hists_; }

  /// this - other for every counter present in this (missing treated as 0).
  StatSet Diff(const StatSet& other) const;

  /// Merge `other` into this, adding counters and prefixing names.
  void Absorb(const StatSet& other, const std::string& prefix);

  /// Zero every counter, keeping the names (a reused snapshot zeroes its
  /// values before its exporters write them again).
  void ZeroCounters();

  void Clear();

  std::string ToString() const;

  /// Checkpointing: counters and histograms, in the map's lexicographic
  /// order.
  void Snapshot(ser::Writer& w) const;
  /// Replaces the whole contents with the snapshotted set.
  void Restore(ser::Reader& r);

 private:
  template <class Self, class Ar>
  static void Io(Self& s, Ar& a);

  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, Histogram> hists_;
};

}  // namespace redcache
