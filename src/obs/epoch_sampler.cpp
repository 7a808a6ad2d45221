#include "obs/epoch_sampler.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <limits>
#include <string_view>

#include "obs/adaptive_epoch.hpp"
#include "obs/telemetry_sink.hpp"

namespace redcache::obs {

namespace {

bool IsGauge(const std::string& name) {
  return name.rfind(kGaugePrefix, 0) == 0;
}

std::string StripGauge(const std::string& name) {
  return name.substr(std::strlen(kGaugePrefix));
}

/// Set `key` to `value` in the sorted map `m` and step the walk position
/// `it` past it. Entries stepped over hold names the cumulative set no
/// longer has and are dropped, so a reused record ends up with exactly the
/// names a fresh one would.
template <class Map>
void Put(Map& m, typename Map::iterator& it, std::string_view key,
         typename Map::mapped_type value) {
  while (it != m.end() && it->first < key) it = m.erase(it);
  if (it == m.end() || it->first != key) {
    it = m.emplace_hint(it, key, value);
  } else {
    it->second = value;
  }
  ++it;
}

/// The gauge an adaptive sampler adds to every record.
constexpr const char* kWidthGauge = "telemetry.epoch_cycles";

std::int64_t DeltaOf(const EpochRecord& e, const char* name) {
  const auto it = e.delta.find(name);
  return it == e.delta.end() ? 0 : it->second;
}

/// A whole decimal cycle count: no sign, blank or suffix, within 64 bits.
bool ParseCycles(const std::string& text, Cycle& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// `at + width`, pinned at the largest cycle instead of wrapping into the
/// past (a huge --epoch after a late restore would otherwise make every
/// later cycle due).
Cycle NextDue(Cycle at, Cycle width) {
  constexpr Cycle kLast = std::numeric_limits<Cycle>::max();
  return width > kLast - at ? kLast : at + width;
}

}  // namespace

DerivedMetrics DeriveMetrics(const EpochRecord& e) {
  DerivedMetrics d;
  const double hits = static_cast<double>(DeltaOf(e, "ctrl.cache_hits"));
  const double misses = static_cast<double>(DeltaOf(e, "ctrl.cache_misses"));
  const double bypasses =
      static_cast<double>(DeltaOf(e, "ctrl.alpha_bypasses") +
                          DeltaOf(e, "ctrl.refresh_bypasses"));
  const double lookups = hits + misses + bypasses;
  if (lookups > 0) {
    d.hit_rate = hits / lookups;
    d.bypass_rate = bypasses / lookups;
  }
  const Cycle span = e.end - e.begin;
  if (span > 0) {
    std::int64_t bytes = 0;
    for (const auto& [name, delta] : e.delta) {
      if (name.size() > 18 &&
          name.compare(name.size() - 18, 18, ".bytes_transferred") == 0) {
        bytes += delta;
      }
    }
    d.bw_bytes_per_cycle =
        static_cast<double>(bytes) / static_cast<double>(span);
  }
  return d;
}

bool ParseEpochSpec(const std::string& text, EpochSpec& out) {
  EpochSpec spec;
  if (text == "auto") {
    spec.adaptive = true;
  } else if (text.rfind("auto:", 0) == 0) {
    // "auto:MIN:MAX" — explicit clamp band in cycles.
    const std::size_t colon = text.find(':', 5);
    if (colon == std::string::npos) return false;
    spec.adaptive = true;
    if (!ParseCycles(text.substr(5, colon - 5), spec.min_cycles) ||
        !ParseCycles(text.substr(colon + 1), spec.max_cycles) ||
        spec.min_cycles < 1 || spec.max_cycles < spec.min_cycles) {
      return false;
    }
  } else if (!ParseCycles(text, spec.cycles) || spec.cycles < 1) {
    return false;
  }
  out = spec;
  return true;
}

EpochSampler::EpochSampler(Cycle epoch_cycles)
    : epoch_cycles_(std::max<Cycle>(epoch_cycles, 1)),
      next_due_(std::max<Cycle>(epoch_cycles, 1)),
      min_width_used_(epoch_cycles_),
      max_width_used_(epoch_cycles_) {}

EpochSampler::~EpochSampler() = default;

void EpochSampler::EnableAdaptive(const AdaptiveEpochConfig& cfg) {
  adaptive_ = std::make_unique<AdaptiveEpochController>(cfg);
}

void EpochSampler::SetSink(TelemetrySink* sink, bool retain_epochs) {
  sink_ = sink;
  retain_ = retain_epochs;
}

void EpochSampler::SeedBaseline(Cycle at, const StatSet& cumulative) {
  restored_ = true;
  restored_at_ = at;
  // Epoch boundaries resume from the restored cycle, not the nominal grid:
  // a restore under different epoch settings must not fabricate a giant
  // first epoch spanning [0, at) or a burst of degenerate ones.
  last_sample_ = at;
  next_due_ = NextDue(at, epoch_cycles_);
  baseline_.clear();
  for (const auto& [name, value] : cumulative.counters()) {
    if (IsGauge(name)) continue;
    baseline_[name] = value;
    prev_[name] = value;
  }
}

void EpochSampler::Record(Cycle now, const StatSet& cumulative) {
  // A streamed run keeps one record and overwrites it in place, so an
  // epoch allocates no map nodes once the names are known (bounded memory
  // for arbitrarily long runs; Finalize's gauge-refresh path still needs
  // the record). A retained run starts each record empty.
  if (retain_ || epochs_.empty()) epochs_.emplace_back();
  EpochRecord& rec = epochs_.back();
  rec.begin = last_sample_;
  rec.end = now;
  // One merge walk over the sorted names writes the record and moves the
  // baseline: delta names are the non-gauge counter names and gauge names
  // the stripped gauge names, both in counter order.
  auto d = rec.delta.begin();
  auto g = rec.gauges.begin();
  auto p = prev_.begin();
  const std::size_t prefix = std::strlen(kGaugePrefix);
  for (const auto& [name, value] : cumulative.counters()) {
    if (IsGauge(name)) {
      Put(rec.gauges, g, std::string_view(name).substr(prefix), value);
      continue;
    }
    while (p != prev_.end() && p->first < name) ++p;
    if (p == prev_.end() || p->first != name) {
      p = prev_.emplace_hint(p, name, 0);
    }
    const auto before = static_cast<std::int64_t>(p->second);
    Put(rec.delta, d, name, static_cast<std::int64_t>(value) - before);
    (p++)->second = value;
  }
  rec.delta.erase(d, rec.delta.end());
  rec.gauges.erase(g, rec.gauges.end());
  if (adaptive_) {
    // Make the width that produced this record part of the record, so the
    // adaptive narrowing is visible in every exported series. Only when
    // adaptation is on: fixed-epoch output stays byte-identical.
    rec.gauges[kWidthGauge] = epoch_cycles_;
  }
  min_width_used_ = std::min(min_width_used_, epoch_cycles_);
  max_width_used_ = std::max(max_width_used_, epoch_cycles_);
  total_epochs_++;
  if (sink_) sink_->WriteLine(NdjsonEpochLine(total_epochs_ - 1, rec));
  last_sample_ = now;
}

void EpochSampler::Sample(Cycle now, const StatSet& cumulative) {
  Record(now, cumulative);
  if (adaptive_) {
    epoch_cycles_ = adaptive_->Update(epochs_.back(), epoch_cycles_);
  }
  // Schedule from the sample that actually happened, not the nominal grid:
  // the event-paced loop can overshoot a boundary by a whole idle gap, and
  // grid-aligned scheduling would then emit a burst of degenerate epochs.
  next_due_ = NextDue(now, epoch_cycles_);
}

void EpochSampler::Finalize(Cycle end, const StatSet& cumulative) {
  if (end <= last_sample_) {
    // Run ended exactly on (or before) a sample; refresh the final gauges
    // on the last record instead of emitting an empty epoch.
    if (!epochs_.empty()) {
      for (const auto& [name, value] : cumulative.counters()) {
        if (IsGauge(name)) epochs_.back().gauges[StripGauge(name)] = value;
      }
    }
    return;
  }
  Record(end, cumulative);
}

}  // namespace redcache::obs
