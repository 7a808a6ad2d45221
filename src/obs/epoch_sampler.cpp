#include "obs/epoch_sampler.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include "obs/adaptive_epoch.hpp"
#include "obs/json.hpp"
#include "obs/telemetry_sink.hpp"

namespace redcache::obs {

namespace {

bool IsGauge(const std::string& name) {
  return name.rfind(kGaugePrefix, 0) == 0;
}

std::string StripGauge(const std::string& name) {
  return name.substr(std::strlen(kGaugePrefix));
}

/// Printed with enough digits to round-trip; trailing-zero trimmed.
std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::int64_t DeltaOf(const EpochRecord& e, const char* name) {
  const auto it = e.delta.find(name);
  return it == e.delta.end() ? 0 : it->second;
}

/// Keys of `m`, naturally ordered.
template <typename Map>
std::vector<std::string> NaturalKeys(const Map& m) {
  std::vector<std::string> keys;
  keys.reserve(m.size());
  for (const auto& kv : m) keys.push_back(kv.first);
  std::sort(keys.begin(), keys.end(), NaturalNameLess);
  return keys;
}

/// CSV-quote a meta value when it contains characters that would break the
/// `key=value` comment line (commas from mix descriptors, quotes, spaces).
std::string CsvMetaValue(const std::string& v) {
  if (v.find_first_of(",\" ") == std::string::npos) return v;
  std::string out = "\"";
  for (char c : v) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
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
  if (text.empty()) return false;
  if (text == "auto") {
    EpochSpec spec;
    spec.adaptive = true;
    out = spec;
    return true;
  }
  if (text.rfind("auto:", 0) == 0) {
    // "auto:MIN:MAX" — explicit clamp band in cycles.
    const std::size_t colon = text.find(':', 5);
    if (colon == std::string::npos) return false;
    EpochSpec spec;
    spec.adaptive = true;
    try {
      std::size_t used = 0;
      const std::string min_s = text.substr(5, colon - 5);
      const std::string max_s = text.substr(colon + 1);
      spec.min_cycles = std::stoull(min_s, &used);
      if (used != min_s.size()) return false;
      spec.max_cycles = std::stoull(max_s, &used);
      if (used != max_s.size()) return false;
    } catch (...) {
      return false;
    }
    if (spec.min_cycles < 1 || spec.max_cycles < spec.min_cycles) return false;
    out = spec;
    return true;
  }
  try {
    std::size_t used = 0;
    const Cycle cycles = std::stoull(text, &used);
    if (used != text.size() || cycles < 1) return false;
    EpochSpec spec;
    spec.cycles = cycles;
    out = spec;
    return true;
  } catch (...) {
    return false;
  }
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
  next_due_ = at + epoch_cycles_;
  baseline_.clear();
  for (const auto& [name, value] : cumulative.counters()) {
    if (IsGauge(name)) continue;
    baseline_[name] = value;
    prev_[name] = value;
  }
}

void EpochSampler::Record(Cycle now, const StatSet& cumulative) {
  EpochRecord rec;
  rec.begin = last_sample_;
  rec.end = now;
  for (const auto& [name, value] : cumulative.counters()) {
    if (IsGauge(name)) {
      rec.gauges[StripGauge(name)] = value;
      continue;
    }
    const auto prev_it = prev_.find(name);
    const std::uint64_t before = prev_it == prev_.end() ? 0 : prev_it->second;
    rec.delta[name] =
        static_cast<std::int64_t>(value) - static_cast<std::int64_t>(before);
    prev_[name] = value;
  }
  if (adaptive_) {
    // Make the width that produced this record part of the record, so the
    // adaptive narrowing is visible in every exported series. Only when
    // adaptation is on: fixed-epoch output stays byte-identical.
    rec.gauges["telemetry.epoch_cycles"] = epoch_cycles_;
  }
  min_width_used_ = std::min(min_width_used_, epoch_cycles_);
  max_width_used_ = std::max(max_width_used_, epoch_cycles_);
  total_epochs_++;
  if (sink_) sink_->WriteLine(NdjsonEpochLine(total_epochs_ - 1, rec));
  epochs_.push_back(std::move(rec));
  // Bounded memory for arbitrarily long streamed runs: keep only the most
  // recent record (Finalize's gauge-refresh path still needs one).
  if (!retain_ && epochs_.size() > 1) epochs_.erase(epochs_.begin());
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
  next_due_ = now + epoch_cycles_;
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

namespace {

void AppendMetaJsonFields(std::ostringstream& os, const TelemetryMeta& meta,
                          const EpochSampler& sampler) {
  os << "\"workload\":\"" << JsonEscape(meta.workload) << "\",\"preset\":\""
     << JsonEscape(meta.preset) << "\",\"policy\":\""
     << JsonEscape(meta.policy) << "\",\"mix\":\"" << JsonEscape(meta.mix)
     << "\",\"epoch_cycles\":" << sampler.epoch_cycles();
}

}  // namespace

std::string TelemetryJson(const EpochSampler& sampler,
                          const TelemetryMeta& meta) {
  std::ostringstream os;
  os << "{\"meta\":{";
  AppendMetaJsonFields(os, meta, sampler);
  os << ",\"exec_cycles\":" << meta.exec_cycles
     << ",\"num_epochs\":" << sampler.epochs().size() << "},\"epochs\":[";
  bool first_epoch = true;
  for (const EpochRecord& e : sampler.epochs()) {
    if (!first_epoch) os << ",";
    first_epoch = false;
    const DerivedMetrics d = DeriveMetrics(e);
    os << "{\"begin\":" << e.begin << ",\"end\":" << e.end
       << ",\"derived\":{\"hit_rate\":" << FormatDouble(d.hit_rate)
       << ",\"bypass_rate\":" << FormatDouble(d.bypass_rate)
       << ",\"bw_bytes_per_cycle\":" << FormatDouble(d.bw_bytes_per_cycle)
       << "},\"gauges\":{";
    bool first = true;
    for (const std::string& key : NaturalKeys(e.gauges)) {
      if (!first) os << ",";
      first = false;
      os << "\"" << JsonEscape(key) << "\":" << e.gauges.at(key);
    }
    os << "},\"delta\":{";
    first = true;
    for (const std::string& key : NaturalKeys(e.delta)) {
      if (!first) os << ",";
      first = false;
      os << "\"" << JsonEscape(key) << "\":" << e.delta.at(key);
    }
    os << "}}";
  }
  os << "]}";
  return os.str();
}

bool WriteTelemetryJson(const std::string& path, const EpochSampler& sampler,
                        const TelemetryMeta& meta) {
  std::ofstream out(path);
  if (!out) return false;
  out << TelemetryJson(sampler, meta) << '\n';
  return static_cast<bool>(out);
}

std::string TelemetryCsv(const EpochSampler& sampler,
                         const TelemetryMeta& meta) {
  // Column set = union across epochs, so a gauge that first appears late
  // (e.g. RCU depth after the first fill) still gets a column. The same
  // union rule covers every key JSON emits — gauge.skip_pct and the
  // per-tenant gauge.tenant<N>.* feeds included.
  std::set<std::string> gauge_names, delta_names;
  for (const EpochRecord& e : sampler.epochs()) {
    for (const auto& kv : e.gauges) gauge_names.insert(kv.first);
    for (const auto& kv : e.delta) delta_names.insert(kv.first);
  }
  std::vector<std::string> gauges(gauge_names.begin(), gauge_names.end());
  std::vector<std::string> deltas(delta_names.begin(), delta_names.end());
  std::sort(gauges.begin(), gauges.end(), NaturalNameLess);
  std::sort(deltas.begin(), deltas.end(), NaturalNameLess);

  std::ostringstream os;
  os << "# workload=" << CsvMetaValue(meta.workload)
     << " preset=" << CsvMetaValue(meta.preset)
     << " policy=" << CsvMetaValue(meta.policy)
     << " mix=" << CsvMetaValue(meta.mix)
     << " epoch_cycles=" << sampler.epoch_cycles()
     << " exec_cycles=" << meta.exec_cycles << "\n";
  os << "begin,end,hit_rate,bypass_rate,bw_bytes_per_cycle";
  for (const std::string& g : gauges) os << ",gauge." << g;
  for (const std::string& d : deltas) os << "," << d;
  os << "\n";
  for (const EpochRecord& e : sampler.epochs()) {
    const DerivedMetrics d = DeriveMetrics(e);
    os << e.begin << "," << e.end << "," << FormatDouble(d.hit_rate) << ","
       << FormatDouble(d.bypass_rate) << ","
       << FormatDouble(d.bw_bytes_per_cycle);
    for (const std::string& g : gauges) {
      os << ",";
      const auto it = e.gauges.find(g);
      if (it != e.gauges.end()) os << it->second;
    }
    for (const std::string& name : deltas) {
      os << ",";
      const auto it = e.delta.find(name);
      if (it != e.delta.end()) os << it->second;
    }
    os << "\n";
  }
  return os.str();
}

bool WriteTelemetryCsv(const std::string& path, const EpochSampler& sampler,
                       const TelemetryMeta& meta) {
  std::ofstream out(path);
  if (!out) return false;
  out << TelemetryCsv(sampler, meta);
  return static_cast<bool>(out);
}

}  // namespace redcache::obs
