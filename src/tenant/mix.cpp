#include "tenant/mix.hpp"

#include <limits>
#include <stdexcept>
#include <string_view>

#include "common/parse.hpp"

namespace redcache::tenant {

std::string MixSpec::Describe() const {
  std::string out(mode == TenantAddressMap::Mode::kOffset ? "o" : "i");
  out += std::to_string(window_bits);
  out += '[';
  bool first = true;
  for (const TenantSpec& t : tenants) {
    if (!first) out += '+';
    first = false;
    out += t.workload;
    out += ':';
    out += std::to_string(t.weight);
    if (t.min_gap != 0) {
      out += '@';
      out += std::to_string(t.min_gap);
    }
  }
  out += ']';
  return out;
}

MixSpec MixSpec::Parse(const std::string& text) {
  MixSpec spec;
  std::string item;
  auto flush = [&spec](const std::string& s) {
    if (s.empty()) return;
    TenantSpec t;
    const std::size_t colon = s.find(':');
    t.workload = s.substr(0, colon);
    if (t.workload.empty()) {
      throw std::invalid_argument("mix tenant without a workload: " + s);
    }
    if (colon != std::string::npos) {
      constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
      const std::string_view tail = std::string_view(s).substr(colon + 1);
      const std::size_t at = tail.find('@');
      if (!ParseNumber(tail.substr(0, at), std::uint32_t{1}, kMax, t.weight)) {
        throw std::invalid_argument(
            "mix tenant weight must be a whole number >= 1: " + s);
      }
      if (at != std::string_view::npos &&
          !ParseNumber(tail.substr(at + 1), std::uint32_t{0}, kMax,
                       t.min_gap)) {
        throw std::invalid_argument(
            "mix tenant gap must be a whole number of cycles: " + s);
      }
    }
    spec.tenants.push_back(std::move(t));
  };
  for (const char c : text) {
    if (c == ',') {
      flush(item);
      item.clear();
    } else {
      item.push_back(c);
    }
  }
  flush(item);
  if (spec.tenants.empty()) {
    throw std::invalid_argument("empty mix descriptor: " + text);
  }
  return spec;
}

}  // namespace redcache::tenant
