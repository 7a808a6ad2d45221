// The one rule for numbers read from outside the program: command-line
// flags, environment variables, mix descriptors, corpus files and example
// arguments all parse through ParseNumber.
#pragma once

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace redcache {

/// Parse all of `text` as a number in [lo, hi]. Integral types take
/// decimal digits only; floating types also take a fraction and an
/// exponent. A sign, a blank, a prefix or suffix, an overflow and a
/// non-finite value ("inf", "nan") are rejected. On failure returns false
/// and leaves `out` unchanged.
template <class T>
bool ParseNumber(std::string_view text, T lo, T hi, T& out) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  // from_chars takes a leading '-' (never '+' or a blank).
  if (text.empty() || text.front() == '-') return false;
  const char* end = text.data() + text.size();
  T v{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return false;
  }
  if (v < lo || v > hi) return false;
  out = v;
  return true;
}

}  // namespace redcache
