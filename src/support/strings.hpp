// Small string helpers used across the library (GCC 12 lacks std::format).
#pragma once

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

namespace hpfnt {

/// Appends the raw fixed-width bytes of a trivially copyable value (an
/// integer or a pointer) to `out`. The single encoder behind every binary
/// signature/cache-key builder (plan keys, alignment signatures), so the
/// encodings cannot drift apart.
template <typename T>
void append_raw(std::string& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>,
                "append_raw requires a trivially copyable value");
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof v);
}

/// 64-bit FNV-1a: the cheap content digest behind the plan-key signatures
/// of table-backed formats (INDIRECT and user-defined).
/// Streamed value by value via fnv1a_mix so callers never materialize a
/// byte buffer; start from fnv1a_basis.
inline constexpr std::uint64_t fnv1a_basis = 1469598103934665603ULL;

inline std::uint64_t fnv1a_bytes(std::uint64_t h, const void* data,
                                 std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

template <typename T>
std::uint64_t fnv1a_mix(std::uint64_t h, T v) {
  static_assert(std::is_trivially_copyable_v<T>,
                "fnv1a_mix requires a trivially copyable value");
  return fnv1a_bytes(h, &v, sizeof v);
}

/// Joins `parts` with `sep` ("a, b, c").
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Uppercases ASCII in place and returns the result (directive keywords are
/// case-insensitive, as in Fortran).
std::string to_upper(std::string s);

/// True if `s` equals `t` ignoring ASCII case.
bool iequals(const std::string& s, const std::string& t);

/// Formats like "name(1:10:2, 3)" given already-rendered subscripts.
std::string subscripted(const std::string& name,
                        const std::vector<std::string>& subs);

/// Renders a byte count with a thousands separator for bench tables.
std::string with_commas(std::uint64_t value);

/// Minimal printf-free concatenation helper: cat("N=", 4, " ok").
template <typename... Parts>
std::string cat(const Parts&... parts) {
  std::ostringstream out;
  (out << ... << parts);
  return out.str();
}

}  // namespace hpfnt
