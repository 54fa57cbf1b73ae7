// Environment-variable configuration helpers. Benches use these so one binary
// serves both a CI-scale smoke run and a paper-scale sweep.
//
// Numeric parsing is strict everywhere: unset or empty reads the fallback,
// and anything else that is not a whole number of the expected form throws
// std::invalid_argument naming the variable. Reading garbage as 0 would
// disarm a fault injection the caller believes is armed, or hand a bench a
// thread count of 0.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace montage::util {

/// The whole value must be a non-negative decimal integer that fits in
/// uint64_t.
inline uint64_t env_u64_checked(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  // strtoull tolerates leading whitespace, '+', and (by wrapping) '-';
  // reject anything that is not a plain digit string up front.
  for (const char* c = v; *c != '\0'; ++c) {
    if (*c < '0' || *c > '9') {
      throw std::invalid_argument(std::string(name) + "='" + v +
                                  "': expected a non-negative integer");
    }
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument(std::string(name) + "='" + v +
                                "': value does not fit in 64 bits");
  }
  return parsed;
}

/// The whole value must be a decimal number ("0.2", "1e-3") that fits in a
/// double; a unit suffix such as "0.2s" is rejected, not read as its
/// numeric prefix.
inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  // strtod would also skip leading whitespace and read "inf", "nan" and hex
  // floats; a knob spelled like that is a typo.
  const bool decimal =
      std::string(v).find_first_not_of("0123456789.+-eE") == std::string::npos;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (!decimal || end == v || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument(std::string(name) + "='" + v +
                                "': expected a decimal number");
  }
  return parsed;
}

inline std::string env_str(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return v;
}

}  // namespace montage::util
