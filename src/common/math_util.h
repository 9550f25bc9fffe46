// Numeric helpers for sample-size determination.

#ifndef ISA_COMMON_MATH_UTIL_H_
#define ISA_COMMON_MATH_UTIL_H_

#include <cmath>
#include <cstdint>
#include <limits>

namespace isa {

/// Thread-safe log-gamma. std::lgamma writes the process-global `signgam`
/// (a data race when, e.g., parallel advertiser-init tasks size their
/// samples concurrently); the POSIX reentrant variant does not. Platforms
/// not matched below fall back to std::lgamma and keep the race — extend
/// the gate when porting beyond glibc/BSD/macOS.
inline double LogGamma(double x) {
#if defined(__GLIBC__) || defined(_GNU_SOURCE) || defined(__USE_MISC) || \
    defined(__APPLE__) || defined(__FreeBSD__) || defined(__NetBSD__) ||  \
    defined(__OpenBSD__)
  int sign = 0;
  return lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

/// log(n choose k) computed via lgamma; exact enough for Eq. (8) of the
/// paper where it appears inside a ceiling of a large count.
inline double LogBinomial(uint64_t n, uint64_t k) {
  if (k > n) return -std::numeric_limits<double>::infinity();
  if (k == 0 || k == n) return 0.0;
  return LogGamma(static_cast<double>(n) + 1.0) -
         LogGamma(static_cast<double>(k) + 1.0) -
         LogGamma(static_cast<double>(n - k) + 1.0);
}

/// Clamps x into [lo, hi].
inline double Clamp(double x, double lo, double hi) {
  return x < lo ? lo : (x > hi ? hi : x);
}

}  // namespace isa

#endif  // ISA_COMMON_MATH_UTIL_H_
