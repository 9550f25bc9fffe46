// FailPoint — deterministic, named fault-injection registry.
//
// Production code marks fault-injectable sites with a single call:
//
//   if (const int e = FailPointHit("spill.read")) { /* inject errno e */ }
//
// A site does nothing (one relaxed atomic load) until a failpoint spec is
// armed, either programmatically (FailPoints::Arm, used by tests and the
// CLI's --failpoints flag) or through the ISA_FAILPOINTS environment
// variable, consumed lazily on the first hit.
//
// Spec grammar (comma-separated entries):
//
//   ISA_FAILPOINTS="spill.read.eio@3,pool.alloc.throw@1"
//
//   entry   := site '.' kind '@' trigger
//   site    := dotted name of an instrumented site ("spill.read",
//              "spill.write", "spill.resample", "pool.alloc",
//              "sampler.alloc")
//   kind    := eio | enospc | eagain | enomem | ebusy | eof | throw
//              (the payload the site injects: an errno, kFailPointEof for
//              EOF-before-length, or kFailPointThrow for allocation sites)
//   trigger := N            fire exactly on the Nth hit of the site (1-based)
//            | every:K      fire on every Kth hit (K, 2K, 3K, ...)
//            | p:P:SEED     fire with probability P per hit, decided by
//                           HashSeed(SEED, hit_index) — deterministic, no
//                           wall clock or global RNG state
//
// Every trigger is a pure function of the site's hit counter, so a fixed
// spec fires at the same hits in every run — the property the chaos suite
// and the bit-identical-recovery tests rest on. Hit counters are
// per-entry and process-wide; Clear() removes all entries and resets them.

#ifndef ISA_COMMON_FAILPOINT_H_
#define ISA_COMMON_FAILPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace isa {

/// Payload for ".eof" entries: EOF before the requested length (the spill
/// file's short-read condition).
inline constexpr int kFailPointEof = -1;
/// Payload for ".throw" entries: allocation sites translate any firing
/// into their native exception (std::bad_alloc, SpillIoError), so the
/// value only needs to be nonzero and distinct from real errnos.
inline constexpr int kFailPointThrow = -2;

/// Ticks site `site`'s hit counter against every armed entry and returns
/// the payload of the first entry that fires, or 0. The unarmed fast path
/// is two relaxed atomic loads. Thread-safe.
int FailPointHit(const char* site);

/// Registry of armed failpoint entries (see file comment for the grammar).
/// All methods are static and thread-safe.
class FailPoints {
 public:
  /// One parsed spec entry.
  struct Spec {
    enum class Trigger { kNth, kEvery, kProb };
    std::string site;      // e.g. "spill.read"
    int payload = 0;       // errno, kFailPointEof, or kFailPointThrow
    Trigger trigger = Trigger::kNth;
    uint64_t n = 1;        // Nth hit (kNth) or period (kEvery)
    double p = 0.0;        // kProb probability
    uint64_t seed = 0;     // kProb hash seed
  };

  /// Parses `spec` without touching the registry — the CLI's up-front
  /// validation. Empty spec parses to an empty list.
  static Result<std::vector<Spec>> Parse(std::string_view spec);

  /// Parses `spec` and ADDS its entries to the registry (hit counters
  /// start at 0). Returns the parse error, arming nothing, on bad syntax.
  static Status Arm(std::string_view spec);

  /// Removes every armed entry (env-derived ones included; ISA_FAILPOINTS
  /// is not re-read afterwards). Tests call this between cases.
  static void Clear();

  /// Total fires across all entries since the last Clear (diagnostics).
  static uint64_t TotalFires();
};

}  // namespace isa

#endif  // ISA_COMMON_FAILPOINT_H_
