// Minimal command-line flag parsing for the tools/ binaries.
//
// Supports --name=value and --name value, plus bare --bool-flag. Unknown
// flags are an error (catches typos); positional arguments are collected in
// order.

#ifndef ISA_COMMON_FLAGS_H_
#define ISA_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace isa {

/// Parsed command line: flag name -> raw value, plus positionals.
class Flags {
 public:
  /// Parses argv. `known` lists the accepted flag names (without "--");
  /// any other flag fails with InvalidArgument.
  static Result<Flags> Parse(int argc, const char* const* argv,
                             const std::vector<std::string>& known);

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  /// Typed getters with defaults; a present-but-malformed value is an error.
  Result<std::string> GetString(const std::string& name,
                                std::string def) const;
  /// A present value outside [lo, hi] is an error too.
  Result<int64_t> GetInt(const std::string& name, int64_t def,
                         int64_t lo = INT64_MIN, int64_t hi = INT64_MAX) const;
  Result<double> GetDouble(const std::string& name, double def) const;
  Result<bool> GetBool(const std::string& name, bool def) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace isa

#endif  // ISA_COMMON_FLAGS_H_
