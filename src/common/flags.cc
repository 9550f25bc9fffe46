#include "common/flags.h"

#include <algorithm>

#include "common/strings.h"

namespace isa {

Result<Flags> Flags::Parse(int argc, const char* const* argv,
                           const std::vector<std::string>& known) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    std::string name, value;
    const size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
    } else {
      name = std::string(arg);
      // "--flag value" unless the next token is another flag (then it is a
      // bare boolean).
      if (i + 1 < argc &&
          std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      return Status::InvalidArgument("unknown flag: --" + name);
    }
    flags.values_[name] = value;
  }
  return flags;
}

Result<std::string> Flags::GetString(const std::string& name,
                                     std::string def) const {
  auto it = values_.find(name);
  return it == values_.end() ? std::move(def) : it->second;
}

Result<int64_t> Flags::GetInt(const std::string& name, int64_t def,
                              int64_t lo, int64_t hi) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  auto parsed = ParseInt(it->second);
  if (!parsed.ok()) {
    return Status::InvalidArgument("--" + name + ": " +
                                   parsed.status().message());
  }
  if (parsed.value() < lo || parsed.value() > hi) {
    std::string msg = "--" + name + " must be >= " + std::to_string(lo);
    if (hi != INT64_MAX) msg += " and <= " + std::to_string(hi);
    return Status::InvalidArgument(msg + " (got " +
                                   std::to_string(parsed.value()) + ")");
  }
  return parsed.value();
}

Result<double> Flags::GetDouble(const std::string& name, double def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  auto parsed = ParseDouble(it->second);
  if (!parsed.ok()) {
    return Status::InvalidArgument("--" + name + ": " +
                                   parsed.status().message());
  }
  return parsed.value();
}

Result<bool> Flags::GetBool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  return Status::InvalidArgument("--" + name + ": expected true/false");
}

}  // namespace isa
