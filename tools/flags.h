#ifndef BOOTLEG_TOOLS_FLAGS_H_
#define BOOTLEG_TOOLS_FLAGS_H_

// The strict --flag parser shared by bootleg_cli, bootleg_serve and
// overload_drill.

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

namespace bootleg::tools {

/// Parses argv[first..argc). Accepts both `--flag value` and `--flag=value`;
/// a flag not followed by a value is boolean ("1"); arguments without `--`
/// are ignored. Remembers which keys were read and which integer values did
/// not parse, so a tool can read every flag it knows and then reject the
/// rest through FirstError() before doing any work.
class Flags {
 public:
  Flags(int argc, char** argv, int first = 1) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      std::string key = arg.substr(2);
      const size_t eq = key.find('=');
      if (eq != std::string::npos) {
        values_[key.substr(0, eq)] = key.substr(eq + 1);
        continue;
      }
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = std::string(argv[++i]);
      } else {
        values_[key] = std::string("1");
      }
    }
  }
  std::string Get(const std::string& key, const std::string& fallback = "") const {
    auto it = Find(key);
    return it == values_.end() ? fallback : it->second;
  }
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = Find(key);
    if (it == values_.end()) return fallback;
    const std::string& text = it->second;
    char* end = nullptr;
    errno = 0;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || errno == ERANGE) {
      if (bad_value_.empty()) {
        bad_value_ = "--" + key + " needs a whole number, got '" + text + "'";
      }
      return fallback;
    }
    return value;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = Find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }
  bool Has(const std::string& key) const { return Find(key) != values_.end(); }
  /// The first command-line error ("" if none): a flag that no getter has
  /// read, else an integer flag whose value is not a whole number.
  std::string FirstError() const {
    for (const auto& [key, value] : values_) {
      if (read_.count(key) == 0) return "unknown flag --" + key;
    }
    return bad_value_;
  }

 private:
  std::map<std::string, std::string>::const_iterator Find(
      const std::string& key) const {
    read_.insert(key);
    return values_.find(key);
  }

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
  mutable std::string bad_value_;
};

}  // namespace bootleg::tools

#endif  // BOOTLEG_TOOLS_FLAGS_H_
