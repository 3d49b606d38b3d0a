#ifndef BOOTLEG_TOOLS_FLAGS_H_
#define BOOTLEG_TOOLS_FLAGS_H_

// The strict --flag parser shared by bootleg_cli, bootleg_serve and
// overload_drill.

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace bootleg::tools {

/// Parses argv[first..argc). Accepts both `--flag value` and `--flag=value`;
/// a flag not followed by a value is boolean ("1"); arguments without `--`
/// are ignored. Remembers which keys were read and which integer, number or
/// choice values did not parse, so a tool can read every flag it knows and
/// then reject the rest through FirstError() before doing any work.
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
      Reject("--" + key + " needs a whole number, got '" + text + "'");
      return fallback;
    }
    return value;
  }
  /// The value of a flag that must be one of `choices` (fallback when
  /// absent). Any other value is remembered for FirstError().
  std::string GetChoice(const std::string& key, const std::string& fallback,
                        std::initializer_list<const char*> choices) const {
    auto it = Find(key);
    if (it == values_.end()) return fallback;
    std::string names;
    for (const char* choice : choices) {
      if (it->second == choice) return it->second;
      names += (names.empty() ? "" : "|") + std::string(choice);
    }
    Reject("--" + key + " must be one of " + names + ", got '" + it->second +
           "'");
    return fallback;
  }
  /// The value of a number flag (fallback when absent). A value that is not
  /// one finite number as a whole ("0,8", "O.2", "inf") is remembered for
  /// FirstError().
  double GetDouble(const std::string& key, double fallback) const {
    auto it = Find(key);
    if (it == values_.end()) return fallback;
    double value = 0.0;
    if (!ParseDouble(it->second, &value)) {
      Reject("--" + key + " needs a finite number, got '" + it->second + "'");
      return fallback;
    }
    return value;
  }
  /// The comma-separated numbers of a list flag (empty when absent; empty
  /// elements are skipped). An element that is not one finite number is
  /// remembered for FirstError().
  std::vector<double> GetDoubleList(const std::string& key) const {
    std::vector<double> values;
    auto it = Find(key);
    if (it == values_.end()) return values;
    std::istringstream in(it->second);
    for (std::string item; std::getline(in, item, ',');) {
      if (item.empty()) continue;
      double value = 0.0;
      if (ParseDouble(item, &value)) {
        values.push_back(value);
      } else {
        Reject("--" + key + " needs finite numbers, got '" + item + "'");
      }
    }
    return values;
  }
  /// Remembers `message` for FirstError() unless an earlier error already
  /// is: lets a tool put its own value checks (a range) on the same
  /// fail-before-any-work path.
  void Reject(const std::string& message) const {
    if (bad_value_.empty()) bad_value_ = message;
  }
  bool Has(const std::string& key) const { return Find(key) != values_.end(); }
  /// The strict number parse behind GetDouble: true when `text` as a whole
  /// is one finite number (no trailing characters, no overflow). For tools
  /// that read numbers out of a structured flag value.
  static bool ParseDouble(const std::string& text, double* value) {
    char* end = nullptr;
    errno = 0;
    *value = std::strtod(text.c_str(), &end);
    return !text.empty() && *end == '\0' && errno != ERANGE &&
           std::isfinite(*value);
  }
  /// The first command-line error ("" if none): a flag that no getter has
  /// read, else the first value a getter or Reject() refused (an integer
  /// flag that is not a whole number, a number flag that is not a finite
  /// number, a choice flag outside its choices).
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
