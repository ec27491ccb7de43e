#pragma once
// Flat key = value configuration files for the run driver
// (examples/greem_run): '#' comments, blank lines ignored, later keys
// override earlier ones.  Typed getters fall back to defaults when the key
// is absent and throw std::invalid_argument, naming the key, when the value
// does not parse as a whole: trailing characters, an out-of-range integer
// or a non-finite double.  See examples/configs/ for annotated samples.

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace greem::io {

class Config {
 public:
  Config() = default;

  /// Parse from a file; nullopt if the file cannot be read or a line is
  /// malformed (diagnostics to `error` when given).
  static std::optional<Config> parse_file(const std::string& path,
                                          std::string* error = nullptr);

  /// Parse from text (throws std::invalid_argument on malformed lines).
  static Config parse_string(const std::string& text);

  bool has(const std::string& key) const { return values_.count(key) > 0; }

  std::string get_string(const std::string& key, const std::string& fallback) const;
  double get_double(const std::string& key, double fallback) const;
  long get_int(const std::string& key, long fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Keys present in the file but not in `known` (catches typos).
  std::vector<std::string> unknown_keys(const std::vector<std::string>& known) const;

  const std::map<std::string, std::string>& values() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace greem::io
