#include "io/config.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace greem::io {
namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// Parse the whole of `text` with a std::sto* function: a value with
/// trailing characters ("16abc") or outside T's range is an error naming
/// the key, never a silently truncated number.
template <class T, class Parse>
T parse_whole(const std::string& key, const std::string& text, const char* what, Parse parse) {
  std::size_t used = 0;
  T v{};
  try {
    v = parse(text, &used);
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("config key '" + key + "': " + what + " out of range: " + text);
  } catch (const std::invalid_argument&) {
    used = 0;
  }
  if (used == 0 || used != text.size())
    throw std::invalid_argument("config key '" + key + "': not " + what + ": " + text);
  return v;
}

}  // namespace

Config Config::parse_string(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("config line " + std::to_string(lineno) +
                                  ": expected 'key = value': " + line);
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty())
      throw std::invalid_argument("config line " + std::to_string(lineno) + ": empty key");
    cfg.values_[key] = value;
  }
  return cfg;
}

std::optional<Config> Config::parse_file(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  try {
    return parse_string(buf.str());
  } catch (const std::invalid_argument& e) {
    if (error) *error = e.what();
    return std::nullopt;
  }
}

std::string Config::get_string(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it != values_.end() ? it->second : fallback;
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const double v = parse_whole<double>(
      key, it->second, "a number",
      [](const std::string& t, std::size_t* pos) { return std::stod(t, pos); });
  if (!std::isfinite(v))
    throw std::invalid_argument("config key '" + key + "': not a finite number: " + it->second);
  return v;
}

long Config::get_int(const std::string& key, long fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_whole<long>(key, it->second, "an integer",
                           [](const std::string& t, std::size_t* pos) { return std::stol(t, pos); });
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::string v = it->second;
  std::transform(v.begin(), v.end(), v.begin(), ::tolower);
  if (v == "true" || v == "yes" || v == "1" || v == "on") return true;
  if (v == "false" || v == "no" || v == "0" || v == "off") return false;
  throw std::invalid_argument("config key '" + key + "': not a boolean: " + it->second);
}

std::vector<std::string> Config::unknown_keys(const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& [k, v] : values_) {
    if (std::find(known.begin(), known.end(), k) == known.end()) out.push_back(k);
  }
  return out;
}

}  // namespace greem::io
