#include "common/config.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/error.hpp"

namespace pinatubo {
namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return {};
  const auto e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

}  // namespace

Config Config::from_string(const std::string& text) {
  Config cfg;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    PIN_CHECK_MSG(eq != std::string::npos,
                  "config line " << lineno << " lacks '=': " << line);
    cfg.set(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
  }
  return cfg;
}

Config Config::from_args(const std::vector<std::string>& args) {
  Config cfg;
  for (const auto& a : args) {
    const auto eq = a.find('=');
    PIN_CHECK_MSG(eq != std::string::npos, "override lacks '=': " << a);
    cfg.set(trim(a.substr(0, eq)), trim(a.substr(eq + 1)));
  }
  return cfg;
}

void Config::set(const std::string& key, std::string value) {
  PIN_CHECK(!key.empty());
  map_[key] = std::move(value);
}

std::optional<std::string> Config::get(const std::string& key) const {
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_or(const std::string& key,
                           const std::string& def) const {
  return get(key).value_or(def);
}

std::int64_t Config::get_int(const std::string& key, std::int64_t def) const {
  const auto v = get(key);
  if (!v) return def;
  char* end = nullptr;
  errno = 0;
  const long long r = std::strtoll(v->c_str(), &end, 0);
  PIN_CHECK_MSG(end && *end == '\0' && end != v->c_str(),
                "bad int for " << key << ": " << *v);
  PIN_CHECK_MSG(errno != ERANGE,
                "int out of range for " << key << ": " << *v);
  return r;
}

std::uint64_t Config::get_u64(const std::string& key,
                              std::uint64_t def) const {
  const auto v = get(key);
  if (!v) return def;
  // strtoull silently accepts a sign and wraps negatives mod 2^64; a
  // negative value is never a valid u64 config, so reject it outright.
  PIN_CHECK_MSG(v->find('-') == std::string::npos,
                "negative u64 for " << key << ": " << *v);
  char* end = nullptr;
  errno = 0;
  const unsigned long long r = std::strtoull(v->c_str(), &end, 0);
  PIN_CHECK_MSG(end && *end == '\0' && end != v->c_str(),
                "bad u64 for " << key << ": " << *v);
  PIN_CHECK_MSG(errno != ERANGE,
                "u64 out of range for " << key << ": " << *v);
  return r;
}

double Config::get_double(const std::string& key, double def) const {
  const auto v = get(key);
  if (!v) return def;
  char* end = nullptr;
  const double r = std::strtod(v->c_str(), &end);
  PIN_CHECK_MSG(end && *end == '\0' && end != v->c_str(),
                "bad double for " << key << ": " << *v);
  // Overflow (+-HUGE_VAL) and the inf/infinity/nan spellings are config
  // errors: an infinite rate turns 1 + inf*0 into NaN downstream.
  // Underflow rounds toward zero, a usable value.
  PIN_CHECK_MSG(std::isfinite(r),
                "double out of range for " << key << ": " << *v);
  return r;
}

bool Config::get_bool(const std::string& key, bool def) const {
  const auto v = get(key);
  if (!v) return def;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  PIN_UNREACHABLE("bad bool for " + key + ": " + *v);
}

void Config::merge(const Config& other) {
  for (const auto& [k, v] : other.map_) map_[k] = v;
}

}  // namespace pinatubo
