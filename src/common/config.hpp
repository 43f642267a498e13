// Minimal `key = value` configuration store.
//
// Benches and examples accept config overrides ("geometry.banks=16") without
// external dependencies.  Supports '#' comments, section-less flat keys,
// typed getters with defaults, and strict getters that throw on absence.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace pinatubo {

class Config {
 public:
  Config() = default;

  /// Parses "key = value" lines; '#' starts a comment; blank lines ignored.
  static Config from_string(const std::string& text);
  /// Parses argv-style overrides: each entry "key=value".
  static Config from_args(const std::vector<std::string>& args);

  void set(const std::string& key, std::string value);

  std::optional<std::string> get(const std::string& key) const;
  std::string get_or(const std::string& key, const std::string& def) const;
  std::int64_t get_int(const std::string& key, std::int64_t def) const;
  std::uint64_t get_u64(const std::string& key, std::uint64_t def) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;

  /// Merge `other` over this config (other wins).
  void merge(const Config& other);

  const std::map<std::string, std::string>& entries() const { return map_; }

 private:
  std::map<std::string, std::string> map_;
};

}  // namespace pinatubo
