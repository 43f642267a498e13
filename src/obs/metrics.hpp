// Monotonic counter registry: named u64 counters a traced run bumps as
// work flows through it (ops, batches, steps per class, bus bytes,
// reliability events), exported alongside the trace's spans.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace pinatubo::obs {

class MetricsRegistry {
 public:
  /// Adds `delta` to counter `name`, creating it at zero on first use.
  void add(const std::string& name, std::uint64_t delta = 1) {
    counters_[name] += delta;
  }
  /// Current value; 0 for counters never touched.
  std::uint64_t get(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  void clear() { counters_.clear(); }

 private:
  std::map<std::string, std::uint64_t> counters_;
};

}  // namespace pinatubo::obs
