// Simulation waveform container: named analog signals sampled on a common
// time base.  Replaces the HSPICE .tr0 output in the paper's Fig. 6/7 —
// benches dump these as CSV and render compact ASCII traces.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace pinatubo::circuit {

class Waveform {
 public:
  /// Declares a signal; returns its index.  All signals share the time axis.
  std::size_t add_signal(std::string name);

  /// Appends one sample row: time plus a value per declared signal.
  void append(double t_ns, const std::vector<double>& values);

  std::size_t signal_count() const { return names_.size(); }
  std::size_t sample_count() const { return times_.size(); }
  const std::vector<std::string>& names() const { return names_; }
  const std::vector<double>& times() const { return times_; }
  const std::vector<double>& samples(std::size_t signal) const;

  /// Signal index by name; throws if missing.
  std::size_t index_of(const std::string& name) const;

  /// Linear interpolation of a signal at time `t_ns` (clamped to range).
  double value_at(std::size_t signal, double t_ns) const;

  /// Final value of a signal; throws when empty.
  double final_value(std::size_t signal) const;

  /// CSV with a header row: time_ns,name1,name2,...
  std::string to_csv() const;

  /// Compact ASCII oscilloscope view (one lane per signal).
  std::string to_ascii(std::size_t width = 72, double v_low = 0.0,
                       double v_high = -1.0) const;

 private:
  std::vector<std::string> names_;
  std::vector<double> times_;
  std::vector<std::vector<double>> data_;  // per signal
};

}  // namespace pinatubo::circuit
