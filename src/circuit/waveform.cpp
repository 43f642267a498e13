#include "circuit/waveform.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace pinatubo::circuit {

std::size_t Waveform::add_signal(std::string name) {
  PIN_CHECK_MSG(times_.empty(), "add signals before sampling");
  names_.push_back(std::move(name));
  data_.emplace_back();
  return names_.size() - 1;
}

void Waveform::append(double t_ns, const std::vector<double>& values) {
  PIN_CHECK_MSG(values.size() == names_.size(),
                values.size() << " values for " << names_.size() << " signals");
  PIN_CHECK_MSG(times_.empty() || t_ns >= times_.back(),
                "time must be monotonic");
  times_.push_back(t_ns);
  for (std::size_t i = 0; i < values.size(); ++i) data_[i].push_back(values[i]);
}

const std::vector<double>& Waveform::samples(std::size_t signal) const {
  PIN_CHECK(signal < data_.size());
  return data_[signal];
}

std::size_t Waveform::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return i;
  PIN_UNREACHABLE("no signal named " + name);
}

double Waveform::value_at(std::size_t signal, double t_ns) const {
  PIN_CHECK(signal < data_.size());
  PIN_CHECK(!times_.empty());
  const auto& d = data_[signal];
  if (t_ns <= times_.front()) return d.front();
  if (t_ns >= times_.back()) return d.back();
  const auto it = std::lower_bound(times_.begin(), times_.end(), t_ns);
  const auto hi = static_cast<std::size_t>(it - times_.begin());
  const std::size_t lo = hi - 1;
  const double span = times_[hi] - times_[lo];
  const double frac = span > 0 ? (t_ns - times_[lo]) / span : 0.0;
  return d[lo] + frac * (d[hi] - d[lo]);
}

double Waveform::final_value(std::size_t signal) const {
  PIN_CHECK(signal < data_.size());
  PIN_CHECK(!data_[signal].empty());
  return data_[signal].back();
}

std::string Waveform::to_csv() const {
  std::ostringstream os;
  os << "time_ns";
  for (const auto& n : names_) os << ',' << n;
  os << '\n';
  for (std::size_t i = 0; i < times_.size(); ++i) {
    os << times_[i];
    for (const auto& d : data_) os << ',' << d[i];
    os << '\n';
  }
  return os.str();
}

std::string Waveform::to_ascii(std::size_t width, double v_low,
                               double v_high) const {
  if (times_.empty()) return "(empty waveform)\n";
  double lo = v_low, hi = v_high;
  if (hi <= lo) {
    lo = 1e300;
    hi = -1e300;
    for (const auto& d : data_)
      for (double v : d) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    if (hi <= lo) hi = lo + 1.0;
  }
  const double t0 = times_.front(), t1 = times_.back();
  std::ostringstream os;
  static const char kLevels[] = "_.-~^";
  for (std::size_t s = 0; s < names_.size(); ++s) {
    os << names_[s] << std::string(names_[s].size() < 10 ? 10 - names_[s].size() : 1, ' ')
       << '|';
    for (std::size_t c = 0; c < width; ++c) {
      const double t =
          t0 + (t1 - t0) * static_cast<double>(c) / static_cast<double>(width - 1);
      const double v = value_at(s, t);
      double frac = (v - lo) / (hi - lo);
      frac = std::clamp(frac, 0.0, 1.0);
      const auto idx = static_cast<std::size_t>(frac * 4.0 + 0.5);
      os << kLevels[idx];
    }
    os << '\n';
  }
  os << std::string(10, ' ') << '+' << std::string(width, '-') << "  t: ["
     << t0 << ", " << t1 << "] ns, v: [" << lo << ", " << hi << "]\n";
  return os.str();
}

}  // namespace pinatubo::circuit
