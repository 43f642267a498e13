#include "circuit/transient.hpp"

#include <cmath>

#include "common/error.hpp"

namespace pinatubo::circuit {

TransientCircuit::NodeId TransientCircuit::add_node(std::string name,
                                                    double cap_f, double v0) {
  PIN_CHECK_MSG(cap_f > 0.0, "node needs positive capacitance");
  nodes_.push_back({std::move(name), cap_f, v0, false});
  return nodes_.size() - 1;
}

TransientCircuit::NodeId TransientCircuit::add_rail(std::string name,
                                                    double voltage) {
  nodes_.push_back({std::move(name), 0.0, voltage, true});
  return nodes_.size() - 1;
}

void TransientCircuit::add_resistor(NodeId a, NodeId b, double r_ohm) {
  PIN_CHECK(a < nodes_.size() && b < nodes_.size());
  PIN_CHECK_MSG(r_ohm > 0.0, "resistance must be positive");
  resistors_.push_back({a, b, 1.0 / r_ohm});
}

TransientCircuit::ElemId TransientCircuit::add_switch(NodeId a, NodeId b,
                                                      double r_on_ohm,
                                                      bool closed) {
  PIN_CHECK(a < nodes_.size() && b < nodes_.size());
  PIN_CHECK(r_on_ohm > 0.0);
  switches_.push_back({a, b, 1.0 / r_on_ohm, closed});
  return switches_.size() - 1;
}

void TransientCircuit::set_switch(ElemId sw, bool closed) {
  PIN_CHECK(sw < switches_.size());
  switches_[sw].closed = closed;
}

TransientCircuit::ElemId TransientCircuit::add_current_source(NodeId from,
                                                              NodeId to,
                                                              double amps) {
  PIN_CHECK(from < nodes_.size() && to < nodes_.size());
  sources_.push_back({from, to, amps});
  return sources_.size() - 1;
}

void TransientCircuit::set_current(ElemId src, double amps) {
  PIN_CHECK(src < sources_.size());
  sources_[src].amps = amps;
}

void TransientCircuit::add_inverter(NodeId in, NodeId out, NodeId rail_hi,
                                    NodeId rail_lo, double r_drive_ohm,
                                    double trip_v) {
  PIN_CHECK(in < nodes_.size() && out < nodes_.size());
  PIN_CHECK(rail_hi < nodes_.size() && rail_lo < nodes_.size());
  PIN_CHECK(r_drive_ohm > 0.0);
  inverters_.push_back({in, out, rail_hi, rail_lo, 1.0 / r_drive_ohm, trip_v});
}

double TransientCircuit::voltage(NodeId n) const {
  PIN_CHECK(n < nodes_.size());
  return nodes_[n].v;
}

void TransientCircuit::set_voltage(NodeId n, double v) {
  PIN_CHECK(n < nodes_.size());
  nodes_[n].v = v;
}

void TransientCircuit::step(double dt_ns) {
  PIN_CHECK(dt_ns > 0.0);
  const double dt_s = dt_ns * 1e-9;
  const std::size_t n = nodes_.size();

  // Backward Euler: (C/dt + G) V_new = C/dt * V_old + I_src.
  // Dense assembly; node counts here are single digits.
  std::vector<double> a(n * n, 0.0);
  std::vector<double> b(n, 0.0);
  auto stamp_g = [&](NodeId i, NodeId j, double g) {
    a[i * n + i] += g;
    a[j * n + j] += g;
    a[i * n + j] -= g;
    a[j * n + i] -= g;
  };

  for (const auto& r : resistors_) stamp_g(r.a, r.b, r.g);
  for (const auto& s : switches_)
    if (s.closed) stamp_g(s.a, s.b, s.g_on);
  for (const auto& inv : inverters_) {
    // Direction decided by the previous step's input voltage.
    const NodeId rail =
        nodes_[inv.in].v < inv.trip_v ? inv.rail_hi : inv.rail_lo;
    stamp_g(inv.out, rail, inv.g_drive);
  }
  for (const auto& src : sources_) {
    b[src.from] -= src.amps;
    b[src.to] += src.amps;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (nodes_[i].is_rail) {
      // Dirichlet condition: overwrite row with identity.
      for (std::size_t j = 0; j < n; ++j) a[i * n + j] = 0.0;
      a[i * n + i] = 1.0;
      b[i] = nodes_[i].v;
    } else {
      const double c_dt = nodes_[i].cap_f / dt_s;
      a[i * n + i] += c_dt;
      b[i] += c_dt * nodes_[i].v;
    }
  }

  // Gaussian elimination with partial pivoting.
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t piv = col;
    double best = std::fabs(a[perm[col] * n + col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::fabs(a[perm[r] * n + col]);
      if (v > best) {
        best = v;
        piv = r;
      }
    }
    PIN_CHECK_MSG(best > 1e-30, "singular circuit matrix (floating node?)");
    std::swap(perm[col], perm[piv]);
    const std::size_t prow = perm[col];
    for (std::size_t r = col + 1; r < n; ++r) {
      const std::size_t row = perm[r];
      const double f = a[row * n + col] / a[prow * n + col];
      if (f == 0.0) continue;
      for (std::size_t j = col; j < n; ++j) a[row * n + j] -= f * a[prow * n + j];
      b[row] -= f * b[prow];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t ci = n; ci-- > 0;) {
    const std::size_t row = perm[ci];
    double acc = b[row];
    for (std::size_t j = ci + 1; j < n; ++j) acc -= a[row * n + j] * x[j];
    x[ci] = acc / a[row * n + ci];
  }

  for (std::size_t i = 0; i < n; ++i)
    if (!nodes_[i].is_rail) nodes_[i].v = x[i];
  t_ns_ += dt_ns;
}

void TransientCircuit::bind_waveform(Waveform* wf) const {
  PIN_CHECK(wf != nullptr);
  for (const auto& node : nodes_) wf->add_signal(node.name);
}

void TransientCircuit::sample(Waveform* wf, double t_ns) const {
  PIN_CHECK(wf != nullptr);
  std::vector<double> row;
  row.reserve(nodes_.size());
  for (const auto& node : nodes_) row.push_back(node.v);
  wf->append(t_ns, row);
}

void TransientCircuit::run(double duration_ns, double dt_ns, Waveform* wf,
                           const std::function<void(double)>& on_step,
                           std::size_t sample_every) {
  PIN_CHECK(duration_ns > 0.0 && dt_ns > 0.0);
  const auto steps = static_cast<std::size_t>(std::ceil(duration_ns / dt_ns));
  for (std::size_t i = 0; i < steps; ++i) {
    if (on_step) on_step(t_ns_);
    step(dt_ns);
    if (wf != nullptr && (i % sample_every == 0 || i + 1 == steps))
      sample(wf, t_ns_);
  }
}

}  // namespace pinatubo::circuit
