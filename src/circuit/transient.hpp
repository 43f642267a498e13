// Fixed-step transient solver for small switched networks.
//
// This is the repository's HSPICE stand-in.  It solves nodal equations
//   C_i dV_i/dt = sum of branch currents into node i
// with backward-Euler time stepping and direct Gaussian elimination — exact
// enough for the peripheral circuits we validate (a handful of nodes each):
// the current sense amplifier and the modified local-wordline driver.
//
// Supported elements:
//   * rails (ideal voltage sources),
//   * node capacitors,
//   * fixed resistors,
//   * switches (resistor with externally controlled on/off state),
//   * controlled current sources (value set externally per phase),
//   * behavioural inverters (output pulled to a rail through Ron depending
//     on whether the input is above/below the trip voltage) — these model
//     the digital gates in the LWL driver without device equations.
//
// Nonlinear element states (switch positions, inverter directions) are
// evaluated from the previous step's voltages, then one implicit linear step
// is taken; with steps of ~1-10 ps this is robust for RC time constants in
// the 0.1-10 ns range we care about.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "circuit/waveform.hpp"

namespace pinatubo::circuit {

class TransientCircuit {
 public:
  using NodeId = std::size_t;
  using ElemId = std::size_t;

  /// Adds a floating node with capacitance `cap_f` (farads) and an initial
  /// voltage.
  NodeId add_node(std::string name, double cap_f, double v0 = 0.0);
  /// Adds an ideal rail at fixed voltage.
  NodeId add_rail(std::string name, double voltage);

  /// Fixed resistor between two nodes (ohm).
  void add_resistor(NodeId a, NodeId b, double r_ohm);
  /// Switch: resistor `r_on` when closed, open circuit otherwise.
  ElemId add_switch(NodeId a, NodeId b, double r_on_ohm, bool closed = false);
  void set_switch(ElemId sw, bool closed);
  /// Current source pushing `amps` from `from` into `to` (value mutable).
  ElemId add_current_source(NodeId from, NodeId to, double amps = 0.0);
  void set_current(ElemId src, double amps);
  /// Behavioural inverter: drives `out` toward `rail_hi` when v(in) < trip,
  /// toward `rail_lo` otherwise, through `r_drive`.
  void add_inverter(NodeId in, NodeId out, NodeId rail_hi, NodeId rail_lo,
                    double r_drive_ohm, double trip_v);

  double voltage(NodeId n) const;
  void set_voltage(NodeId n, double v);  ///< force (initial conditions)

  /// Advances one implicit step of `dt_ns`.
  void step(double dt_ns);

  /// Runs for `duration_ns`, sampling all node voltages into `wf` every
  /// `sample_every` steps; `on_step(t_ns)` lets callers sequence stimuli.
  void run(double duration_ns, double dt_ns, Waveform* wf,
           const std::function<void(double)>& on_step = nullptr,
           std::size_t sample_every = 10);

  /// Declares every node as a waveform signal (call once per waveform).
  void bind_waveform(Waveform* wf) const;
  /// Appends one sample of all node voltages.
  void sample(Waveform* wf, double t_ns) const;

 private:
  struct Node {
    std::string name;
    double cap_f;
    double v;
    bool is_rail;
  };
  struct Resistor {
    NodeId a, b;
    double g;  // siemens
  };
  struct Switch {
    NodeId a, b;
    double g_on;
    bool closed;
  };
  struct CurrentSource {
    NodeId from, to;
    double amps;
  };
  struct Inverter {
    NodeId in, out, rail_hi, rail_lo;
    double g_drive;
    double trip_v;
  };

  std::vector<Node> nodes_;
  std::vector<Resistor> resistors_;
  std::vector<Switch> switches_;
  std::vector<CurrentSource> sources_;
  std::vector<Inverter> inverters_;
  double t_ns_ = 0.0;
};

}  // namespace pinatubo::circuit
