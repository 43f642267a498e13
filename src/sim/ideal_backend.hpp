// Ideal backend: bitwise operations are free (zero latency, zero energy).
// This is the "Ideal" bar of the paper's Fig. 12 — the Amdahl ceiling any
// bitwise accelerator can reach on a given application.
#pragma once

#include "sim/backend.hpp"
#include "sim/cpu_model.hpp"

namespace pinatubo::sim {

class IdealBackend final : public Backend {
 public:
  explicit IdealBackend(MemKind mem = MemKind::kPcm) : mem_(mem) {}

  std::string name() const override { return "Ideal"; }

  BackendResult execute(const OpTrace& trace) override {
    BackendResult result;  // bitwise cost stays zero
    result.scalar =
        scalar_cost({}, mem_, trace.scalar_ops, trace.scalar_bytes);
    return result;
  }

 private:
  MemKind mem_;
};

}  // namespace pinatubo::sim
