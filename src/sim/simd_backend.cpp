#include "sim/simd_backend.hpp"

namespace pinatubo::sim {

SimdBackend::SimdBackend(MemKind mem, const CpuConfig& cfg)
    : cpu_(cfg, mem) {}

std::string SimdBackend::name() const {
  return std::string("SIMD-") + to_string(cpu_.mem_kind());
}

BackendResult SimdBackend::execute(const OpTrace& trace) {
  cpu_.reset();
  BackendResult result;
  for (const auto& op : trace.ops) result.bitwise += cpu_.bulk_op(op);
  result.scalar = scalar_cost(cpu_.config(), cpu_.mem_kind(),
                              trace.scalar_ops, trace.scalar_bytes);
  return result;
}

}  // namespace pinatubo::sim
