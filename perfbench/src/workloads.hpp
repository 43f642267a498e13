// The benchmark workloads: pricing.cpp and queries.cpp.
#pragma once

#include <memory>

#include "harness.hpp"

namespace perfbench {

std::unique_ptr<Workload> make_paper_figs(std::uint64_t seed);
std::unique_ptr<Workload> make_plan_lint(std::uint64_t seed);
/// `faulty` runs the stream under the end-of-life reliability policy.
std::unique_ptr<Workload> make_pim_queries(std::uint64_t seed, bool faulty);

}  // namespace perfbench
