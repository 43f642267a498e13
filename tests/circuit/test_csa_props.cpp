// Property sweep: the transient CSA must agree with the behavioural
// decision across technologies, ops and adversarial operand patterns —
// the two fidelity levels of the same amplifier cannot diverge.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "circuit/csa.hpp"
#include "nvm/cell.hpp"

namespace pinatubo::circuit {
namespace {

using TechRows = std::tuple<nvm::Tech, unsigned>;

class CsaAgreement : public ::testing::TestWithParam<TechRows> {};

/// The technology / activation-width pairs the CSA can resolve an OR over.
std::vector<TechRows> supported_or_widths() {
  const CsaModel csa;
  std::vector<TechRows> out;
  for (const auto tech :
       {nvm::Tech::kPcm, nvm::Tech::kSttMram, nvm::Tech::kReRam})
    for (const unsigned n : {2u, 4u, 16u, 64u, 128u})
      if (csa.supports(BitOp::kOr, n, nvm::cell_params(tech)))
        out.emplace_back(tech, n);
  return out;
}

TEST_P(CsaAgreement, TransientMatchesBehavioural) {
  const auto [tech, n] = GetParam();
  const auto& cell = nvm::cell_params(tech);
  const CsaModel csa;
  const auto ref = op_reference(cell, BitOp::kOr, n);
  const nvm::BitlineModel bl(cell);

  // Adversarial patterns: all zeros, exactly one 1, all ones.
  for (const std::size_t ones : {std::size_t{0}, std::size_t{1},
                                 static_cast<std::size_t>(n)}) {
    const double i_bl = bl.nominal_current_a(ones, n);
    const auto tr = csa.sense_transient(i_bl, ref.i_ref_a);
    EXPECT_EQ(tr.output, csa.decide(i_bl, ref.i_ref_a, nullptr))
        << nvm::to_string(tech) << " n=" << n << " ones=" << ones;
    EXPECT_EQ(tr.output, ones > 0);
    // The latch must regenerate to a solid margin.
    EXPECT_GT(tr.margin_v, 0.5 * csa.config().vdd_v);
    EXPECT_GT(tr.resolve_time_ns, 0.0);
    // And resolve within the three configured phases.
    EXPECT_LE(tr.resolve_time_ns,
              csa.config().t_sample_ns + csa.config().t_amplify_ns +
                  csa.config().t_latch_ns + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(TechAndRows, CsaAgreement,
                         ::testing::ValuesIn(supported_or_widths()));

TEST(CsaResolveTime, ScalesWithConfiguredPhases) {
  CsaConfig slow;
  slow.t_amplify_ns = 6.0;
  const CsaModel fast, slower(slow);
  const auto a = fast.sense_transient(20e-6, 10e-6);
  const auto b = slower.sense_transient(20e-6, 10e-6);
  EXPECT_GT(b.resolve_time_ns, a.resolve_time_ns);
}

}  // namespace
}  // namespace pinatubo::circuit
