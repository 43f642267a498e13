#include "pinatubo/scheduler.hpp"

#include <algorithm>
#include <sstream>

#include "circuit/csa.hpp"
#include "common/error.hpp"

namespace pinatubo::core {

namespace {

/// The row `p` occupies in row group `g`.  Bank 0: commands broadcast
/// across the lock-step bank cluster.
mem::RowAddr group_addr(const Placement& p, std::uint64_t g, unsigned ranks) {
  return mem::RowAddr{p.channel, p.group_rank(g, ranks), 0, p.subarray,
                      p.group_row(g, ranks)};
}

}  // namespace

const char* to_string(StepKind k) {
  switch (k) {
    case StepKind::kIntraSub:
      return "intra-sub";
    case StepKind::kInterSub:
      return "inter-sub";
    case StepKind::kInterBank:
      return "inter-bank";
    case StepKind::kHostRead:
      return "host-read";
  }
  return "?";
}

std::string OpPlan::summary() const {
  std::ostringstream os;
  os << pinatubo::to_string(op) << '/' << bits << "b:";
  os << " intra=" << count(StepKind::kIntraSub)
     << " inter-sub=" << count(StepKind::kInterSub)
     << " inter-bank=" << count(StepKind::kInterBank);
  return os.str();
}

OpScheduler::OpScheduler(const mem::Geometry& geo, const SchedulerConfig& cfg)
    : geo_(geo), cfg_(cfg) {
  geo_.validate();
  PIN_CHECK(cfg.max_rows >= 2);
  // The reference analysis behind these is the costliest part of planning
  // an op, and depends only on (op, tech, cap).
  const circuit::CsaModel csa;
  const auto& cell = nvm::cell_params(cfg_.tech);
  for (const BitOp op : {BitOp::kOr, BitOp::kAnd, BitOp::kXor, BitOp::kInv}) {
    const auto i = static_cast<std::size_t>(op);
    // e.g. 2-row AND on STT-MRAM (boundary ratio 1.43) is below the CSA's
    // reliable threshold, so AND demotes to the digital buffer path there.
    intra_ok_[i] = op == BitOp::kInv || csa.supports(op, 2, cell);
    switch (op) {
      case BitOp::kOr:
        max_rows_[i] = std::min(cfg_.max_rows, csa.max_rows(op, cell));
        break;
      case BitOp::kAnd:
      case BitOp::kXor:
        max_rows_[i] = 2;
        break;
      case BitOp::kInv:
        max_rows_[i] = 1;
        break;
    }
  }
}

OpPlan OpScheduler::plan(BitOp op, const std::vector<Placement>& srcs,
                         const Placement& dst,
                         bool host_reads_result) const {
  PIN_CHECK(!srcs.empty());
  if (op == BitOp::kInv)
    PIN_CHECK_MSG(srcs.size() == 1, "INV takes one operand");
  else
    PIN_CHECK_MSG(srcs.size() >= 2, "binary ops need >= 2 operands");
  for (const auto& s : srcs) {
    PIN_CHECK_MSG(s.channel == dst.channel,
                  "cross-channel operands are not supported by the hardware");
    PIN_CHECK_MSG(s.bits == dst.bits, "operand lengths must match");
  }

  OpPlan out;
  out.op = op;
  out.bits = dst.bits;

  // Can this be an intra-subarray multi-row activation?  The technology's
  // sensing margin must support the op's minimal activation shape at all.
  bool intra = intra_ok_[static_cast<std::size_t>(op)];
  for (const auto& s : srcs) {
    intra &= s.same_subarray(dst) && s.column_aligned(dst) &&
             s.groups == dst.groups;
  }
  // Source rows must be pairwise distinct (one wordline per operand).
  for (std::size_t i = 0; intra && i < srcs.size(); ++i)
    for (std::size_t j = i + 1; j < srcs.size(); ++j)
      if (srcs[i].rows_overlap(srcs[j])) intra = false;

  if (intra) {
    plan_intra(out, op, srcs, dst);
  } else {
    // Same bank cluster -> global row buffer; otherwise IO buffer + bus.
    bool same_cluster = true;
    for (const auto& s : srcs) same_cluster &= s.same_rank(dst);
    plan_buffer(out, op,
                same_cluster ? StepKind::kInterSub : StepKind::kInterBank,
                srcs, dst);
  }

  if (host_reads_result) {
    PlanStep rd;
    rd.kind = StepKind::kHostRead;
    rd.op = op;
    rd.rows = 1;
    rd.bits = dst.bits;
    rd.col_steps = dst.stripes;
    rd.writeback = false;
    rd.channel = dst.channel;
    rd.rank = dst.rank;
    rd.subarray = dst.subarray;
    rd.row = dst.first_row;
    rd.col_start = dst.col_stripe;
    // One operand row per group so the engine sees the data dependency on
    // every group's result (groups rotate across ranks).  reads[0] is the
    // group-0 row, which is what the lowered RD bursts address.
    rd.reads.reserve(dst.groups);
    for (std::uint64_t g = 0; g < dst.groups; ++g)
      rd.reads.push_back(group_addr(dst, g, geo_.ranks_per_channel));
    out.steps.push_back(rd);
  }
  return out;
}

PlanStep OpScheduler::group_step(const Placement& dst, std::uint64_t g) const {
  const std::uint64_t group_bits = geo_.row_group_bits();
  const std::uint64_t step_bits = geo_.sense_step_bits();
  const unsigned ranks = geo_.ranks_per_channel;
  PlanStep st;
  st.bits = std::min(dst.bits - g * group_bits,
                     dst.groups == 1 ? dst.bits : group_bits);
  st.col_steps = static_cast<unsigned>((st.bits + step_bits - 1) / step_bits);
  st.channel = dst.channel;
  st.rank = dst.group_rank(g, ranks);
  st.subarray = dst.subarray;
  st.row = dst.group_row(g, ranks);
  st.col_start = dst.col_stripe;
  st.group = g;
  st.write = group_addr(dst, g, ranks);
  return st;
}

void OpScheduler::plan_intra(OpPlan& out, BitOp op,
                             const std::vector<Placement>& srcs,
                             const Placement& dst) const {
  const unsigned max_rows = effective_max_rows(op);
  const unsigned ranks = geo_.ranks_per_channel;

  // In-place operands (aliasing dst) must be consumed by the FIRST
  // activation — later chain steps reuse the dst row as the accumulator.
  // The chained ops are commutative, so reordering is sound.
  std::vector<Placement> ordered = srcs;
  std::stable_partition(ordered.begin(), ordered.end(),
                        [&](const Placement& p) {
                          return p.same_subarray(dst) &&
                                 p.first_row == dst.first_row &&
                                 p.column_aligned(dst);
                        });

  for (std::uint64_t g = 0; g < dst.groups; ++g) {
    const PlanStep shared = group_step(dst, g);
    auto addr_of = [&](const Placement& p) { return group_addr(p, g, ranks); };
    auto add_step = [&](std::vector<mem::RowAddr> reads) {
      PlanStep st = shared;
      st.kind = StepKind::kIntraSub;
      st.op = op;
      st.rows = static_cast<unsigned>(reads.size());
      st.read_cols.assign(reads.size(), dst.col_stripe);  // aligned
      st.reads = std::move(reads);
      out.steps.push_back(std::move(st));
    };
    if (op == BitOp::kInv) {
      add_step({addr_of(ordered[0])});
      continue;
    }
    const auto n = static_cast<unsigned>(ordered.size());
    unsigned consumed = std::min(max_rows, n);
    std::vector<mem::RowAddr> reads;
    for (unsigned i = 0; i < consumed; ++i)
      reads.push_back(addr_of(ordered[i]));
    add_step(std::move(reads));
    while (consumed < n) {
      // Accumulator row (dst) re-activated with the next operand batch.
      const unsigned k = std::min(max_rows, n - consumed + 1);
      std::vector<mem::RowAddr> chain{shared.write};
      for (unsigned i = 0; i + 1 < k; ++i)
        chain.push_back(addr_of(ordered[consumed + i]));
      add_step(std::move(chain));
      consumed += k - 1;
    }
  }
}

void OpScheduler::plan_buffer(OpPlan& out, BitOp op, StepKind kind,
                              const std::vector<Placement>& srcs,
                              const Placement& dst) const {
  const unsigned ranks = geo_.ranks_per_channel;
  for (std::uint64_t g = 0; g < dst.groups; ++g) {
    const PlanStep shared = group_step(dst, g);
    auto addr_of = [&](const Placement& p) { return group_addr(p, g, ranks); };
    const std::size_t steps =
        op == BitOp::kInv ? 1 : srcs.size() - 1;
    for (std::size_t i = 0; i < steps; ++i) {
      PlanStep st = shared;
      st.kind = kind;
      st.op = op;
      st.rows = op == BitOp::kInv ? 1 : 2;
      // Fold: first step combines the first two operands; later steps
      // combine the accumulator (at dst) with the next operand.
      const Placement& operand = srcs[std::min(i + 1, srcs.size() - 1)];
      if (op == BitOp::kInv) {
        st.reads = {addr_of(srcs[0])};
        st.read_cols = {srcs[0].col_stripe};
      } else if (i == 0) {
        st.reads = {addr_of(srcs[0]), addr_of(operand)};
        st.read_cols = {srcs[0].col_stripe, operand.col_stripe};
      } else {
        st.reads = {st.write, addr_of(operand)};
        st.read_cols = {dst.col_stripe, operand.col_stripe};
      }
      st.crosses_rank = !operand.same_rank(dst);
      out.steps.push_back(std::move(st));
    }
  }
}

}  // namespace pinatubo::core
