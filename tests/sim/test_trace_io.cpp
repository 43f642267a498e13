#include "sim/trace_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "apps/vector_workload.hpp"
#include "common/error.hpp"

namespace pinatubo::sim {
namespace {

OpTrace sample() {
  OpTrace t;
  t.name = "sample";
  t.scalar_ops = 1234;
  t.scalar_bytes = 5678;
  t.result_density = 0.25;
  t.ops.push_back({BitOp::kOr, {1, 2, 3}, 3, 4096, false});
  t.ops.push_back({BitOp::kXor, {3, 4}, 5, 4096, true});
  t.ops.push_back({BitOp::kInv, {5}, 6, 4096, false});
  return t;
}

bool traces_equal(const OpTrace& a, const OpTrace& b) {
  if (a.name != b.name || a.scalar_ops != b.scalar_ops ||
      a.scalar_bytes != b.scalar_bytes ||
      std::abs(a.result_density - b.result_density) > 1e-12 ||
      a.ops.size() != b.ops.size())
    return false;
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    const auto& x = a.ops[i];
    const auto& y = b.ops[i];
    if (x.op != y.op || x.srcs != y.srcs || x.dst != y.dst ||
        x.bits != y.bits || x.host_reads_result != y.host_reads_result)
      return false;
  }
  return true;
}

TEST(TraceIo, RoundTrip) {
  std::stringstream ss;
  save_trace(sample(), ss);
  EXPECT_TRUE(traces_equal(load_trace(ss), sample()));
}

TEST(TraceIo, FormatIsReadable) {
  std::stringstream ss;
  save_trace(sample(), ss);
  const auto text = ss.str();
  EXPECT_NE(text.find("trace sample"), std::string::npos);
  EXPECT_NE(text.find("op OR 4096 3 0 1 2 3"), std::string::npos);
  EXPECT_NE(text.find("op XOR 4096 5 1 3 4"), std::string::npos);
  EXPECT_NE(text.find("end"), std::string::npos);
}

TEST(TraceIo, SkipsCommentsAndBlankLines) {
  std::stringstream ss;
  ss << "# a comment\n\ntrace t\nscalar 1 2 0.5\n\n# more\nop INV 8 1 0 0\nend\n";
  const auto t = load_trace(ss);
  EXPECT_EQ(t.name, "t");
  ASSERT_EQ(t.ops.size(), 1u);
  EXPECT_EQ(t.ops[0].op, BitOp::kInv);
}

TEST(TraceIo, RejectsMalformedStreams) {
  {
    std::stringstream ss("op OR 8 1 0 2\nend\n");  // no header
    EXPECT_THROW(load_trace(ss), Error);
  }
  {
    std::stringstream ss("trace t\nscalar 1 2 0.5\n");  // no end
    EXPECT_THROW(load_trace(ss), Error);
  }
  {
    std::stringstream ss("trace t\nop NAND 8 1 0 2\nend\n");  // bad op
    EXPECT_THROW(load_trace(ss), Error);
  }
  {
    std::stringstream ss("trace t\nop OR 8 1 0\nend\n");  // no operands
    EXPECT_THROW(load_trace(ss), Error);
  }
}

/// Loads a one-op trace around `body` (an op or scalar line).
OpTrace load_one(const std::string& body) {
  std::stringstream ss("trace t\n" + body + "\nend\n");
  return load_trace(ss);
}

TEST(TraceIo, AcceptsTheStrictForms) {
  const auto t = load_one("scalar 0 18446744073709551615 1\nop OR 1 9 1 2 3");
  EXPECT_EQ(t.scalar_bytes, ~0ull);
  EXPECT_EQ(t.result_density, 1.0);
  ASSERT_EQ(t.ops.size(), 1u);
  EXPECT_EQ(t.ops[0].bits, 1u);
  EXPECT_TRUE(t.ops[0].host_reads_result);
  EXPECT_EQ(t.ops[0].srcs, (std::vector<std::uint64_t>{2, 3}));
}

TEST(TraceIo, RejectsNegativeValues) {
  // strtoull-style parsing would load these as 2^64 - 1.
  EXPECT_THROW(load_one("op OR -1 0 0 1 2"), Error);
  EXPECT_THROW(load_one("op OR 8 -3 0 1 2"), Error);
  EXPECT_THROW(load_one("op OR 8 0 0 1 -2"), Error);
  EXPECT_THROW(load_one("scalar -5 0 0.5"), Error);
}

TEST(TraceIo, RejectsOverflow) {
  EXPECT_THROW(load_one("op OR 18446744073709551616 0 0 1 2"), Error);
  EXPECT_THROW(load_one("scalar 1 99999999999999999999 0.5"), Error);
}

TEST(TraceIo, RejectsTrailingJunk) {
  // Operands after a junk token used to be dropped silently.
  EXPECT_THROW(load_one("op OR 8 0 0 1 x 2"), Error);
  EXPECT_THROW(load_one("op OR 8 0 0 1 2x"), Error);
  EXPECT_THROW(load_one("op OR 8k 0 0 1 2"), Error);
  EXPECT_THROW(load_one("op OR 8 0 2 1 2"), Error);  // host flag not 0|1
  EXPECT_THROW(load_one("scalar 1 2 0.5 junk"), Error);
  EXPECT_THROW(load_one("scalar 1 2 0.5x"), Error);
}

TEST(TraceIo, RejectsZeroBits) {
  EXPECT_THROW(load_one("op OR 0 0 0 1 2"), Error);
}

TEST(TraceIo, RejectsDensityOutsideUnitInterval) {
  EXPECT_THROW(load_one("scalar 1 2 1.5"), Error);
  EXPECT_THROW(load_one("scalar 1 2 -0.1"), Error);
  EXPECT_THROW(load_one("scalar 1 2 nan"), Error);
  EXPECT_NO_THROW(load_one("scalar 1 2 0"));
}

TEST(TraceIo, RejectsWrongArity) {
  EXPECT_THROW(load_one("op INV 8 0 0 1 2 3"), Error);  // INV takes one
  EXPECT_THROW(load_one("op OR 8 0 0 1"), Error);       // OR needs two
  EXPECT_THROW(load_one("op XOR 8 0 0 1"), Error);
  EXPECT_NO_THROW(load_one("op INV 8 0 0 1"));
  EXPECT_NO_THROW(load_one("op AND 8 0 0 1 2"));
}

TEST(TraceIo, FileRoundTripOfRealWorkload) {
  const auto trace =
      apps::vector_trace(apps::VectorSpec::parse("14-8-3s"));
  const std::string path = "/tmp/pinatubo_trace_test.txt";
  save_trace_file(trace, path);
  EXPECT_TRUE(traces_equal(load_trace_file(path), trace));
  EXPECT_THROW(load_trace_file("/nonexistent/dir/x.txt"), Error);
}

}  // namespace
}  // namespace pinatubo::sim
