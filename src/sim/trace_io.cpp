#include "sim/trace_io.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace pinatubo::sim {
namespace {

BitOp op_from_name(std::string_view name) {
  if (name == "OR") return BitOp::kOr;
  if (name == "AND") return BitOp::kAnd;
  if (name == "XOR") return BitOp::kXor;
  if (name == "INV") return BitOp::kInv;
  PIN_UNREACHABLE("bad op name in trace: " + std::string(name));
}

/// A whole token as a decimal u64: no sign, no trailing junk, no wrap.
std::uint64_t parse_u64(std::string_view tok, const std::string& line) {
  std::uint64_t v = 0;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  PIN_CHECK_MSG(ec != std::errc::result_out_of_range,
                "value out of range '" << tok << "' in: " << line);
  PIN_CHECK_MSG(ec == std::errc{} && ptr == end,
                "bad unsigned '" << tok << "' in: " << line);
  return v;
}

double parse_density(std::string_view tok, const std::string& line) {
  double v = 0.0;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  PIN_CHECK_MSG(ec == std::errc{} && ptr == end,
                "bad density '" << tok << "' in: " << line);
  PIN_CHECK_MSG(v >= 0.0 && v <= 1.0,
                "density outside [0, 1] in: " << line);
  return v;
}

}  // namespace

void save_trace(const OpTrace& trace, std::ostream& os) {
  PIN_CHECK_MSG(trace.name.find_first_of(" \n") == std::string::npos,
                "trace names must be token-safe");
  os << "trace " << (trace.name.empty() ? "unnamed" : trace.name) << '\n';
  os << "scalar " << trace.scalar_ops << ' ' << trace.scalar_bytes << ' '
     << trace.result_density << '\n';
  for (const auto& op : trace.ops) {
    os << "op " << to_string(op.op) << ' ' << op.bits << ' ' << op.dst << ' '
       << (op.host_reads_result ? 1 : 0);
    for (const auto s : op.srcs) os << ' ' << s;
    os << '\n';
  }
  os << "end\n";
  PIN_CHECK_MSG(os.good(), "trace write failed");
}

OpTrace load_trace(std::istream& is) {
  OpTrace trace;
  std::string line;
  std::vector<std::string> tok;
  bool saw_header = false, saw_end = false;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    tok.clear();
    for (std::string t; ls >> t;) tok.push_back(std::move(t));
    if (tok.empty()) continue;
    const std::string& tag = tok[0];
    if (tag == "trace") {
      PIN_CHECK_MSG(tok.size() <= 2, "bad trace line: " << line);
      if (tok.size() == 2) trace.name = tok[1];
      saw_header = true;
    } else if (tag == "scalar") {
      PIN_CHECK_MSG(tok.size() == 4, "bad scalar line: " << line);
      trace.scalar_ops = parse_u64(tok[1], line);
      trace.scalar_bytes = parse_u64(tok[2], line);
      trace.result_density = parse_density(tok[3], line);
    } else if (tag == "op") {
      PIN_CHECK_MSG(tok.size() >= 6, "bad op line: " << line);
      TraceOp op;
      op.op = op_from_name(tok[1]);
      op.bits = parse_u64(tok[2], line);
      PIN_CHECK_MSG(op.bits >= 1, "op of 0 bits: " << line);
      op.dst = parse_u64(tok[3], line);
      const std::uint64_t host = parse_u64(tok[4], line);
      PIN_CHECK_MSG(host <= 1, "host flag not 0|1: " << line);
      op.host_reads_result = host != 0;
      for (std::size_t i = 5; i < tok.size(); ++i)
        op.srcs.push_back(parse_u64(tok[i], line));
      // TraceOp's contract: exactly one source for INV, >= 2 otherwise.
      if (op.op == BitOp::kInv)
        PIN_CHECK_MSG(op.srcs.size() == 1, "INV needs 1 source: " << line);
      else
        PIN_CHECK_MSG(op.srcs.size() >= 2, "op needs >= 2 sources: " << line);
      trace.ops.push_back(std::move(op));
    } else if (tag == "end") {
      PIN_CHECK_MSG(tok.size() == 1, "bad end line: " << line);
      saw_end = true;
      break;
    } else {
      PIN_UNREACHABLE("unknown trace line: " + line);
    }
  }
  PIN_CHECK_MSG(saw_header && saw_end, "truncated trace stream");
  return trace;
}

void save_trace_file(const OpTrace& trace, const std::string& path) {
  std::ofstream f(path);
  PIN_CHECK_MSG(f.good(), "cannot open " << path);
  save_trace(trace, f);
}

OpTrace load_trace_file(const std::string& path) {
  std::ifstream f(path);
  PIN_CHECK_MSG(f.good(), "cannot open " << path);
  return load_trace(f);
}

}  // namespace pinatubo::sim
