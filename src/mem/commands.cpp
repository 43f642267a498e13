#include "mem/commands.hpp"

#include <iterator>
#include <sstream>

namespace pinatubo::mem {

const char* to_string(CmdKind k) {
  static constexpr const char* kNames[] = {
      "ACT",       "RD",        "WR",     "PRE",     "MRS4",   "PIM_RESET",
      "PIM_LOAD",  "PIM_SENSE", "PIM_WB", "PIM_GDL", "PIM_IO",
  };
  const auto i = static_cast<std::size_t>(k);
  return i < std::size(kNames) ? kNames[i] : "?";
}

std::string Command::to_string() const {
  std::ostringstream os;
  os << mem::to_string(kind) << ' ' << addr.to_string();
  if (kind == CmdKind::kModeSet) os << " op=" << pinatubo::to_string(op);
  if (aux != 0) os << " aux=" << aux;
  return os.str();
}

}  // namespace pinatubo::mem
