#include "pops/liberty/cell.hpp"

#include <array>
#include <stdexcept>

namespace pops::liberty {

namespace {
constexpr std::array<CellKind, kCellKindCount> kAllKinds = {
    CellKind::Inv,   CellKind::Buf,   CellKind::Nand2, CellKind::Nand3,
    CellKind::Nand4, CellKind::Nor2,  CellKind::Nor3,  CellKind::Nor4,
    CellKind::Aoi21, CellKind::Oai21, CellKind::Xor2,  CellKind::Xnor2,
};
}  // namespace

std::span<const CellKind> all_cell_kinds() noexcept { return kAllKinds; }

const char* to_string(CellKind kind) noexcept {
  switch (kind) {
    case CellKind::Inv: return "inv";
    case CellKind::Buf: return "buf";
    case CellKind::Nand2: return "nand2";
    case CellKind::Nand3: return "nand3";
    case CellKind::Nand4: return "nand4";
    case CellKind::Nor2: return "nor2";
    case CellKind::Nor3: return "nor3";
    case CellKind::Nor4: return "nor4";
    case CellKind::Aoi21: return "aoi21";
    case CellKind::Oai21: return "oai21";
    case CellKind::Xor2: return "xor2";
    case CellKind::Xnor2: return "xnor2";
  }
  return "?";
}

CellKind cell_kind_from_string(const std::string& name) {
  for (CellKind k : kAllKinds)
    if (name == to_string(k)) return k;
  throw std::invalid_argument("unknown cell kind: " + name);
}

std::uint64_t Cell::eval_word(std::span<const std::uint64_t> inputs) const {
  if (static_cast<int>(inputs.size()) != fanin)
    throw std::invalid_argument(
        std::string("Cell::eval_word arity mismatch for ") + name + ": got " +
        std::to_string(inputs.size()));
  switch (kind) {
    case CellKind::Inv:
      return ~inputs[0];
    case CellKind::Buf:
      return inputs[0];
    case CellKind::Nand2:
    case CellKind::Nand3:
    case CellKind::Nand4: {
      std::uint64_t conj = ~std::uint64_t{0};
      for (const std::uint64_t w : inputs) conj &= w;
      return ~conj;
    }
    case CellKind::Nor2:
    case CellKind::Nor3:
    case CellKind::Nor4: {
      std::uint64_t disj = 0;
      for (const std::uint64_t w : inputs) disj |= w;
      return ~disj;
    }
    case CellKind::Aoi21:
      return ~((inputs[0] & inputs[1]) | inputs[2]);
    case CellKind::Oai21:
      return ~((inputs[0] | inputs[1]) & inputs[2]);
    case CellKind::Xor2:
      return inputs[0] ^ inputs[1];
    case CellKind::Xnor2:
      return ~(inputs[0] ^ inputs[1]);
  }
  throw std::logic_error("Cell::eval_word: unreachable");
}

}  // namespace pops::liberty
