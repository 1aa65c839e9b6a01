#include "spmv/applicability.hpp"

#include <array>
#include <optional>

#include "sparse/dia.hpp"
#include "sparse/ell.hpp"

namespace wise {

bool config_applicable(const MethodConfig& cfg, const CsrMatrix& m) {
  switch (cfg.kind) {
    case MethodKind::kEll:
      return EllMatrix::accepts(m);
    case MethodKind::kDia:
      return DiaMatrix::accepts(m);
    default:
      return true;
  }
}

std::vector<char> applicability_mask(std::span<const MethodConfig> configs,
                                     const CsrMatrix& m) {
  std::vector<char> mask(configs.size(), 1);
  // One verdict per MethodKind (kDia is the last enumerator): the predicate
  // depends only on the kind, so each analysis runs at most once.
  constexpr auto kKinds = static_cast<std::size_t>(MethodKind::kDia) + 1;
  std::array<std::optional<bool>, kKinds> kind_ok;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    auto& ok = kind_ok[static_cast<std::size_t>(configs[i].kind)];
    if (!ok) ok = config_applicable(configs[i], m);
    mask[i] = *ok ? 1 : 0;
  }
  return mask;
}

}  // namespace wise
