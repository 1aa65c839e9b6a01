#pragma once
// Selection-time applicability predicates for the extension formats.
//
// The model bank predicts how *fast* a configuration would be; these
// predicates say whether it is *convertible at all*. ELL rejects padding
// blow-up (one hub row widens every row) and DIA rejects scattered
// matrices (too many diagonals, or diagonals mostly fill) — exactly the
// matrices whose from_csr() would throw. The paper-space methods, BSR and
// HYB are applicable to everything.
//
// Wise::choose() applies the predicate lazily: it selects over every
// configuration, and only when the winner's kind is rejected does it mask
// that whole kind and select again (at most once per kind). The unmasked
// minimum, when applicable, is also the minimum over the applicable set,
// so the pick equals select_config over applicability_mask(), yet a
// mispredicting tree still never routes an RMAT matrix into
// DiaMatrix::from_csr and down the demotion path. On a matrix no tree
// sends to ELL or DIA, no analysis runs at all.
//
// Costs: EllMatrix::accepts is O(nrows); DiaMatrix::analyze is O(nnz),
// two orders of magnitude above the tree inference on the e2ebench
// oneshot matrices. The eager mask runs each analysis at most once per
// matrix, regardless of how many configs share the kind.

#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "spmv/method.hpp"

namespace wise {

/// True when `cfg` can be prepared for `m` (conversion will not reject).
/// The verdict depends only on cfg.kind; kinds without a predicate are
/// always applicable and cost nothing to ask.
bool config_applicable(const MethodConfig& cfg, const CsrMatrix& m);

/// Per-config applicability for a whole registry: mask[i] != 0 iff
/// config_applicable(configs[i], m). Each kind's predicate runs once and
/// is shared across that kind's configs.
std::vector<char> applicability_mask(std::span<const MethodConfig> configs,
                                     const CsrMatrix& m);

}  // namespace wise
