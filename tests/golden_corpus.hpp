#pragma once
// The fixed matrix corpus the golden tests pin their output on
// (selection_golden_test: the pinned bank's picks; layout_golden_test: the
// SRVPack layout bytes). Changing a matrix here invalidates both golden
// files under tests/data/golden/.

#include <string>
#include <utility>
#include <vector>

#include "gen/generators.hpp"
#include "sparse/csr.hpp"

namespace wise::testing {

/// Twelve matrices across the generator families: skewed and local RMAT
/// graphs, a geometric graph, stencils, banded and block-diagonal
/// structure, and a road-like graph.
inline std::vector<std::pair<std::string, CsrMatrix>> golden_corpus() {
  std::vector<std::pair<std::string, CsrMatrix>> out;
  const auto add = [&](std::string name, const CooMatrix& coo) {
    out.emplace_back(std::move(name), CsrMatrix::from_coo(coo));
  };
  add("rmat-hs", generate_rmat(
                     rmat_class_params(RmatClass::kHighSkew, 1 << 13, 12), 1));
  add("rmat-ms", generate_rmat(
                     rmat_class_params(RmatClass::kMedSkew, 1 << 13, 8), 2));
  add("rmat-ls", generate_rmat(
                     rmat_class_params(RmatClass::kLowSkew, 1 << 12, 16), 3));
  add("rmat-ll", generate_rmat(
                     rmat_class_params(RmatClass::kLowLoc, 1 << 13, 10), 4));
  add("rmat-hl", generate_rmat(
                     rmat_class_params(RmatClass::kHighLoc, 1 << 12, 8), 5));
  add("rgg", generate_rgg(1 << 13, 10, 6));
  add("stencil2d-5", generate_stencil2d(96, 96, 5));
  add("stencil2d-9", generate_stencil2d(64, 80, 9));
  add("stencil3d", generate_stencil3d(20, 20, 20));
  add("banded", generate_banded(6000, 12, 0.5, 7));
  add("block-diag", generate_block_diag(6000, 24, 0.6, 8));
  add("road", generate_road_like(8000, 9));
  return out;
}

}  // namespace wise::testing
