// Golden layout: every SRVPack configuration in the registry, built from
// the golden corpus plus edge matrices, must produce the layout bytes
// recorded in tests/data/golden/srvpack_layout.txt, at 1, 2 and 8 OpenMP
// threads. A builder change that moves one row, one chunk offset or one
// padding slot shows up here as a diff.
//
// The golden file holds one line per (matrix, configuration, segment):
//   <matrix> <config> seg<s> <row_order> <chunk_offset> <col_ids> <vals>
// where each array is given by the FNV-1a (util/hash.hpp) of its bytes.
// On a mismatch the test writes the lines it computed to a file under the
// gtest temp directory and names it, so a deliberate layout change can
// regenerate the golden file.

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "golden_corpus.hpp"
#include "sparse/srvpack.hpp"
#include "spmv/bsr.hpp"
#include "test_util.hpp"
#include "util/hash.hpp"

namespace wise {
namespace {

namespace fs = std::filesystem;

/// The golden corpus plus the shapes the builder special-cases: no rows,
/// no nonzeros (full RFS drops every row), fewer rows than threads, one
/// dense row among short ones, and a row count that is a multiple of
/// neither c nor any σ.
std::vector<std::pair<std::string, CsrMatrix>> layout_corpus() {
  auto out = testing::golden_corpus();
  out.emplace_back("empty", CsrMatrix::from_coo(CooMatrix(0, 0)));
  out.emplace_back("all-rows-empty", CsrMatrix::from_coo(CooMatrix(100, 64)));

  CooMatrix tiny(3, 10);
  tiny.add(0, 9, 1.5);
  tiny.add(2, 0, -2.0);
  tiny.add(2, 4, 0.25);
  out.emplace_back("three-rows", CsrMatrix::from_coo(tiny));

  CooMatrix dense_row(300, 300);
  for (index_t i = 0; i < 300; ++i) {
    dense_row.add(i, i, 1.0 + i);
    if (i != 137) dense_row.add(137, i, 0.5 * i + 0.125);
  }
  dense_row.canonicalize();
  out.emplace_back("one-dense-row", CsrMatrix::from_coo(dense_row));

  out.emplace_back("ragged-4613", testing::random_csr(4613, 4000, 6.0, 11));
  return out;
}

/// One configuration per distinct SRVPack build (the schedule does not
/// change the layout), labelled with the first config name that builds it.
std::vector<std::pair<std::string, SrvBuildOptions>> srvpack_builds() {
  std::vector<std::pair<std::string, SrvBuildOptions>> out;
  for (const MethodConfig& cfg : extended_method_configs()) {
    switch (cfg.kind) {
      case MethodKind::kSellpack:
      case MethodKind::kSellCSigma:
      case MethodKind::kSellCR:
      case MethodKind::kLav1Seg:
      case MethodKind::kLav:
        break;
      default:
        continue;
    }
    const SrvBuildOptions opts = cfg.srv_options();
    if (std::none_of(out.begin(), out.end(),
                     [&opts](const auto& b) { return b.second == opts; })) {
      out.emplace_back(cfg.name(), opts);
    }
  }
  return out;
}

template <typename Vec>
std::string hex_hash(const Vec& v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    fnv1a(v.data(), v.size() * sizeof(v[0]))));
  return buf;
}

std::string layout_digest(
    const std::vector<std::pair<std::string, CsrMatrix>>& ms,
    const std::vector<std::pair<std::string, SrvBuildOptions>>& builds) {
  std::ostringstream out;
  for (const auto& [mname, m] : ms) {
    for (const auto& [cname, opts] : builds) {
      const SrvPackMatrix p = SrvPackMatrix::build(m, opts);
      EXPECT_NO_THROW(p.validate()) << mname << ' ' << cname;
      for (std::size_t s = 0; s < p.segments().size(); ++s) {
        const SrvSegment& seg = p.segments()[s];
        out << mname << ' ' << cname << " seg" << s << ' '
            << hex_hash(seg.row_order) << ' ' << hex_hash(seg.chunk_offset)
            << ' ' << hex_hash(seg.col_ids) << ' ' << hex_hash(seg.vals)
            << '\n';
      }
    }
  }
  return out.str();
}

TEST(GoldenLayout, SrvPackLayoutBytesAreThreadCountInvariant) {
  std::ifstream in(fs::path(WISE_TEST_DATA_DIR) / "golden" /
                   "srvpack_layout.txt");
  ASSERT_TRUE(in) << "missing golden file";
  std::stringstream golden;
  golden << in.rdbuf();

  const auto ms = layout_corpus();
  const auto builds = srvpack_builds();
  ASSERT_EQ(builds.size(), 18u);  // 26 SRVPack configs, schedules folded
  const int ambient = omp_get_max_threads();
  for (int threads : {1, 2, 8}) {
    omp_set_num_threads(threads);
    const std::string got = layout_digest(ms, builds);
    if (got != golden.str()) {
      const fs::path actual =
          fs::path(::testing::TempDir()) / "srvpack_layout.actual.txt";
      std::ofstream(actual) << got;
      ADD_FAILURE() << "layout differs from the golden file at " << threads
                    << " threads; computed lines written to " << actual;
    }
  }
  omp_set_num_threads(ambient);
}

}  // namespace
}  // namespace wise
