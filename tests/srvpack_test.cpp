// Tests for the SRVPack unified format (paper Appendix A).

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "sparse/srvpack.hpp"
#include "sparse/validate_scan.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

namespace wise {
namespace {

using testing::paper_example_matrix;
using testing::random_csr;

SrvBuildOptions sellpack_opts(int c) { return {.c = c}; }

TEST(SrvPack, RejectsInvalidOptions) {
  const CsrMatrix m = random_csr(8, 8, 2.0, 1);
  EXPECT_THROW(SrvPackMatrix::build(m, {.c = 0}), std::invalid_argument);
  EXPECT_THROW(SrvPackMatrix::build(m, {.c = 65}), std::invalid_argument);
  EXPECT_THROW(SrvPackMatrix::build(m, {.c = 4, .sigma = 0}),
               std::invalid_argument);
  EXPECT_THROW(
      SrvPackMatrix::build(
          m, {.c = 4, .sigma = 1, .cfs = true, .segment_fractions = {1.5}}),
      std::invalid_argument);
}

TEST(SrvPack, SellpackLayoutMatchesPaperFigure1b) {
  // Fig 1b: SELLPACK with c=2 chunks the 8 rows into 4 chunks of lengths
  // max(4,1)=4, max(2,2)=2, max(1,2)=2, max(3,2)=3.
  const CsrMatrix m = paper_example_matrix();
  const SrvPackMatrix p = SrvPackMatrix::build(m, sellpack_opts(2));
  ASSERT_EQ(p.segments().size(), 1u);
  const auto& seg = p.segments()[0];
  ASSERT_EQ(seg.num_chunks(), 4);
  EXPECT_EQ(seg.chunk_offset[1] - seg.chunk_offset[0], 4);
  EXPECT_EQ(seg.chunk_offset[2] - seg.chunk_offset[1], 2);
  EXPECT_EQ(seg.chunk_offset[3] - seg.chunk_offset[2], 2);
  EXPECT_EQ(seg.chunk_offset[4] - seg.chunk_offset[3], 3);
  // Natural row order.
  for (index_t i = 0; i < 8; ++i) {
    EXPECT_EQ(seg.row_order[static_cast<std::size_t>(i)], i);
  }
  // Stored entries = (4+2+2+3)*2 = 22 for 17 nonzeros.
  EXPECT_EQ(p.stored_entries(), 22);
}

TEST(SrvPack, SellCSigmaReducesPaddingVsSellpack) {
  const CsrMatrix m = paper_example_matrix();
  const SrvPackMatrix plain = SrvPackMatrix::build(m, {.c = 2, .sigma = 1});
  const SrvPackMatrix sorted = SrvPackMatrix::build(m, {.c = 2, .sigma = 4});
  EXPECT_LE(sorted.stored_entries(), plain.stored_entries());
  // Fig 1c: with σ=4, c=2 the first window packs rows (0,1) as (r0,r1)
  // sorted by count: r0 has 4, r1 has 1 → still chunk len 4... but rows
  // 2,3 pair to lengths (2,2). Padding must not exceed SELLPACK's.
  EXPECT_LE(sorted.padding_ratio(), plain.padding_ratio());
}

TEST(SrvPack, SigmaAllMatchesFullRfs) {
  const CsrMatrix m = random_csr(100, 100, 6.0, 3);
  const SrvPackMatrix p =
      SrvPackMatrix::build(m, {.c = 4, .sigma = kSigmaAll});
  const auto& seg = p.segments()[0];
  for (std::size_t i = 1; i < seg.row_order.size(); ++i) {
    EXPECT_GE(m.row_nnz(seg.row_order[i - 1]), m.row_nnz(seg.row_order[i]));
  }
}

TEST(SrvPack, RfsDropsEmptyRows) {
  CooMatrix coo(10, 10);
  coo.add(0, 0, 1.0);
  coo.add(5, 5, 2.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const SrvPackMatrix p =
      SrvPackMatrix::build(m, {.c = 4, .sigma = kSigmaAll});
  EXPECT_EQ(p.segments()[0].num_rows(), 2);
}

TEST(SrvPack, NaturalOrderKeepsEmptyRows) {
  CooMatrix coo(10, 10);
  coo.add(0, 0, 1.0);
  coo.add(5, 5, 2.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const SrvPackMatrix p = SrvPackMatrix::build(m, sellpack_opts(4));
  EXPECT_EQ(p.segments()[0].num_rows(), 10);
}

TEST(SrvPack, CfsRecordsColumnPermutation) {
  const CsrMatrix m = random_csr(32, 32, 4.0, 5);
  const SrvPackMatrix p =
      SrvPackMatrix::build(m, {.c = 4, .sigma = kSigmaAll, .cfs = true});
  EXPECT_TRUE(p.has_cfs());
  EXPECT_EQ(p.col_order().size(), 32u);
  // The permutation orders columns by descending count.
  const auto counts = m.col_counts();
  for (std::size_t i = 1; i < p.col_order().size(); ++i) {
    EXPECT_GE(counts[static_cast<std::size_t>(p.col_order()[i - 1])],
              counts[static_cast<std::size_t>(p.col_order()[i])]);
  }
}

TEST(SrvPack, LavSplitsIntoTwoSegments) {
  const CsrMatrix m = random_csr(64, 64, 8.0, 6);
  const SrvPackMatrix p = SrvPackMatrix::build(
      m,
      {.c = 4, .sigma = kSigmaAll, .cfs = true, .segment_fractions = {0.7}});
  ASSERT_EQ(p.segments().size(), 2u);
  EXPECT_EQ(p.segments()[0].col_begin, 0);
  EXPECT_EQ(p.segments()[0].col_end, p.segments()[1].col_begin);
  EXPECT_EQ(p.segments()[1].col_end, 64);
  // The CFS-ordered dense segment must hold the majority of the nonzeros:
  // count actual (non-padding) entries per segment.
  const int c = p.c();
  std::array<nnz_t, 2> seg_nnz{};
  for (int s = 0; s < 2; ++s) {
    const auto& seg = p.segments()[static_cast<std::size_t>(s)];
    for (std::size_t k = 0; k < seg.vals.size(); ++k) {
      if (seg.vals[k] != 0.0) ++seg_nnz[static_cast<std::size_t>(s)];
    }
  }
  (void)c;
  EXPECT_GE(static_cast<double>(seg_nnz[0]),
            0.65 * static_cast<double>(m.nnz()));
  EXPECT_EQ(seg_nnz[0] + seg_nnz[1], m.nnz());
}

struct RoundTripCase {
  const char* name;
  SrvBuildOptions opts;
};

class SrvPackRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(SrvPackRoundTrip, ToCooRecoversOriginalMatrix) {
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    const CsrMatrix m = random_csr(77, 53, 5.0, seed);
    const SrvPackMatrix p = SrvPackMatrix::build(m, GetParam().opts);
    EXPECT_EQ(CsrMatrix::from_coo(p.to_coo()), m)
        << GetParam().name << " seed " << seed;
    EXPECT_EQ(p.nnz(), m.nnz());
    EXPECT_GE(p.stored_entries(), p.nnz());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, SrvPackRoundTrip,
    ::testing::Values(
        RoundTripCase{"sellpack_c4", {.c = 4}},
        RoundTripCase{"sellpack_c8", {.c = 8}},
        RoundTripCase{"sell_c_sigma", {.c = 4, .sigma = 16}},
        RoundTripCase{"sell_c_r", {.c = 8, .sigma = kSigmaAll}},
        RoundTripCase{"lav_1seg",
                      {.c = 4, .sigma = kSigmaAll, .cfs = true}},
        RoundTripCase{"lav",
                      {.c = 8,
                       .sigma = kSigmaAll,
                       .cfs = true,
                       .segment_fractions = {0.7}}},
        RoundTripCase{"lav_t9",
                      {.c = 4,
                       .sigma = kSigmaAll,
                       .cfs = true,
                       .segment_fractions = {0.9}}},
        RoundTripCase{"three_segments",
                      {.c = 4,
                       .sigma = kSigmaAll,
                       .cfs = true,
                       .segment_fractions = {0.5, 0.8}}}),
    [](const auto& info) { return info.param.name; });

TEST(SrvPack, PaddingRatioIsZeroForUniformRows) {
  // Diagonal matrix: every row has exactly one nonzero → no padding.
  CooMatrix coo(16, 16);
  for (index_t i = 0; i < 16; ++i) coo.add(i, i, 1.0);
  const SrvPackMatrix p =
      SrvPackMatrix::build(CsrMatrix::from_coo(coo), sellpack_opts(4));
  EXPECT_DOUBLE_EQ(p.padding_ratio(), 0.0);
}

TEST(SrvPack, HandlesEmptyMatrix) {
  CooMatrix coo(4, 4);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const SrvPackMatrix p = SrvPackMatrix::build(m, sellpack_opts(4));
  EXPECT_EQ(p.nnz(), 0);
  EXPECT_EQ(p.stored_entries(), 0);
  EXPECT_DOUBLE_EQ(p.padding_ratio(), 0.0);
}

TEST(SrvPack, WritesEveryPlaneSlotOnADirtyHeap) {
  // The planes are allocated without a zero-fill, so a slot the builder
  // skipped would keep whatever the allocator hands back. Leave freed
  // blocks of the planes' sizes full of 0xFF bytes (a NaN value, column
  // id -1) and build again: the layout must equal the one built first.
  const CsrMatrix m = random_csr(203, 150, 5.0, 12);
  for (const SrvBuildOptions& opts :
       {sellpack_opts(8), SrvBuildOptions{.c = 4, .sigma = 16},
        SrvBuildOptions{.c = 8, .sigma = kSigmaAll, .cfs = true,
                        .segment_fractions = {0.7}}}) {
    const SrvPackMatrix clean = SrvPackMatrix::build(m, opts);
    for (const auto& seg : clean.segments()) {
      for (std::size_t bytes : {seg.vals.size() * sizeof(value_t),
                                seg.col_ids.size() * sizeof(index_t)}) {
        uninit_aligned_vector<unsigned char> junk(bytes);
        std::fill(junk.begin(), junk.end(), 0xFF);
      }
    }
    const SrvPackMatrix p = SrvPackMatrix::build(m, opts);
    EXPECT_NO_THROW(p.validate());
    for (std::size_t s = 0; s < p.segments().size(); ++s) {
      EXPECT_EQ(p.segments()[s].col_ids, clean.segments()[s].col_ids);
      EXPECT_EQ(p.segments()[s].vals, clean.segments()[s].vals);
    }
  }
}

TEST(SrvPack, MemoryBytesIsPositiveAndGrowsWithPadding) {
  const CsrMatrix m = random_csr(64, 64, 4.0, 8);
  const SrvPackMatrix tight =
      SrvPackMatrix::build(m, {.c = 4, .sigma = kSigmaAll});
  const SrvPackMatrix padded = SrvPackMatrix::build(m, sellpack_opts(4));
  EXPECT_GT(tight.memory_bytes(), 0u);
  EXPECT_GE(padded.stored_entries(), tight.stored_entries());
}

/// A LAV layout (two column segments) whose segment 1 the corruption tests
/// write to. The layout itself is not const, so casting away the
/// accessor's const is well defined.
class SrvPackCorruption : public ::testing::TestWithParam<index_t> {
 protected:
  void SetUp() override {
    const index_t n = GetParam();
    layout_ = SrvPackMatrix::build(
        random_csr(n, n, 16.0, 41),
        {.c = 8, .sigma = kSigmaAll, .cfs = true, .segment_fractions = {0.7}});
    ASSERT_EQ(layout_.segments().size(), 2u);
    ASSERT_NO_THROW(layout_.validate());
    if (n >= 8000) {
      ASSERT_GE(static_cast<std::int64_t>(segment1().col_ids.size()),
                detail::kParallelScanMin);
    }
  }
  SrvSegment& segment1() {
    return const_cast<SrvSegment&>(layout_.segments()[1]);
  }
  /// The message of the error validate() throws, or "" if none.
  std::string error() const {
    try {
      layout_.validate();
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kValidation);
      return e.message();
    }
    return "";
  }
  SrvPackMatrix layout_;
};

constexpr const char* kOutsideWindow =
    "SrvPackMatrix: segment 1: column id outside segment window";

TEST_P(SrvPackCorruption, ColumnIdOutsideWindowKeepsItsMessage) {
  SrvSegment& seg = segment1();
  ASSERT_GT(seg.col_begin, 0);
  seg.col_ids.back() = seg.col_begin - 1;
  EXPECT_EQ(error(), kOutsideWindow);
  seg.col_ids.back() = seg.col_end;
  EXPECT_EQ(error(), kOutsideWindow);
}

TEST_P(SrvPackCorruption, NonFiniteValueKeepsItsMessage) {
  SrvSegment& seg = segment1();
  seg.vals[seg.vals.size() / 2] = std::numeric_limits<value_t>::quiet_NaN();
  EXPECT_EQ(error(), "SrvPackMatrix: segment 1: non-finite value");
  // A bad column id in the same segment is reported first.
  seg.col_ids.front() = seg.col_end;
  EXPECT_EQ(error(), kOutsideWindow);
}

// 64 rows keep every scan on the calling thread; at 8000 rows segment 1
// holds more than kParallelScanMin slots (SetUp checks), so the scans
// split across threads (ctest reruns this binary at 1 and 8 OpenMP
// threads).
INSTANTIATE_TEST_SUITE_P(Sizes, SrvPackCorruption,
                         ::testing::Values(index_t{64}, index_t{8000}));

}  // namespace
}  // namespace wise
