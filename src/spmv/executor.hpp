#pragma once
// Preparing a matrix for a chosen configuration and running SpMV with it —
// the "transform matrix layout" + "run SpMV" steps of the WISE pipeline
// (paper Fig 8, steps 4-5).

#include <span>
#include <variant>

#include "obs/metrics.hpp"
#include "sparse/csr.hpp"
#include "sparse/dia.hpp"
#include "sparse/ell.hpp"
#include "sparse/hyb.hpp"
#include "sparse/srvpack.hpp"
#include "spmv/bsr.hpp"
#include "spmv/method.hpp"
#include "spmv/plan.hpp"
#include "spmv/srvpack_kernels.hpp"

namespace wise {

/// A matrix converted to the layout a MethodConfig needs, the execution
/// plan that layout runs over, and the measured conversion (preprocessing)
/// time.
///
/// Lifetime: for CSR configurations no conversion happens and the prepared
/// matrix *references* the source CsrMatrix, which must outlive it. For all
/// other configurations the converted layout is owned (owned_bytes()).
class PreparedMatrix {
 public:
  /// Converts `m` (timing the conversion) and builds the nnz-balanced
  /// execution plan the kernels run over (spmv/plan.hpp; BSR has none).
  /// Never null-returns; throws on invalid configs.
  static PreparedMatrix prepare(const CsrMatrix& m, const MethodConfig& cfg);

  /// y = A*x with the prepared layout and the config's scheduling policy.
  /// Not safe for concurrent calls on the same object (the member scratch
  /// buffer is reused across calls); concurrent callers use the overload
  /// below with their own workspace.
  void run(std::span<const value_t> x, std::span<value_t> y);

  /// Const-thread-safe run: identical to run(x, y) but gathers through the
  /// caller-provided scratch workspace, so N threads may run one prepared
  /// object concurrently as long as each brings its own `ws` (and its own
  /// y). Everything else a run touches — layout, plan, config, metric id —
  /// is immutable after prepare(). The serving layer's warm RUN path
  /// (serve/server.cpp) relies on this to execute cached entries with no
  /// per-entry lock.
  void run(std::span<const value_t> x, std::span<value_t> y,
           SrvWorkspace& ws) const;

  const MethodConfig& config() const { return cfg_; }

  /// Wall-clock seconds the layout conversion took (0 for CSR).
  double prep_seconds() const { return prep_seconds_; }

  /// Bytes of the prepared representation (layout only; plans are reported
  /// separately by plan_bytes so existing footprint comparisons hold).
  std::size_t memory_bytes() const;

  /// Bytes of the precomputed execution plan, 0 for BSR, which has none.
  std::size_t plan_bytes() const;

  /// Bytes this object owns beyond the source matrix: the converted layout
  /// (none for CSR, which references the source) plus the plan.
  /// serve::prepared_entry_bytes charges this into the prepared-cache byte
  /// budget on top of the source matrix.
  std::size_t owned_bytes() const;

  index_t nrows() const { return csr_->nrows(); }
  index_t ncols() const { return csr_->ncols(); }

 private:
  /// One alternative per layout, each with the plan it executes over. CSR
  /// runs on the referenced source matrix (csr_); the others own theirs.
  struct CsrLayout {
    SpmvPlan plan;  ///< row plan over the source row_ptr
  };
  struct SrvLayout {
    SrvPackMatrix m;  ///< SELLPACK, Sell-c-σ, Sell-c-R, LAV-1Seg, LAV
    SrvPlan plan;     ///< per-segment chunk plans
  };
  struct BsrLayout {
    BsrMatrix m;  ///< block-granular kernel; no plan
  };
  template <typename Matrix>
  struct FormatLayout {
    Matrix m;       ///< ELL, HYB or DIA
    SpmvPlan plan;  ///< row plan over the source row_ptr
  };
  using Layout =
      std::variant<CsrLayout, SrvLayout, BsrLayout, FormatLayout<EllMatrix>,
                   FormatLayout<HybMatrix>, FormatLayout<DiaMatrix>>;

  MethodConfig cfg_;
  const CsrMatrix* csr_ = nullptr;  ///< the source matrix; always set
  Layout layout_;
  SrvWorkspace ws_;
  double prep_seconds_ = 0.0;
  /// Per-configuration kernel timer ("spmv.run.<config name>"), interned
  /// once at prepare() when metrics are enabled so run() never touches a
  /// string. Stays kInvalidMetric — and run() stays untimed — when metrics
  /// were disabled at prepare() time.
  obs::MetricId run_timer_ = obs::kInvalidMetric;
};

/// Times `iters` SpMV runs of a prepared matrix and returns the average
/// seconds per iteration (minimum of `repeats` timing passes to suppress
/// scheduling noise).
double time_spmv(PreparedMatrix& pm, std::span<const value_t> x,
                 std::span<value_t> y, int iters, int repeats = 3);

}  // namespace wise
