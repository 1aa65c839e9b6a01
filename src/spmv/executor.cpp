#include "spmv/executor.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <variant>

#include <omp.h>

#include "spmv/csr_kernels.hpp"
#include "spmv/format_kernels.hpp"
#include "util/timer.hpp"

namespace wise {

namespace {

template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};
template <typename... Fs>
Overloaded(Fs...) -> Overloaded<Fs...>;

/// Runs one layout conversion under its prepare span and stores its
/// wall-clock time in `seconds`. Validation runs after the timed region:
/// conversion timings stay comparable across configurations, but a
/// conversion that produced a broken layout is caught here (wise::Error,
/// kValidation) instead of inside the kernel.
template <typename Build>
auto convert(const char* span_name, double& seconds, Build&& build) {
  obs::ScopedTimer span(span_name);
  Timer t;
  auto layout = build();
  seconds = t.seconds();
  if constexpr (requires { layout.validate(); }) layout.validate();
  return layout;
}

}  // namespace

PreparedMatrix PreparedMatrix::prepare(const CsrMatrix& m,
                                       const MethodConfig& cfg) {
  auto& metrics = obs::MetricsRegistry::global();
  PreparedMatrix pm;
  pm.cfg_ = cfg;
  pm.csr_ = &m;
  double& secs = pm.prep_seconds_;
  switch (cfg.kind) {
    case MethodKind::kCsr:
      pm.layout_ = CsrLayout{};
      break;
    case MethodKind::kSellpack:
    case MethodKind::kSellCSigma:
    case MethodKind::kSellCR:
    case MethodKind::kLav1Seg:
    case MethodKind::kLav:
      pm.layout_ = SrvLayout{convert("spmv.prepare.srvpack", secs, [&] {
        return SrvPackMatrix::build(m, cfg.srv_options());
      })};
      break;
    case MethodKind::kBsr:
      pm.layout_ = BsrLayout{convert("spmv.prepare.bsr", secs, [&] {
        return BsrMatrix::from_csr(m, cfg.c);
      })};
      break;
    case MethodKind::kEll:
      pm.layout_ = FormatLayout<EllMatrix>{convert(
          "spmv.prepare.ell", secs, [&] { return EllMatrix::from_csr(m); })};
      break;
    case MethodKind::kHyb:
      pm.layout_ = FormatLayout<HybMatrix>{
          convert("spmv.prepare.hyb", secs,
                  [&] { return HybMatrix::from_csr(m, cfg.c); })};
      break;
    case MethodKind::kDia:
      pm.layout_ = FormatLayout<DiaMatrix>{convert(
          "spmv.prepare.dia", secs, [&] { return DiaMatrix::from_csr(m); })};
      break;
  }
  {
    // Balancing happens once here; steady-state run() calls pay zero
    // repartitioning cost. The block count is pinned to the thread count
    // at prepare time — running with fewer threads later stays correct
    // (blocks are just shared out), it only rebalances more coarsely.
    obs::ScopedTimer span("spmv.prepare.plan");
    const int threads = omp_get_max_threads();
    std::visit(
        Overloaded{
            [&](CsrLayout& l) {
              l.plan = build_csr_plan(m, cfg.sched, threads);
            },
            [&](SrvLayout& l) {
              l.plan = build_srv_plan(l.m, cfg.sched, threads);
            },
            [](BsrLayout&) {},
            // ELL/HYB/DIA: the balanced partition comes from the *source*
            // CSR row_ptr — the format layouts keep CSR's row order, so its
            // nnz prefix sum is the right work weight for all three.
            [&](auto& l) {
              l.plan = build_balanced_plan(
                  m.row_ptr(), plan_blocks_for(cfg.sched, threads));
            },
        },
        pm.layout_);
  }
  if (metrics.enabled()) {
    pm.run_timer_ = metrics.timer_id("spmv.run." + cfg.name());
    metrics.add("spmv.prepare.count");
    std::visit(
        Overloaded{
            [](const BsrLayout&) {},
            [&](const auto& l) {
              metrics.add("spmv.prepare.plan.count");
              // Variant histogram: how many plan blocks will dispatch to
              // each specialized loop. Surfaced through STATS so operators
              // can see whether the classifier is actually firing on live
              // traffic.
              const auto hist = l.plan.variant_histogram();
              for (std::size_t v = 0; v < kNumKernelVariants; ++v) {
                if (hist[v] == 0) continue;
                metrics.add(
                    std::string("spmv.plan.variant.") +
                        kernel_variant_name(static_cast<KernelVariant>(v)),
                    hist[v]);
              }
            },
        },
        pm.layout_);
    metrics.set_gauge("spmv.prepare.memory_bytes",
                      static_cast<double>(pm.memory_bytes()));
  }
  return pm;
}

void PreparedMatrix::run(std::span<const value_t> x, std::span<value_t> y) {
  run(x, y, ws_);
}

void PreparedMatrix::run(std::span<const value_t> x, std::span<value_t> y,
                         SrvWorkspace& ws) const {
  obs::ScopedTimer span(run_timer_, obs::MetricsRegistry::global());
  std::visit(
      Overloaded{
          [&](const CsrLayout& l) {
            spmv_csr(*csr_, x, y, cfg_.sched, l.plan);
          },
          [&](const SrvLayout& l) {
            spmv_srvpack(l.m, x, y, cfg_.sched, ws, l.plan);
          },
          [&](const BsrLayout& l) { l.m.spmv(x, y); },
          [&](const FormatLayout<EllMatrix>& l) {
            spmv_ell(l.m, x, y, l.plan);
          },
          [&](const FormatLayout<HybMatrix>& l) {
            spmv_hyb(l.m, x, y, l.plan);
          },
          [&](const FormatLayout<DiaMatrix>& l) {
            spmv_dia(l.m, x, y, l.plan);
          },
      },
      layout_);
}

std::size_t PreparedMatrix::memory_bytes() const {
  return std::visit(
      Overloaded{
          [&](const CsrLayout&) { return csr_->memory_bytes(); },
          [](const auto& l) { return l.m.memory_bytes(); },
      },
      layout_);
}

std::size_t PreparedMatrix::plan_bytes() const {
  return std::visit(
      Overloaded{
          [](const BsrLayout&) -> std::size_t { return 0; },
          [](const auto& l) -> std::size_t { return l.plan.memory_bytes(); },
      },
      layout_);
}

std::size_t PreparedMatrix::owned_bytes() const {
  const bool owns_layout = !std::holds_alternative<CsrLayout>(layout_);
  return (owns_layout ? memory_bytes() : 0) + plan_bytes();
}

double time_spmv(PreparedMatrix& pm, std::span<const value_t> x,
                 std::span<value_t> y, int iters, int repeats) {
  iters = std::max(1, iters);
  repeats = std::max(1, repeats);
  // Warm-up: faults in the prepared arrays and fills caches comparably
  // across configurations.
  pm.run(x, y);

  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    Timer t;
    for (int i = 0; i < iters; ++i) pm.run(x, y);
    best = std::min(best, t.seconds() / iters);
  }
  return best;
}

}  // namespace wise
