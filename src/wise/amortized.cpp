#include "wise/amortized.hpp"

#include <limits>
#include <stdexcept>

#include "wise/speedup_class.hpp"

namespace wise {

namespace {
// Upper bounds of prep classes P0..P4 (P5 is open-ended).
constexpr double kPrepBounds[] = {1, 3, 8, 20, 50};
constexpr double kPrepMidpoints[] = {0.5, 2, 5, 13, 33, 80};
}  // namespace

int classify_prep_cost(double prep_csr_iters) {
  if (!(prep_csr_iters >= 0)) {
    throw std::invalid_argument("classify_prep_cost: negative cost");
  }
  for (int k = 0; k < kNumPrepClasses - 1; ++k) {
    if (prep_csr_iters < kPrepBounds[k]) return k;
  }
  return kNumPrepClasses - 1;
}

double prep_class_midpoint(int cls) {
  if (cls < 0 || cls >= kNumPrepClasses) {
    throw std::out_of_range("prep_class_midpoint");
  }
  return kPrepMidpoints[cls];
}

void AmortizedWise::train(const std::vector<MethodConfig>& configs,
                          const std::vector<std::vector<double>>& features,
                          const std::vector<std::vector<double>>& rel_times,
                          const std::vector<std::vector<double>>& prep_iters,
                          const TreeParams& params) {
  TreeBank<MethodConfig> speed, prep;
  speed.train(configs, features, rel_times, params, kSpeedupHead);
  prep.train(configs, features, prep_iters, params, kPrepHead);
  speed_ = std::move(speed);
  prep_ = std::move(prep);
}

AmortizedChoice AmortizedWise::choose(std::span<const double> features,
                                      double expected_iterations) const {
  if (!trained()) {
    throw std::logic_error("AmortizedWise::choose: not trained");
  }
  if (!(expected_iterations > 0)) {
    throw std::invalid_argument(
        "AmortizedWise::choose: iterations must be > 0");
  }
  const std::vector<int> speed = speed_.predict_classes(features);
  const std::vector<int> prep = prep_.predict_classes(features);
  const auto& configs = speed_.configs();

  AmortizedChoice best;
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<double> best_rank;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const double cost = expected_iterations * class_midpoint_rel(speed[c]) +
                        prep_class_midpoint(prep[c]);
    auto rank = configs[c].selection_rank();
    const bool better =
        cost < best_cost - 1e-12 ||
        (cost < best_cost + 1e-12 && (best_rank.empty() || rank < best_rank));
    if (better) {
      best_cost = cost;
      best_rank = std::move(rank);
      best = {configs[c], speed[c], prep[c], cost};
    }
  }
  return best;
}

}  // namespace wise
