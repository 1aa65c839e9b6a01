#pragma once
// Amortization-aware selection (extension of paper §4.4).
//
// The paper's heuristic uses preprocessing cost only as a tie-break, which
// is the right call when SpMV runs thousands of iterations. But for short
// runs the conversion cost can exceed the total savings. This extension
// trains a second tree per configuration that predicts the *preprocessing
// cost class* (conversion time expressed in best-CSR SpMV iterations) from
// the same features, and selects the configuration minimizing the expected
// total cost for a caller-supplied iteration count N:
//
//     cost(config) ≈ N * rel_time(speedup class midpoint)
//                    + prep_iters(prep class midpoint)
//
// measured in units of best-CSR iterations. As N → ∞ this converges to the
// paper's heuristic; at small N it prefers cheap formats.
//
// Both tree families are TreeBank<MethodConfig>s (wise/tree_bank.hpp), one
// per class head — kSpeedupHead and kPrepHead — so training and flat
// inference are the SpMV bank's; this class keeps only the cost formula.
// It is never persisted.

#include <span>
#include <vector>

#include "wise/model_bank.hpp"

namespace wise {

/// Number of preprocessing-cost classes.
inline constexpr int kNumPrepClasses = 6;

/// Buckets a preprocessing cost (in best-CSR iterations) into classes
/// P0=[0,1) P1=[1,3) P2=[3,8) P3=[8,20) P4=[20,50) P5=[50,inf).
int classify_prep_cost(double prep_csr_iters);

/// Representative cost of a class (geometric-ish midpoints; P5 uses 80).
double prep_class_midpoint(int cls);

/// P0..P5 of preparation cost in best-CSR iterations.
inline constexpr ClassHead kPrepHead{kNumPrepClasses, classify_prep_cost};

struct AmortizedChoice {
  MethodConfig config;
  int speed_class = 0;
  int prep_class = 0;
  double expected_cost_iters = 0;  ///< N*rel + prep, in best-CSR iterations
};

/// Dual-model selector: speedup trees + preprocessing-cost trees.
class AmortizedWise {
 public:
  /// Trains both model families.
  ///   rel_times[i][c]  — t_config / t_bestCSR (as in ModelBank)
  ///   prep_iters[i][c] — prep_seconds / t_bestCSR
  void train(const std::vector<MethodConfig>& configs,
             const std::vector<std::vector<double>>& features,
             const std::vector<std::vector<double>>& rel_times,
             const std::vector<std::vector<double>>& prep_iters,
             const TreeParams& params = {});

  /// Picks the configuration minimizing expected total cost over
  /// `expected_iterations` SpMV runs. Ties (within 1e-12) break toward the
  /// paper's preprocessing-cost order. Throws std::invalid_argument on a
  /// feature vector of the wrong width.
  AmortizedChoice choose(std::span<const double> features,
                         double expected_iterations) const;

  bool trained() const { return speed_.trained(); }
  const std::vector<MethodConfig>& configs() const { return speed_.configs(); }

 private:
  TreeBank<MethodConfig> speed_;  ///< kSpeedupHead
  TreeBank<MethodConfig> prep_;   ///< kPrepHead
};

}  // namespace wise
