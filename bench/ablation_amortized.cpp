// Amortization ablation (extension of §4.4): the paper treats
// preprocessing cost as a tie-break because its workloads iterate SpMV
// many times. This bench quantifies what happens for *short* runs: for
// expected iteration counts N ∈ {1, 5, 20, 100, 1000}, compare the total
// cost (selection's prep + N SpMV iterations, in units of MKL iterations)
// achieved by (a) the paper's heuristic and (b) the horizon-aware
// selection rule (wise/selector.hpp) over the same bank's speed and prep
// heads, both cross-validated.

#include <cstdio>

#include "bench_common.hpp"
#include "ml/validation.hpp"
#include "util/ascii_plot.hpp"
#include "wise/model_bank.hpp"
#include "wise/selector.hpp"

using namespace wise;
using namespace wise::bench;

namespace {

/// Mean end-to-end cost ratio vs MKL over the corpus, for a fixed N:
/// (prep_selected + N * t_selected) / (N * t_mkl). Below 1 = wins.
struct CostRow {
  double paper = 0;
  double amortized = 0;
};

}  // namespace

int main() {
  std::printf("== Ablation: amortization-aware selection ==\n");
  const auto records = load_records(full_corpus());
  const auto configs = all_method_configs();

  const std::vector<double> iteration_counts = {1, 5, 20, 100, 1000};

  std::vector<int> strata(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    strata[i] = static_cast<int>(winning_family(records[i]));
  }
  const auto folds = stratified_kfold(strata, 10, 0xA3);

  std::vector<CostRow> totals(iteration_counts.size());
  for (const auto& test_fold : folds) {
    std::vector<bool> in_test(records.size(), false);
    for (std::size_t idx : test_fold) in_test[idx] = true;

    std::vector<std::vector<double>> features, rel_times, prep_iters;
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (in_test[i]) continue;
      features.push_back(records[i].features);
      const double best_csr = records[i].best_csr_seconds();
      std::vector<double> rel(configs.size()), prep(configs.size());
      for (std::size_t c = 0; c < configs.size(); ++c) {
        rel[c] = records[i].rel_time(c);
        prep[c] = records[i].config_prep_seconds[c] / best_csr;
      }
      rel_times.push_back(std::move(rel));
      prep_iters.push_back(std::move(prep));
    }

    ModelBank bank;
    bank.train(configs, features, rel_times);
    bank.train_prep(features, prep_iters);

    for (std::size_t idx : test_fold) {
      const auto& rec = records[idx];
      const auto classes = bank.predict_classes(rec.features);
      const auto prep_classes = bank.predict_prep_classes(rec.features);
      const std::size_t paper_sel = select_best_config(configs, classes);
      for (std::size_t ni = 0; ni < iteration_counts.size(); ++ni) {
        const double n = iteration_counts[ni];
        auto total_cost = [&](std::size_t sel) {
          return (rec.config_prep_seconds[sel] +
                  n * rec.config_seconds[sel]) /
                 (n * rec.mkl_seconds);
        };
        totals[ni].paper += total_cost(paper_sel);

        totals[ni].amortized += total_cost(
            select_config(configs, classes, {}, prep_classes, n));
      }
    }
  }

  std::printf("\nMean end-to-end cost relative to N MKL iterations\n");
  std::printf("(lower is better; < 1 beats MKL including conversion):\n\n");
  std::printf("%8s %14s %14s\n", "N iters", "paper-heur", "amortized");
  const auto count = static_cast<double>(records.size());
  for (std::size_t ni = 0; ni < iteration_counts.size(); ++ni) {
    std::printf("%8.0f %14.3f %14.3f\n", iteration_counts[ni],
                totals[ni].paper / count, totals[ni].amortized / count);
  }
  std::printf("\n(The amortized selector should win at small N by choosing\n");
  std::printf(" cheap formats, and converge to the paper's heuristic as N\n");
  std::printf(" grows.)\n");
  return 0;
}
