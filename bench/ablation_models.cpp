// Ablation (DESIGN.md §8): decision tree (the paper's model) vs a
// majority-class baseline, on the five representative per-config models.
// Ensembles are not measured: forests landed within ±3% of single trees
// (EXPERIMENTS.md).

#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "features/extractor.hpp"
#include "ml/validation.hpp"
#include "wise/speedup_class.hpp"

using namespace wise;
using namespace wise::bench;

int main() {
  std::printf("== Ablation: tree vs majority-class ==\n");
  const auto records = load_records(full_corpus());
  const auto configs = all_method_configs();

  const std::vector<std::string> representative = {
      "SELLPACK/c8/StCont", "Sell-c-s/c8/s4096/StCont", "Sell-c-R/c8",
      "LAV-1Seg/c8", "LAV/c8/T0.8"};

  std::printf("%-26s %10s %10s\n", "model", "tree", "majority");
  for (const auto& name : representative) {
    std::size_t target = configs.size();
    for (std::size_t c = 0; c < configs.size(); ++c) {
      if (configs[c].name() == name) target = c;
    }
    std::vector<int> labels(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      labels[i] = classify_relative_time(records[i].rel_time(target));
    }

    const auto folds = stratified_kfold(labels, 10, 0xAB);
    int tree_hits = 0, majority_hits = 0, total = 0;
    for (const auto& test_fold : folds) {
      std::vector<bool> in_test(records.size(), false);
      for (std::size_t idx : test_fold) in_test[idx] = true;

      Dataset train(feature_names(), kNumSpeedupClasses);
      std::vector<int> class_counts(kNumSpeedupClasses, 0);
      for (std::size_t i = 0; i < records.size(); ++i) {
        if (in_test[i]) continue;
        train.add(records[i].features, labels[i]);
        ++class_counts[static_cast<std::size_t>(labels[i])];
      }
      const int majority = static_cast<int>(
          std::max_element(class_counts.begin(), class_counts.end()) -
          class_counts.begin());

      DecisionTree tree;
      tree.fit(train, {.max_depth = 15, .ccp_alpha = 0.005});

      for (std::size_t idx : test_fold) {
        tree_hits += tree.predict(records[idx].features) == labels[idx];
        majority_hits += majority == labels[idx];
        ++total;
      }
    }
    std::printf("%-26s %9.1f%% %9.1f%%\n", name.c_str(),
                100.0 * tree_hits / total, 100.0 * majority_hits / total);
  }
  std::printf("\n(The tree must clear the majority baseline decisively.)\n");
  return 0;
}
