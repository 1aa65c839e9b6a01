// Tests for the CART decision tree.

#include <gtest/gtest.h>

#include <sstream>

#include "ml/decision_tree.hpp"
#include "util/prng.hpp"

namespace wise {
namespace {

/// Linearly separable 2-D dataset: class = (x0 > 5).
Dataset separable_dataset(int n, std::uint64_t seed) {
  Dataset ds({"x0", "x1"}, 2);
  Xoshiro256 rng(seed);
  for (int i = 0; i < n; ++i) {
    const double x0 = rng.next_double() * 10.0;
    const double x1 = rng.next_double();
    ds.add({x0, x1}, x0 > 5.0 ? 1 : 0);
  }
  return ds;
}

/// XOR-style dataset requiring depth >= 2.
Dataset xor_dataset(int n, std::uint64_t seed) {
  Dataset ds({"x0", "x1"}, 2);
  Xoshiro256 rng(seed);
  for (int i = 0; i < n; ++i) {
    const double x0 = rng.next_double();
    const double x1 = rng.next_double();
    ds.add({x0, x1}, (x0 > 0.5) != (x1 > 0.5) ? 1 : 0);
  }
  return ds;
}

TEST(Dataset, AddValidatesShapeAndLabels) {
  Dataset ds({"a", "b"}, 3);
  EXPECT_THROW(ds.add({1.0}, 0), std::invalid_argument);
  EXPECT_THROW(ds.add({1.0, 2.0}, 3), std::invalid_argument);
  EXPECT_THROW(ds.add({1.0, 2.0}, -1), std::invalid_argument);
  ds.add({1.0, 2.0}, 2);
  EXPECT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds.label(0), 2);
}

TEST(Dataset, SubsetSelectsRows) {
  Dataset ds({"a"}, 2);
  ds.add({1.0}, 0);
  ds.add({2.0}, 1);
  ds.add({3.0}, 0);
  const Dataset sub = ds.subset({2, 0});
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.row(0)[0], 3.0);
  EXPECT_EQ(sub.label(1), 0);
  EXPECT_THROW(ds.subset({5}), std::out_of_range);
}

TEST(DecisionTree, LearnsSeparableData) {
  const Dataset ds = separable_dataset(200, 1);
  DecisionTree tree;
  tree.fit(ds, {.max_depth = 5, .ccp_alpha = 0.0});
  EXPECT_EQ(tree.accuracy(ds), 1.0);
  // One split suffices.
  EXPECT_LE(tree.num_nodes(), 5);
}

TEST(DecisionTree, LearnsXorWithDepthTwo) {
  const Dataset ds = xor_dataset(400, 2);
  DecisionTree tree;
  tree.fit(ds, {.max_depth = 4, .ccp_alpha = 0.0});
  EXPECT_GT(tree.accuracy(ds), 0.98);
  EXPECT_GE(tree.depth(), 2);
}

TEST(DecisionTree, RespectsDepthLimit) {
  const Dataset ds = xor_dataset(400, 3);
  DecisionTree tree;
  tree.fit(ds, {.max_depth = 1, .ccp_alpha = 0.0});
  EXPECT_LE(tree.depth(), 1);
  // Depth-1 cannot express XOR.
  EXPECT_LT(tree.accuracy(ds), 0.8);
}

TEST(DecisionTree, PredictsMajorityForPureDataset) {
  Dataset ds({"x"}, 3);
  for (int i = 0; i < 10; ++i) ds.add({static_cast<double>(i)}, 2);
  DecisionTree tree;
  tree.fit(ds);
  EXPECT_EQ(tree.num_nodes(), 1);
  EXPECT_EQ(tree.predict(std::vector<double>{5.0}), 2);
}

TEST(DecisionTree, PruningShrinksTree) {
  // Noisy labels: an unpruned tree overfits with many nodes.
  Dataset ds({"x0", "x1"}, 2);
  Xoshiro256 rng(4);
  for (int i = 0; i < 500; ++i) {
    const double x0 = rng.next_double();
    const double x1 = rng.next_double();
    const int label = (x0 > 0.5) ? 1 : 0;
    const int noisy = rng.next_double() < 0.15 ? 1 - label : label;
    ds.add({x0, x1}, noisy);
  }
  DecisionTree unpruned, pruned;
  unpruned.fit(ds, {.max_depth = 20, .ccp_alpha = 0.0});
  pruned.fit(ds, {.max_depth = 20, .ccp_alpha = 0.02});
  EXPECT_LT(pruned.num_nodes(), unpruned.num_nodes());
  // Pruning must keep the dominant structure.
  EXPECT_GT(pruned.accuracy(ds), 0.8);
}

TEST(DecisionTree, HeavyPruningCollapsesToSingleLeaf) {
  const Dataset ds = xor_dataset(200, 5);
  DecisionTree tree;
  tree.fit(ds, {.max_depth = 10, .ccp_alpha = 10.0});
  EXPECT_EQ(tree.num_nodes(), 1);
}

TEST(DecisionTree, NumLeavesConsistentWithNodes) {
  const Dataset ds = xor_dataset(300, 6);
  DecisionTree tree;
  tree.fit(ds, {.max_depth = 6, .ccp_alpha = 0.0});
  // In a binary tree, nodes = 2*leaves - 1.
  EXPECT_EQ(tree.num_nodes(), 2 * tree.num_leaves() - 1);
}

TEST(DecisionTree, RejectsInvalidInputs) {
  Dataset empty({"x"}, 2);
  DecisionTree tree;
  EXPECT_THROW(tree.fit(empty), std::invalid_argument);
  Dataset ds({"x"}, 2);
  ds.add({1.0}, 0);
  EXPECT_THROW(tree.fit(ds, {.max_depth = 0}), std::invalid_argument);
  EXPECT_THROW(tree.fit(ds, {.max_depth = 5, .ccp_alpha = -1.0}),
               std::invalid_argument);
  EXPECT_THROW(tree.predict(std::vector<double>{1.0}), std::logic_error);
}

TEST(DecisionTree, MinSamplesLeafIsRespected) {
  const Dataset ds = separable_dataset(100, 7);
  DecisionTree tree;
  tree.fit(ds, {.max_depth = 15, .ccp_alpha = 0.0, .min_samples_split = 2,
                .min_samples_leaf = 20});
  for (const auto& node : tree.nodes()) {
    if (node.feature < 0) {
      EXPECT_GE(node.n_samples, 20);
    }
  }
}

TEST(DecisionTree, SaveLoadRoundTrip) {
  const Dataset ds = xor_dataset(300, 8);
  DecisionTree tree;
  tree.fit(ds, {.max_depth = 6, .ccp_alpha = 0.001});
  std::stringstream buf;
  tree.save(buf);
  const DecisionTree loaded = DecisionTree::load(buf);
  EXPECT_EQ(loaded.num_nodes(), tree.num_nodes());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(loaded.predict(ds.row(i)), tree.predict(ds.row(i)));
  }
}

TEST(DecisionTree, LoadRejectsCorruptStream) {
  std::stringstream bad("not-a-tree v9\n");
  EXPECT_THROW(DecisionTree::load(bad), std::runtime_error);
  std::stringstream truncated("wise-dtree v1\n15 0.005 2 1\n3\n0 1.0 1 2 0 0.5 10\n");
  EXPECT_THROW(DecisionTree::load(truncated), std::runtime_error);
}

TEST(DecisionTree, FeatureImportancesSumToOne) {
  const Dataset ds = xor_dataset(400, 9);
  DecisionTree tree;
  tree.fit(ds, {.max_depth = 6, .ccp_alpha = 0.0});
  const auto imp = tree.feature_importances(2);
  EXPECT_NEAR(imp[0] + imp[1], 1.0, 1e-9);
  // XOR uses both features substantially.
  EXPECT_GT(imp[0], 0.2);
  EXPECT_GT(imp[1], 0.2);
}

TEST(DecisionTree, ImportancesIdentifyInformativeFeature) {
  const Dataset ds = separable_dataset(300, 10);
  DecisionTree tree;
  tree.fit(ds, {.max_depth = 4, .ccp_alpha = 0.0});
  const auto imp = tree.feature_importances(2);
  EXPECT_GT(imp[0], imp[1]);  // x0 decides the label, x1 is noise
}

TEST(DecisionTree, DeterministicFit) {
  const Dataset ds = xor_dataset(200, 11);
  DecisionTree a, b;
  a.fit(ds, {.max_depth = 8});
  b.fit(ds, {.max_depth = 8});
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(a.predict(ds.row(i)), b.predict(ds.row(i)));
  }
}

}  // namespace
}  // namespace wise
