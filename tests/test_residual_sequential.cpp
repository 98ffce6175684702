#include <gtest/gtest.h>

#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/residual_block.hpp"
#include "nn/sequential.hpp"
#include "test_helpers.hpp"

namespace taamr {
namespace {

using testing::check_input_gradient;
using testing::fill_uniform;

TEST(Sequential, ForwardComposesLayers) {
  nn::Sequential net;
  net.emplace<nn::Linear>(2, 3);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Linear>(3, 1);
  Rng rng(51);
  for (nn::Param* p : net.params()) fill_uniform(p->value, rng);
  Tensor x({4, 2});
  fill_uniform(x, rng);
  const Tensor y = net.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{4, 1}));
  EXPECT_EQ(net.size(), 3u);
}

TEST(Sequential, PartialForwardMatchesManualSplit) {
  nn::Sequential net;
  net.emplace<nn::Linear>(3, 3);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Linear>(3, 2);
  Rng rng(52);
  for (nn::Param* p : net.params()) fill_uniform(p->value, rng);
  Tensor x({2, 3});
  fill_uniform(x, rng);
  const Tensor mid = net.forward_to(x, 2, false);
  const Tensor manual = net.layer(1).forward(net.layer(0).forward(x, false), false);
  testing::expect_tensor_near(mid, manual, 0.0f, "partial forward");
  const Tensor full = net.forward(x, false);
  testing::expect_tensor_near(full, net.layer(2).forward(mid, false), 0.0f, "rest");
}

TEST(Sequential, GradientCheckThroughStack) {
  nn::Sequential net;
  net.emplace<nn::Linear>(3, 4);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Linear>(4, 2);
  Rng rng(53);
  for (nn::Param* p : net.params()) fill_uniform(p->value, rng);
  Tensor x({2, 3});
  fill_uniform(x, rng);
  check_input_gradient(net, x, rng);
}

TEST(Sequential, RangeChecks) {
  nn::Sequential net;
  net.emplace<nn::ReLU>();
  EXPECT_THROW(net.forward_to(Tensor({1, 1}), 2, true), std::out_of_range);
  EXPECT_THROW(net.backward_to(Tensor({1, 1}), 2), std::out_of_range);
  EXPECT_THROW(net.add(nullptr), std::invalid_argument);
}

TEST(Sequential, CopyIsDeep) {
  nn::Sequential net;
  net.emplace<nn::Linear>(2, 2);
  Rng rng(54);
  for (nn::Param* p : net.params()) fill_uniform(p->value, rng);
  nn::Sequential copy = net;
  copy.params()[0]->value[0] += 5.0f;
  EXPECT_NE(copy.params()[0]->value[0], net.params()[0]->value[0]);
}

TEST(ResidualBlock, IdentityShortcutWhenShapesMatch) {
  nn::ResidualBlock block(4, 4, 1);
  EXPECT_FALSE(block.has_projection());
  // Zero main path -> output = ReLU(x).
  for (nn::Param* p : block.params()) p->value.fill(0.0f);
  // BN gamma must stay 0 to zero the main path; set beta = 0 too (already).
  Tensor x({1, 4, 4, 4});
  Rng rng(55);
  fill_uniform(x, rng);
  const Tensor y = block.forward(x, false);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_FLOAT_EQ(y[i], x[i] > 0.0f ? x[i] : 0.0f);
  }
}

TEST(ResidualBlock, ProjectionWhenChannelsChange) {
  nn::ResidualBlock block(2, 4, 1);
  EXPECT_TRUE(block.has_projection());
  nn::ResidualBlock strided(4, 4, 2);
  EXPECT_TRUE(strided.has_projection());
}

TEST(ResidualBlock, OutputShape) {
  nn::ResidualBlock block(2, 4, 2);
  Rng rng(56);
  for (nn::Param* p : block.params()) {
    if (p->name == "weight") fill_uniform(p->value, rng, -0.3f, 0.3f);
  }
  Tensor x({3, 2, 8, 8});
  fill_uniform(x, rng);
  const Tensor y = block.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{3, 4, 4, 4}));
}

TEST(ResidualBlock, GradientCheckIdentityPath) {
  Rng rng(57);
  nn::ResidualBlock block(2, 2, 1);
  for (nn::Param* p : block.params()) {
    if (p->name == "weight") fill_uniform(p->value, rng, -0.3f, 0.3f);
  }
  Tensor x({1, 2, 4, 4});
  fill_uniform(x, rng);
  // Eval mode: BN eval-path is affine, so finite differences are clean.
  check_input_gradient(block, x, rng, /*train_mode=*/false, 1e-3f, 3e-2f);
}

TEST(ResidualBlock, GradientCheckProjectionPath) {
  Rng rng(58);
  nn::ResidualBlock block(2, 3, 2);
  for (nn::Param* p : block.params()) {
    if (p->name == "weight") fill_uniform(p->value, rng, -0.3f, 0.3f);
  }
  Tensor x({1, 2, 4, 4});
  fill_uniform(x, rng);
  check_input_gradient(block, x, rng, /*train_mode=*/false, 1e-3f, 3e-2f);
}

TEST(ResidualBlock, ParamsIncludeBothPaths) {
  nn::ResidualBlock with_proj(2, 4, 2);
  nn::ResidualBlock without(4, 4, 1);
  EXPECT_GT(with_proj.params().size(), without.params().size());
}

}  // namespace
}  // namespace taamr
