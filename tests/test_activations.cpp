#include <gtest/gtest.h>

#include "nn/activations.hpp"
#include "test_helpers.hpp"

namespace taamr {
namespace {

using testing::check_input_gradient;

TEST(ReLU, ForwardClampsNegatives) {
  nn::ReLU relu;
  Tensor x({4}, std::vector<float>{-1, 0, 0.5f, 2});
  const Tensor y = relu.forward(x, true);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_EQ(y[2], 0.5f);
  EXPECT_EQ(y[3], 2.0f);
}

TEST(ReLU, BackwardMasksGradient) {
  nn::ReLU relu;
  Tensor x({3}, std::vector<float>{-1, 1, 2});
  relu.forward(x, true);
  const Tensor g = relu.backward(Tensor({3}, std::vector<float>{5, 5, 5}));
  EXPECT_EQ(g[0], 0.0f);
  EXPECT_EQ(g[1], 5.0f);
  EXPECT_EQ(g[2], 5.0f);
}

TEST(ReLU, GradientCheckAwayFromKink) {
  Rng rng(31);
  nn::ReLU relu;
  Tensor x({2, 5});
  // Keep inputs away from 0 so the finite difference is valid.
  for (float& v : x.storage()) {
    v = rng.uniform_f(0.2f, 1.0f) * (rng.bernoulli(0.5) ? 1.0f : -1.0f);
  }
  check_input_gradient(relu, x, rng);
}

TEST(Activations, BackwardShapeChecked) {
  nn::ReLU relu;
  relu.forward(Tensor({2, 2}), true);
  EXPECT_THROW(relu.backward(Tensor({2, 3})), std::invalid_argument);
}

TEST(Activations, HaveNoParams) {
  nn::ReLU relu;
  EXPECT_TRUE(relu.params().empty());
}

}  // namespace
}  // namespace taamr
