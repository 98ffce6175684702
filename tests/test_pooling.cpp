#include <gtest/gtest.h>

#include "nn/pooling.hpp"
#include "test_helpers.hpp"

namespace taamr {
namespace {

using testing::check_input_gradient;
using testing::fill_uniform;

TEST(GlobalAvgPool2d, ForwardAverages) {
  nn::GlobalAvgPool2d gap;
  Tensor x({1, 2, 2, 2}, std::vector<float>{1, 2, 3, 4, 10, 20, 30, 40});
  const Tensor y = gap.forward(x, true);
  ASSERT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 25.0f);
}

TEST(GlobalAvgPool2d, BackwardSpreadsUniformly) {
  nn::GlobalAvgPool2d gap;
  Tensor x({1, 1, 2, 2});
  gap.forward(x, true);
  const Tensor g = gap.backward(Tensor({1, 1}, std::vector<float>{8}));
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(g[i], 2.0f);
}

TEST(GlobalAvgPool2d, GradientCheck) {
  Rng rng(42);
  nn::GlobalAvgPool2d gap;
  Tensor x({2, 3, 3, 3});
  fill_uniform(x, rng);
  check_input_gradient(gap, x, rng);
}

TEST(Pooling, CloneIndependence) {
  nn::GlobalAvgPool2d gap;
  gap.forward(Tensor({1, 2, 2, 2}), true);
  auto copy = gap.clone();
  EXPECT_EQ(copy->name(), "GlobalAvgPool2d");
  // The copy carries its own cache: a forward on it leaves the original's
  // backward shape alone.
  copy->forward(Tensor({3, 4, 2, 2}), true);
  EXPECT_EQ(gap.backward(Tensor({1, 2}, 1.0f)).shape(), (Shape{1, 2, 2, 2}));
}

}  // namespace
}  // namespace taamr
