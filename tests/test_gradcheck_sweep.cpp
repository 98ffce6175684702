// Parameterized finite-difference gradient sweeps: every differentiable
// layer is checked across a grid of geometries, in both BN modes. These are
// the tests that guard the correctness of the hand-derived backward passes
// the whole reproduction stands on.
#include <gtest/gtest.h>

#include "nn/batchnorm2d.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/residual_block.hpp"
#include "test_helpers.hpp"

namespace taamr {
namespace {

using testing::check_input_gradient;
using testing::check_param_gradient;
using testing::fill_uniform;

// ---- Linear across feature-size grid ----------------------------------------

class LinearGrid
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t,
                                                 std::int64_t>> {};

TEST_P(LinearGrid, InputAndWeightGradients) {
  const auto [in, out, batch] = GetParam();
  Rng rng(400 + in * 7 + out * 3 + batch);
  nn::Linear layer(in, out);
  fill_uniform(layer.weight().value, rng, -0.7f, 0.7f);
  fill_uniform(layer.bias().value, rng);
  Tensor x({batch, in});
  fill_uniform(x, rng);
  check_input_gradient(layer, x, rng);
  check_param_gradient(layer, x, layer.weight(), rng);
}

INSTANTIATE_TEST_SUITE_P(Grid, LinearGrid,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(3, 5, 2),
                                           std::make_tuple(8, 2, 4),
                                           std::make_tuple(2, 8, 3)));

// ---- Conv2d across geometry grid ---------------------------------------------

class ConvGrid
    : public ::testing::TestWithParam<
          std::tuple<std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                     std::int64_t>> {};

TEST_P(ConvGrid, InputAndWeightGradients) {
  const auto [in_c, out_c, kernel, stride, size] = GetParam();
  Rng rng(500 + in_c * 11 + out_c * 5 + kernel * 3 + stride);
  nn::Conv2d layer(in_c, out_c, kernel, stride, kernel / 2, /*bias=*/true);
  fill_uniform(layer.weight().value, rng, -0.4f, 0.4f);
  Tensor x({1, in_c, size, size});
  fill_uniform(x, rng);
  check_input_gradient(layer, x, rng);
  check_param_gradient(layer, x, layer.weight(), rng);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConvGrid,
    ::testing::Values(std::make_tuple(1, 2, 3, 1, 5),   // the MiniResNet stem shape
                      std::make_tuple(2, 2, 3, 2, 6),   // strided stage entry
                      std::make_tuple(3, 1, 1, 1, 4),   // 1x1 projection
                      std::make_tuple(2, 3, 1, 2, 4),   // strided projection
                      std::make_tuple(1, 1, 5, 1, 7))); // wide receptive field

// ---- BatchNorm in both modes over channel counts -----------------------------

class BnGrid : public ::testing::TestWithParam<std::tuple<std::int64_t, bool>> {};

TEST_P(BnGrid, InputGradient) {
  const auto [channels, train_mode] = GetParam();
  Rng rng(600 + channels * 13 + (train_mode ? 1 : 0));
  nn::BatchNorm2d bn(channels);
  fill_uniform(bn.gamma().value, rng, 0.5f, 1.5f);
  fill_uniform(bn.beta().value, rng);
  if (!train_mode) {
    fill_uniform(bn.running_mean().value, rng, -0.3f, 0.3f);
    fill_uniform(bn.running_var().value, rng, 0.5f, 1.5f);
  }
  Tensor x({3, channels, 2, 3});
  fill_uniform(x, rng, -2.0f, 2.0f);
  check_input_gradient(bn, x, rng, train_mode, 1e-3f, 6e-2f);
}

INSTANTIATE_TEST_SUITE_P(Grid, BnGrid,
                         ::testing::Combine(::testing::Values<std::int64_t>(1, 2, 4),
                                            ::testing::Bool()));

// ---- ResidualBlock across the MiniResNet's block shapes ----------------------

class ResidualGrid
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t,
                                                 std::int64_t>> {};

TEST_P(ResidualGrid, InputGradientEvalMode) {
  const auto [in_c, out_c, stride] = GetParam();
  Rng rng(700 + in_c * 17 + out_c * 7 + stride);
  nn::ResidualBlock block(in_c, out_c, stride);
  for (nn::Param* p : block.params()) {
    if (p->name == "weight") fill_uniform(p->value, rng, -0.3f, 0.3f);
  }
  Tensor x({1, in_c, 4, 4});
  fill_uniform(x, rng);
  check_input_gradient(block, x, rng, /*train_mode=*/false, 1e-3f, 4e-2f);
}

INSTANTIATE_TEST_SUITE_P(Grid, ResidualGrid,
                         ::testing::Values(std::make_tuple(2, 2, 1),   // identity block
                                           std::make_tuple(2, 4, 2),   // downsampling
                                           std::make_tuple(3, 3, 2),   // stride-only proj
                                           std::make_tuple(4, 2, 1))); // channel-only proj

}  // namespace
}  // namespace taamr
