// Shared helpers for the test suite: random tensor filling, tensor
// comparison, and central-difference gradient checking for layers.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "nn/layer.hpp"
#include "recsys/recommender.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace taamr::testing {

inline void fill_uniform(Tensor& t, Rng& rng, float lo = -1.0f, float hi = 1.0f) {
  for (float& v : t.storage()) v = rng.uniform_f(lo, hi);
}

inline void fill_gaussian(Tensor& t, Rng& rng, float mean = 0.0f, float stddev = 1.0f) {
  for (float& v : t.storage()) v = rng.gaussian_f(mean, stddev);
}

// One user's score_users row: the scores every ranked list is built from.
inline std::vector<float> score_row(const recsys::Recommender& model, std::int64_t user) {
  std::vector<float> row(static_cast<std::size_t>(model.num_items()));
  model.score_users({&user, 1}, row);
  return row;
}

inline void expect_tensor_near(const Tensor& a, const Tensor& b, float tol,
                               const char* context = "") {
  ASSERT_EQ(a.shape(), b.shape()) << context;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_NEAR(a[i], b[i], tol) << context << " at flat index " << i;
  }
}

// Checks layer.backward against a central finite difference of
// sum(weights * layer.forward(x)) w.r.t. the input. `weights` makes the
// scalarization generic; gradients flow as backward(weights).
inline void check_input_gradient(nn::Layer& layer, const Tensor& input, Rng& rng,
                                 bool train_mode = true, float h = 1e-3f,
                                 float tol = 2e-2f) {
  Tensor weights(layer.forward(input, train_mode).shape());
  fill_uniform(weights, rng);

  layer.forward(input, train_mode);
  const Tensor analytic = layer.backward(weights);

  Tensor x = input;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float saved = x[i];
    x[i] = saved + h;
    const Tensor up = layer.forward(x, train_mode);
    x[i] = saved - h;
    const Tensor down = layer.forward(x, train_mode);
    x[i] = saved;
    double numeric = 0.0;
    for (std::int64_t j = 0; j < up.numel(); ++j) {
      numeric += static_cast<double>(weights[j]) * (up[j] - down[j]);
    }
    numeric /= 2.0 * h;
    ASSERT_NEAR(analytic[i], numeric, tol)
        << layer.name() << ": input gradient mismatch at flat index " << i;
  }
}

// Same idea for a parameter tensor of the layer.
inline void check_param_gradient(nn::Layer& layer, const Tensor& input,
                                 nn::Param& param, Rng& rng, bool train_mode = true,
                                 float h = 1e-3f, float tol = 2e-2f) {
  Tensor weights(layer.forward(input, train_mode).shape());
  fill_uniform(weights, rng);

  layer.zero_grad();
  layer.forward(input, train_mode);
  layer.backward(weights);
  const Tensor analytic = param.grad;

  for (std::int64_t i = 0; i < param.value.numel(); ++i) {
    const float saved = param.value[i];
    param.value[i] = saved + h;
    const Tensor up = layer.forward(input, train_mode);
    param.value[i] = saved - h;
    const Tensor down = layer.forward(input, train_mode);
    param.value[i] = saved;
    double numeric = 0.0;
    for (std::int64_t j = 0; j < up.numel(); ++j) {
      numeric += static_cast<double>(weights[j]) * (up[j] - down[j]);
    }
    numeric /= 2.0 * h;
    ASSERT_NEAR(analytic[i], numeric, tol)
        << layer.name() << ": gradient mismatch for " << param.name << "[" << i << "]";
  }
}

}  // namespace taamr::testing
