#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "nn/conv2d.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"

namespace taamr {
namespace {

using testing::check_input_gradient;
using testing::check_param_gradient;
using testing::fill_uniform;

// Direct convolution reference (cross-correlation, as in all DL frameworks).
Tensor naive_conv(const Tensor& x, const Tensor& w_lowered, std::int64_t out_c,
                  std::int64_t k, std::int64_t stride, std::int64_t pad) {
  const std::int64_t n = x.dim(0), in_c = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const std::int64_t oh = (h + 2 * pad - k) / stride + 1;
  const std::int64_t ow = (wd + 2 * pad - k) / stride + 1;
  Tensor y({n, out_c, oh, ow});
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t oc = 0; oc < out_c; ++oc) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          double acc = 0.0;
          for (std::int64_t ic = 0; ic < in_c; ++ic) {
            for (std::int64_t ky = 0; ky < k; ++ky) {
              for (std::int64_t kx = 0; kx < k; ++kx) {
                const std::int64_t iy = oy * stride + ky - pad;
                const std::int64_t ix = ox * stride + kx - pad;
                if (iy < 0 || iy >= h || ix < 0 || ix >= wd) continue;
                const float wv = w_lowered.at(oc, (ic * k + ky) * k + kx);
                acc += static_cast<double>(wv) * x.at(s, ic, iy, ix);
              }
            }
          }
          y.at(s, oc, oy, ox) = static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

class Conv2dGeometry
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t,
                                                 std::int64_t, std::int64_t>> {};

TEST_P(Conv2dGeometry, ForwardMatchesNaive) {
  const auto [in_c, out_c, kernel, stride] = GetParam();
  const std::int64_t pad = kernel / 2;
  nn::Conv2d layer(in_c, out_c, kernel, stride, pad, /*bias=*/true);
  Rng rng(11);
  fill_uniform(layer.weight().value, rng);
  fill_uniform(layer.bias().value, rng);
  Tensor x({2, in_c, 8, 8});
  fill_uniform(x, rng);
  const Tensor got = layer.forward(x, true);
  Tensor want = naive_conv(x, layer.weight().value, out_c, kernel, stride, pad);
  // Add bias to the reference.
  const std::int64_t plane = want.dim(2) * want.dim(3);
  for (std::int64_t s = 0; s < want.dim(0); ++s) {
    for (std::int64_t c = 0; c < out_c; ++c) {
      for (std::int64_t p = 0; p < plane; ++p) {
        want.data()[(s * out_c + c) * plane + p] += layer.bias().value[c];
      }
    }
  }
  testing::expect_tensor_near(got, want, 1e-3f, "conv forward");
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Conv2dGeometry,
    ::testing::Values(std::make_tuple(1, 1, 3, 1), std::make_tuple(2, 3, 3, 1),
                      std::make_tuple(3, 2, 3, 2), std::make_tuple(2, 2, 1, 1),
                      std::make_tuple(1, 4, 5, 1), std::make_tuple(2, 2, 1, 2)));

TEST(Conv2d, InputGradientMatchesFiniteDifference) {
  Rng rng(13);
  nn::Conv2d layer(2, 3, 3, 1, 1);
  fill_uniform(layer.weight().value, rng, -0.5f, 0.5f);
  Tensor x({1, 2, 5, 5});
  fill_uniform(x, rng);
  check_input_gradient(layer, x, rng);
}

TEST(Conv2d, StridedInputGradientMatchesFiniteDifference) {
  Rng rng(14);
  nn::Conv2d layer(1, 2, 3, 2, 1);
  fill_uniform(layer.weight().value, rng, -0.5f, 0.5f);
  Tensor x({2, 1, 6, 6});
  fill_uniform(x, rng);
  check_input_gradient(layer, x, rng);
}

TEST(Conv2d, WeightGradientMatchesFiniteDifference) {
  Rng rng(15);
  nn::Conv2d layer(2, 2, 3, 1, 1, /*bias=*/true);
  fill_uniform(layer.weight().value, rng, -0.5f, 0.5f);
  Tensor x({2, 2, 4, 4});
  fill_uniform(x, rng);
  check_param_gradient(layer, x, layer.weight(), rng);
}

TEST(Conv2d, BiasGradientMatchesFiniteDifference) {
  Rng rng(16);
  nn::Conv2d layer(1, 2, 3, 1, 1, /*bias=*/true);
  fill_uniform(layer.weight().value, rng, -0.5f, 0.5f);
  Tensor x({2, 1, 4, 4});
  fill_uniform(x, rng);
  check_param_gradient(layer, x, layer.bias(), rng);
}

// The batch parameter gradient must be the per-sample gradients summed in
// sample order — bitwise, whatever order the pool's workers finish in — so
// training is reproducible at any TAAMR_THREADS.
TEST(Conv2d, BatchParamGradientIsOrderedSumOfSampleGradients) {
  constexpr std::int64_t n = 64, in_c = 8, out_c = 16, hw = 12;
  Rng rng(17);
  nn::Conv2d layer(in_c, out_c, 3, 1, 1, /*bias=*/true);
  fill_uniform(layer.weight().value, rng, -0.5f, 0.5f);
  Tensor x({n, in_c, hw, hw});
  Tensor g({n, out_c, hw, hw});
  fill_uniform(x, rng);
  fill_uniform(g, rng);

  layer.zero_grad();
  layer.forward(x, true);
  layer.backward(g);
  const Tensor batch_dw = layer.weight().grad;
  const Tensor batch_db = layer.bias().grad;

  layer.zero_grad();
  const std::int64_t x_plane = in_c * hw * hw, g_plane = out_c * hw * hw;
  for (std::int64_t s = 0; s < n; ++s) {
    Tensor xs({1, in_c, hw, hw});
    Tensor gs({1, out_c, hw, hw});
    std::copy_n(x.data() + s * x_plane, x_plane, xs.data());
    std::copy_n(g.data() + s * g_plane, g_plane, gs.data());
    layer.forward(xs, true);
    layer.backward(gs);  // accumulates into the parameter gradients
  }
  for (std::int64_t i = 0; i < batch_dw.numel(); ++i) {
    ASSERT_EQ(batch_dw[i], layer.weight().grad[i]) << "weight grad " << i;
  }
  for (std::int64_t i = 0; i < batch_db.numel(); ++i) {
    ASSERT_EQ(batch_db[i], layer.bias().grad[i]) << "bias grad " << i;
  }
}

// Conv2d lowers into per-thread scratch and runs the weight-gradient GEMM
// as dW^T = cols * g^T. Each output must be bitwise what the Tensor path
// gives: im2col + matmul (with transpose flags) + col2im per sample, and the
// parameter gradients summed in sample order.
TEST(Conv2d, MatchesReferenceLoweringBitwise) {
  const auto same_bits = [](const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
  };
  for (const auto& [in_c, out_c] : {std::pair<std::int64_t, std::int64_t>{3, 4}, {8, 16}}) {
    for (const std::int64_t stride : {1, 2}) {
      for (const bool bias : {false, true}) {
        SCOPED_TRACE(::testing::Message() << in_c << "->" << out_c << " stride " << stride
                                          << (bias ? " bias" : " no bias"));
        constexpr std::int64_t n = 5, h = 11, w = 9;
        Rng rng(29);
        nn::Conv2d layer(in_c, out_c, 3, stride, 1, bias);
        fill_uniform(layer.weight().value, rng, -0.5f, 0.5f);
        fill_uniform(layer.bias().value, rng);
        Tensor x({n, in_c, h, w});
        fill_uniform(x, rng);
        const conv::ConvGeometry g{in_c, h, w, 3, stride, 1};
        const std::int64_t p = g.patch_cols();
        Tensor grad({n, out_c, g.out_h(), g.out_w()});
        fill_uniform(grad, rng);

        layer.zero_grad();
        const Tensor y = layer.forward(x, true);
        const Tensor dx = layer.backward(grad);

        Tensor want_y(y.shape()), want_dx(x.shape());
        Tensor want_dw(layer.weight().value.shape()), want_db({out_c});
        const std::int64_t x_plane = in_c * h * w, y_plane = out_c * p;
        for (std::int64_t s = 0; s < n; ++s) {
          Tensor xs({in_c, h, w}), gs({out_c, p});
          std::copy_n(x.data() + s * x_plane, x_plane, xs.data());
          std::copy_n(grad.data() + s * y_plane, y_plane, gs.data());
          const Tensor cols = conv::im2col(xs, g);
          Tensor out = ops::matmul(layer.weight().value, cols);
          for (std::int64_t c = 0; c < out_c && bias; ++c) {
            for (std::int64_t i = 0; i < p; ++i) out.at(c, i) += layer.bias().value[c];
          }
          std::copy_n(out.data(), y_plane, want_y.data() + s * y_plane);
          ops::add_inplace(want_dw, ops::matmul(gs, cols, false, /*trans_b=*/true));
          const Tensor dcols = ops::matmul(layer.weight().value, gs, /*trans_a=*/true);
          std::copy_n(conv::col2im(dcols, g).data(), x_plane, want_dx.data() + s * x_plane);
          for (std::int64_t c = 0; c < out_c; ++c) {
            float acc = 0.0f;
            for (std::int64_t i = 0; i < p; ++i) acc += gs.at(c, i);
            want_db[c] += acc;
          }
        }
        EXPECT_TRUE(same_bits(y, want_y)) << "forward output";
        EXPECT_TRUE(same_bits(dx, want_dx)) << "input gradient";
        EXPECT_TRUE(same_bits(layer.weight().grad, want_dw)) << "weight gradient";
        if (bias) {
          EXPECT_TRUE(same_bits(layer.bias().grad, want_db)) << "bias gradient";
        }
      }
    }
  }
}

TEST(Conv2d, RejectsBadInput) {
  nn::Conv2d layer(3, 4, 3, 1, 1);
  EXPECT_THROW(layer.forward(Tensor({1, 2, 8, 8}), true), std::invalid_argument);
  EXPECT_THROW(layer.forward(Tensor({3, 8, 8}), true), std::invalid_argument);
  EXPECT_THROW(layer.backward(Tensor({1, 4, 8, 8})), std::logic_error);
}

TEST(Conv2d, DefaultHasNoBias) {
  nn::Conv2d layer(1, 1, 3);
  EXPECT_EQ(layer.params().size(), 1u);  // weight only (BN provides the shift)
}

TEST(Conv2d, NameDescribesGeometry) {
  nn::Conv2d layer(3, 16, 3, 2, 1);
  EXPECT_EQ(layer.name(), "Conv2d(3->16, k=3, s=2, p=1)");
}

}  // namespace
}  // namespace taamr
