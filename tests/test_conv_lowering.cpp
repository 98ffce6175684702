#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "tensor/conv_lowering.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace taamr {
namespace {

using conv::ConvGeometry;
using testing::fill_uniform;

ConvGeometry geom(std::int64_t c, std::int64_t h, std::int64_t w, std::int64_t k,
                  std::int64_t s, std::int64_t p) {
  ConvGeometry g;
  g.in_channels = c;
  g.in_h = h;
  g.in_w = w;
  g.kernel = k;
  g.stride = s;
  g.padding = p;
  return g;
}

TEST(ConvGeometry, OutputDims) {
  const ConvGeometry g = geom(3, 8, 8, 3, 1, 1);
  EXPECT_EQ(g.out_h(), 8);
  EXPECT_EQ(g.out_w(), 8);
  const ConvGeometry g2 = geom(1, 8, 8, 3, 2, 1);
  EXPECT_EQ(g2.out_h(), 4);
  const ConvGeometry g3 = geom(1, 5, 5, 5, 1, 0);
  EXPECT_EQ(g3.out_h(), 1);
}

TEST(ConvGeometry, Validation) {
  EXPECT_THROW(geom(0, 4, 4, 3, 1, 1).validate(), std::invalid_argument);
  EXPECT_THROW(geom(1, 4, 4, 0, 1, 1).validate(), std::invalid_argument);
  EXPECT_THROW(geom(1, 4, 4, 3, 0, 1).validate(), std::invalid_argument);
  EXPECT_THROW(geom(1, 2, 2, 5, 1, 0).validate(), std::invalid_argument);
  EXPECT_NO_THROW(geom(1, 2, 2, 5, 1, 2).validate());
}

TEST(Im2col, IdentityKernelNoPadding) {
  // 1x1 kernel, stride 1, no padding: im2col is the identity reshape.
  const ConvGeometry g = geom(2, 3, 3, 1, 1, 0);
  Tensor img({2, 3, 3});
  Rng rng(3);
  fill_uniform(img, rng);
  const Tensor cols = conv::im2col(img, g);
  ASSERT_EQ(cols.shape(), (Shape{2, 9}));
  for (std::int64_t i = 0; i < img.numel(); ++i) EXPECT_EQ(cols[i], img[i]);
}

TEST(Im2col, KnownPatchExtraction) {
  // Single channel 3x3 image, 2x2 kernel, stride 1, no padding.
  Tensor img({1, 3, 3}, std::vector<float>{0, 1, 2, 3, 4, 5, 6, 7, 8});
  const ConvGeometry g = geom(1, 3, 3, 2, 1, 0);
  const Tensor cols = conv::im2col(img, g);
  ASSERT_EQ(cols.shape(), (Shape{4, 4}));
  // Patch rows in (ky, kx) order; columns in (oy, ox) order.
  // Row 0 = tap (0,0): values at positions (0,0),(0,1),(1,0),(1,1).
  EXPECT_EQ(cols.at(0, 0), 0.0f);
  EXPECT_EQ(cols.at(0, 1), 1.0f);
  EXPECT_EQ(cols.at(0, 2), 3.0f);
  EXPECT_EQ(cols.at(0, 3), 4.0f);
  // Row 3 = tap (1,1): values at (1,1),(1,2),(2,1),(2,2).
  EXPECT_EQ(cols.at(3, 0), 4.0f);
  EXPECT_EQ(cols.at(3, 1), 5.0f);
  EXPECT_EQ(cols.at(3, 2), 7.0f);
  EXPECT_EQ(cols.at(3, 3), 8.0f);
}

TEST(Im2col, PaddingProducesZeros) {
  Tensor img({1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  const ConvGeometry g = geom(1, 2, 2, 3, 1, 1);
  const Tensor cols = conv::im2col(img, g);
  ASSERT_EQ(cols.shape(), (Shape{9, 4}));
  // Tap (0,0) for output (0,0) reads input (-1,-1): zero.
  EXPECT_EQ(cols.at(0, 0), 0.0f);
  // Center tap (1,1) reads the unshifted image.
  EXPECT_EQ(cols.at(4, 0), 1.0f);
  EXPECT_EQ(cols.at(4, 3), 4.0f);
}

TEST(Im2col, RejectsWrongShape) {
  const ConvGeometry g = geom(1, 4, 4, 3, 1, 1);
  EXPECT_THROW(conv::im2col(Tensor({2, 4, 4}), g), std::invalid_argument);
  EXPECT_THROW(conv::im2col(Tensor({1, 5, 4}), g), std::invalid_argument);
}

TEST(Col2im, RejectsWrongShape) {
  const ConvGeometry g = geom(1, 4, 4, 3, 1, 1);
  EXPECT_THROW(conv::col2im(Tensor({8, 16}), g), std::invalid_argument);
}

// col2im must be the exact adjoint of im2col:
// <im2col(x), y> == <x, col2im(y)> for all x, y.
class Im2colAdjoint
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t,
                                                 std::int64_t, std::int64_t>> {};

TEST_P(Im2colAdjoint, DotProductIdentity) {
  const auto [channels, size, kernel, stride] = GetParam();
  const std::int64_t padding = kernel / 2;
  const ConvGeometry g = geom(channels, size, size, kernel, stride, padding);
  Rng rng(17);
  Tensor x({channels, size, size});
  fill_uniform(x, rng);
  Tensor y({g.patch_rows(), g.patch_cols()});
  fill_uniform(y, rng);
  const float lhs = ops::dot(conv::im2col(x, g), y);
  const float rhs = ops::dot(x, conv::col2im(y, g));
  EXPECT_NEAR(lhs, rhs, 1e-2f);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colAdjoint,
    ::testing::Values(std::make_tuple(1, 6, 3, 1), std::make_tuple(2, 8, 3, 2),
                      std::make_tuple(3, 5, 1, 1), std::make_tuple(2, 7, 5, 1),
                      std::make_tuple(4, 8, 3, 1)));

// Naive lowering: one bounds-checked read per patch matrix element.
float naive_tap(const std::vector<float>& img, const ConvGeometry& g, std::int64_t row,
                std::int64_t col, std::int64_t* index) {
  const std::int64_t k = g.kernel;
  const std::int64_t c = row / (k * k), ky = row / k % k, kx = row % k;
  const std::int64_t oy = col / g.out_w(), ox = col % g.out_w();
  const std::int64_t iy = oy * g.stride + ky - g.padding;
  const std::int64_t ix = ox * g.stride + kx - g.padding;
  if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) {
    *index = -1;
    return 0.0f;
  }
  *index = (c * g.in_h + iy) * g.in_w + ix;
  return img[static_cast<std::size_t>(*index)];
}

TEST(ConvLowering, IntoMatchesNaive) {
  Rng rng(23);
  int geometries = 0, empty_taps = 0;
  // Non-square odd inputs; the 1-wide and 3-high ones give taps whose valid
  // output range is empty once padding exceeds the input.
  const std::int64_t shapes[][3] = {{2, 7, 5}, {1, 3, 9}, {3, 5, 1}, {1, 9, 11}};
  for (const auto& shape : shapes) {
    for (std::int64_t k : {1, 3, 5}) {
      for (std::int64_t s : {1, 2, 3}) {
        for (std::int64_t p : {0, 1, 2}) {
          const ConvGeometry g = geom(shape[0], shape[1], shape[2], k, s, p);
          if (shape[1] + 2 * p < k || shape[2] + 2 * p < k) continue;
          ++geometries;
          SCOPED_TRACE(::testing::Message() << "C=" << shape[0] << " H=" << shape[1]
                                            << " W=" << shape[2] << " k=" << k
                                            << " s=" << s << " p=" << p);
          const std::int64_t rows = g.patch_rows(), cols_n = g.patch_cols();
          std::vector<float> img(static_cast<std::size_t>(shape[0] * shape[1] * shape[2]));
          for (float& v : img) v = rng.uniform_f(-1.0f, 1.0f);

          // Every slot must be written: start from NaN.
          std::vector<float> cols(static_cast<std::size_t>(rows * cols_n),
                                  std::numeric_limits<float>::quiet_NaN());
          conv::im2col_into(img.data(), g, cols.data());
          for (std::int64_t r = 0; r < rows; ++r) {
            bool any_valid = false;
            for (std::int64_t c = 0; c < cols_n; ++c) {
              std::int64_t index = 0;
              const float want = naive_tap(img, g, r, c, &index);
              any_valid |= index >= 0;
              ASSERT_EQ(cols[static_cast<std::size_t>(r * cols_n + c)], want)
                  << "row " << r << " col " << c;
            }
            if (!any_valid) ++empty_taps;
          }

          // col2im_add accumulates onto what the image already holds.
          std::vector<float> upstream(cols.size());
          for (float& v : upstream) v = rng.uniform_f(-1.0f, 1.0f);
          std::vector<float> got = img, want = img;
          conv::col2im_add(upstream.data(), g, got.data());
          for (std::int64_t r = 0; r < rows; ++r) {
            for (std::int64_t c = 0; c < cols_n; ++c) {
              std::int64_t index = 0;
              naive_tap(img, g, r, c, &index);
              if (index >= 0) {
                want[static_cast<std::size_t>(index)] +=
                    upstream[static_cast<std::size_t>(r * cols_n + c)];
              }
            }
          }
          ASSERT_EQ(0, std::memcmp(got.data(), want.data(), got.size() * sizeof(float)));
        }
      }
    }
  }
  EXPECT_GT(geometries, 80);
  EXPECT_GT(empty_taps, 0);  // the empty-range path really ran
}

TEST(Col2im, AccumulatesOverlaps) {
  // All-ones patch matrix with overlapping 2x2 windows, stride 1: interior
  // pixels are covered by more windows than corners.
  const ConvGeometry g = geom(1, 3, 3, 2, 1, 0);
  Tensor cols({4, 4}, 1.0f);
  const Tensor img = conv::col2im(cols, g);
  EXPECT_EQ(img.at(0, 0, 0), 1.0f);  // corner: 1 window
  EXPECT_EQ(img.at(0, 1, 1), 4.0f);  // center: 4 windows
  EXPECT_EQ(img.at(0, 0, 1), 2.0f);  // edge: 2 windows
}

}  // namespace
}  // namespace taamr
