#include "tensor/conv_lowering.hpp"

#include <algorithm>
#include <stdexcept>

#include "tensor/cost.hpp"

namespace taamr::conv {

void ConvGeometry::validate() const {
  if (in_channels <= 0 || in_h <= 0 || in_w <= 0) {
    throw std::invalid_argument("ConvGeometry: non-positive input dims");
  }
  if (kernel <= 0 || stride <= 0 || padding < 0) {
    throw std::invalid_argument("ConvGeometry: bad kernel/stride/padding");
  }
  if (in_h + 2 * padding < kernel || in_w + 2 * padding < kernel) {
    throw std::invalid_argument("ConvGeometry: kernel larger than padded input");
  }
}

namespace {

// Output positions [lo, hi) of one kernel tap whose input coordinate
// o * stride + tap - padding lands inside [0, in). Empty when lo == hi.
struct ValidRange {
  std::int64_t lo;
  std::int64_t hi;
};

ValidRange valid_range(std::int64_t tap, const ConvGeometry& g, std::int64_t in,
                       std::int64_t out) {
  const std::int64_t off = tap - g.padding;
  const std::int64_t lo = off >= 0 ? 0 : (g.stride - 1 - off) / g.stride;
  const std::int64_t last = in - 1 - off;  // largest o * stride that stays inside
  const std::int64_t hi = last < 0 ? 0 : last / g.stride + 1;
  const std::int64_t clo = std::min(lo, out);
  return {clo, std::max(clo, std::min(hi, out))};
}

// Nominal data movement of one lowering: one read and one write per patch
// matrix element (padding slots are writes without reads; close enough).
double lowering_bytes(const ConvGeometry& g) {
  return 8.0 * static_cast<double>(g.patch_rows()) * static_cast<double>(g.patch_cols());
}

}  // namespace

void im2col_into(const float* img, const ConvGeometry& g, float* cols) {
  cost::add(cost::Kernel::kIm2col, 0.0, lowering_bytes(g));
  const std::int64_t oh = g.out_h(), ow = g.out_w(), k = g.kernel, s = g.stride;
  float* dst = cols;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    const float* plane = img + c * g.in_h * g.in_w;
    for (std::int64_t ky = 0; ky < k; ++ky) {
      const ValidRange ys = valid_range(ky, g, g.in_h, oh);
      for (std::int64_t kx = 0; kx < k; ++kx, dst += oh * ow) {
        const ValidRange xs = valid_range(kx, g, g.in_w, ow);
        if (xs.lo == xs.hi) {  // the tap misses every input column
          std::fill(dst, dst + oh * ow, 0.0f);
          continue;
        }
        std::fill(dst, dst + ys.lo * ow, 0.0f);
        // First input column the valid range reads.
        const std::int64_t ix0 = xs.lo * s + kx - g.padding;
        const std::int64_t len = xs.hi - xs.lo;
        for (std::int64_t oy = ys.lo; oy < ys.hi; ++oy) {
          float* out = dst + oy * ow;
          const float* src = plane + (oy * s + ky - g.padding) * g.in_w + ix0;
          std::fill(out, out + xs.lo, 0.0f);
          if (s == 1) {
            std::copy(src, src + len, out + xs.lo);
          } else {
            for (std::int64_t i = 0; i < len; ++i) out[xs.lo + i] = src[i * s];
          }
          std::fill(out + xs.hi, out + ow, 0.0f);
        }
        std::fill(dst + ys.hi * ow, dst + oh * ow, 0.0f);
      }
    }
  }
}

void col2im_add(const float* cols, const ConvGeometry& g, float* img) {
  // Scatter-accumulate: one read and one add per patch matrix element.
  cost::add(cost::Kernel::kIm2col,
            static_cast<double>(g.patch_rows()) * static_cast<double>(g.patch_cols()),
            lowering_bytes(g));
  const std::int64_t oh = g.out_h(), ow = g.out_w(), k = g.kernel, s = g.stride;
  const float* src = cols;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    float* plane = img + c * g.in_h * g.in_w;
    for (std::int64_t ky = 0; ky < k; ++ky) {
      const ValidRange ys = valid_range(ky, g, g.in_h, oh);
      for (std::int64_t kx = 0; kx < k; ++kx, src += oh * ow) {
        const ValidRange xs = valid_range(kx, g, g.in_w, ow);
        if (xs.lo == xs.hi) continue;
        const std::int64_t ix0 = xs.lo * s + kx - g.padding;
        const std::int64_t len = xs.hi - xs.lo;
        for (std::int64_t oy = ys.lo; oy < ys.hi; ++oy) {
          const float* in = src + oy * ow + xs.lo;
          float* out = plane + (oy * s + ky - g.padding) * g.in_w + ix0;
          if (s == 1) {
            for (std::int64_t i = 0; i < len; ++i) out[i] += in[i];
          } else {
            for (std::int64_t i = 0; i < len; ++i) out[i * s] += in[i];
          }
        }
      }
    }
  }
}

Tensor im2col(const Tensor& image, const ConvGeometry& g) {
  g.validate();
  if (image.ndim() != 3 || image.dim(0) != g.in_channels || image.dim(1) != g.in_h ||
      image.dim(2) != g.in_w) {
    throw std::invalid_argument("im2col: image shape " + shape_to_string(image.shape()) +
                                " does not match geometry");
  }
  Tensor cols({g.patch_rows(), g.patch_cols()});
  im2col_into(image.data(), g, cols.data());
  return cols;
}

Tensor col2im(const Tensor& columns, const ConvGeometry& g) {
  g.validate();
  if (columns.ndim() != 2 || columns.dim(0) != g.patch_rows() ||
      columns.dim(1) != g.patch_cols()) {
    throw std::invalid_argument("col2im: columns shape " +
                                shape_to_string(columns.shape()) +
                                " does not match geometry");
  }
  Tensor image({g.in_channels, g.in_h, g.in_w});
  col2im_add(columns.data(), g, image.data());
  return image;
}

}  // namespace taamr::conv
