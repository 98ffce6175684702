// Convolution lowering: im2col / col2im turn 2-d convolution into GEMM,
// which is how Conv2d's forward and both backward passes are implemented.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace taamr::conv {

struct ConvGeometry {
  std::int64_t in_channels = 0;
  std::int64_t in_h = 0;
  std::int64_t in_w = 0;
  std::int64_t kernel = 0;   // square kernels only (all the paper needs)
  std::int64_t stride = 1;
  std::int64_t padding = 0;

  std::int64_t out_h() const { return (in_h + 2 * padding - kernel) / stride + 1; }
  std::int64_t out_w() const { return (in_w + 2 * padding - kernel) / stride + 1; }
  // Rows of the lowered patch matrix (one per kernel tap per channel).
  std::int64_t patch_rows() const { return in_channels * kernel * kernel; }
  // Columns of the lowered patch matrix (one per output spatial location).
  std::int64_t patch_cols() const { return out_h() * out_w(); }

  void validate() const;
};

// Raw-buffer lowering, the one implementation behind im2col/col2im. `g`
// must be valid; `img` is one [C, H, W] image and `cols` one
// [C*K*K, outH*outW] patch matrix, both row-major and non-aliasing.
//
// Writes every element of `cols`; zero padding is materialized as zeros.
void im2col_into(const float* img, const ConvGeometry& g, float* cols);
// Adjoint of im2col_into: img += col2im(cols). Each pixel receives its
// contributions in patch-row order, so accumulating into a zeroed image
// gives exactly col2im's result.
void col2im_add(const float* cols, const ConvGeometry& g, float* img);

// Lower a single image [C, H, W] to a patch matrix
// [C*K*K, outH*outW]; zero padding is materialized as zeros.
Tensor im2col(const Tensor& image, const ConvGeometry& g);

// Adjoint of im2col: scatter-add a patch matrix back into an image
// [C, H, W]. Used for the gradient w.r.t. the convolution input — which is
// also the gradient FGSM/PGD need at the pixel level.
Tensor col2im(const Tensor& columns, const ConvGeometry& g);

}  // namespace taamr::conv
