// Objective visual-quality metrics (Section IV-A4): PSNR (Eq. 11), SSIM
// (Eq. 12) and the CNN-feature Perceptual Similarity Metric PSM (Eq. 13).
// All operate on single images [C, H, W] in [0, 1]; batch helpers average
// over image pairs, which is what Table IV reports.
#pragma once

#include <cstdint>

#include "nn/classifier.hpp"
#include "tensor/tensor.hpp"

namespace taamr::metrics {

// Mean squared error over all pixels.
double mse(const Tensor& a, const Tensor& b);

// Peak signal-to-noise ratio in dB. `peak` is the maximum pixel value
// (1.0 for normalized images, 255 for 8-bit). Identical images => +inf.
double psnr(const Tensor& a, const Tensor& b, double peak = 1.0);

struct SsimConfig {
  std::int64_t window = 8;   // non-overlapping window side
  double k1 = 0.01;
  double k2 = 0.03;
  double dynamic_range = 1.0;  // L in the SSIM constants C1=(k1 L)^2 etc.
};

// Mean local SSIM over windows and channels, in [-1, 1]; 1 = identical.
//
// Border handling: the image is tiled with *non-overlapping* windows
// anchored at the top-left, and only complete windows contribute. When H
// (resp. W) is not a multiple of the window side, the trailing `H mod
// window` rows (`W mod window` columns) are dropped from the statistic —
// perturbations confined to that border strip leave the score unchanged.
// If the image is smaller than the configured window in either dimension,
// the window is clamped to min(window, H, W) so at least one tile fits.
double ssim(const Tensor& a, const Tensor& b, const SsimConfig& config = {});

// Perceptual Similarity Metric: squared distance of layer-e features
// normalized by the feature size (Eq. 13). Lower = more similar; 0 for
// identical inputs. Both images are run through `classifier`.
double psm(nn::Classifier& classifier, const Tensor& a, const Tensor& b);

// Averages over aligned batches [N, C, H, W].
struct VisualQuality {
  double psnr = 0.0;
  double ssim = 0.0;
  double psm = 0.0;
};
// From the pairs' layer-e features ([N, D] each, row i for pair i): no CNN
// pass of its own.
VisualQuality average_visual_quality(const Tensor& originals, const Tensor& attacked,
                                     const Tensor& original_features,
                                     const Tensor& attacked_features);
// The same with both batches' features extracted by `classifier`.
VisualQuality average_visual_quality(nn::Classifier& classifier, const Tensor& originals,
                                     const Tensor& attacked);

}  // namespace taamr::metrics
