#include "metrics/image_quality.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace taamr::metrics {

double mse(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mse");
  if (a.numel() == 0) throw std::invalid_argument("mse: empty tensors");
  return static_cast<double>(ops::squared_distance(a, b)) /
         static_cast<double>(a.numel());
}

double psnr(const Tensor& a, const Tensor& b, double peak) {
  if (peak <= 0.0) throw std::invalid_argument("psnr: non-positive peak");
  const double err = mse(a, b);
  if (err <= 0.0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(peak * peak / err);
}

double ssim(const Tensor& a, const Tensor& b, const SsimConfig& config) {
  check_same_shape(a, b, "ssim");
  if (a.ndim() != 3) throw std::invalid_argument("ssim: expected [C, H, W]");
  if (config.window <= 0) throw std::invalid_argument("ssim: non-positive window");
  const std::int64_t c = a.dim(0), h = a.dim(1), w = a.dim(2);
  const std::int64_t win = std::min({config.window, h, w});
  const double c1 = (config.k1 * config.dynamic_range) * (config.k1 * config.dynamic_range);
  const double c2 = (config.k2 * config.dynamic_range) * (config.k2 * config.dynamic_range);

  double total = 0.0;
  std::int64_t count = 0;
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t y0 = 0; y0 + win <= h; y0 += win) {
      for (std::int64_t x0 = 0; x0 + win <= w; x0 += win) {
        double mean_a = 0.0, mean_b = 0.0;
        for (std::int64_t y = y0; y < y0 + win; ++y) {
          for (std::int64_t x = x0; x < x0 + win; ++x) {
            mean_a += a.at(ch, y, x);
            mean_b += b.at(ch, y, x);
          }
        }
        const double n = static_cast<double>(win * win);
        mean_a /= n;
        mean_b /= n;
        double var_a = 0.0, var_b = 0.0, cov = 0.0;
        for (std::int64_t y = y0; y < y0 + win; ++y) {
          for (std::int64_t x = x0; x < x0 + win; ++x) {
            const double da = a.at(ch, y, x) - mean_a;
            const double db = b.at(ch, y, x) - mean_b;
            var_a += da * da;
            var_b += db * db;
            cov += da * db;
          }
        }
        // Unbiased estimators as in Wang et al. (n - 1 denominators).
        const double denom_n = n > 1.0 ? n - 1.0 : 1.0;
        var_a /= denom_n;
        var_b /= denom_n;
        cov /= denom_n;
        const double numerator = (2.0 * mean_a * mean_b + c1) * (2.0 * cov + c2);
        const double denominator =
            (mean_a * mean_a + mean_b * mean_b + c1) * (var_a + var_b + c2);
        total += numerator / denominator;
        ++count;
      }
    }
  }
  if (count == 0) throw std::logic_error("ssim: image smaller than one window");
  return total / static_cast<double>(count);
}

double psm(nn::Classifier& classifier, const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "psm");
  if (a.ndim() != 3) throw std::invalid_argument("psm: expected [C, H, W]");
  Shape batch_shape = {1, a.dim(0), a.dim(1), a.dim(2)};
  const Tensor fa = classifier.features(a.reshaped(batch_shape));
  const Tensor fb = classifier.features(b.reshaped(batch_shape));
  // Layer e is the global-average-pool output: He = We = 1, Ce = feature_dim.
  return static_cast<double>(ops::squared_distance(fa, fb)) /
         static_cast<double>(fa.numel());
}

VisualQuality average_visual_quality(const Tensor& originals, const Tensor& attacked,
                                     const Tensor& original_features,
                                     const Tensor& attacked_features) {
  check_same_shape(originals, attacked, "average_visual_quality");
  if (originals.ndim() != 4 || originals.dim(0) == 0) {
    throw std::invalid_argument("average_visual_quality: expected non-empty [N, C, H, W]");
  }
  check_same_shape(original_features, attacked_features, "average_visual_quality");
  const std::int64_t n = originals.dim(0);
  if (original_features.ndim() != 2 || original_features.dim(0) != n) {
    throw std::invalid_argument("average_visual_quality: expected [N, D] features");
  }
  const Shape img_shape = {originals.dim(1), originals.dim(2), originals.dim(3)};
  const std::int64_t elems = originals.numel() / n;
  const std::int64_t d = original_features.dim(1);

  VisualQuality q;
  for (std::int64_t i = 0; i < n; ++i) {
    Tensor a(img_shape);
    Tensor b(img_shape);
    std::copy(originals.data() + i * elems, originals.data() + (i + 1) * elems, a.data());
    std::copy(attacked.data() + i * elems, attacked.data() + (i + 1) * elems, b.data());
    q.psnr += psnr(a, b);
    q.ssim += ssim(a, b);
    double fd = 0.0;
    for (std::int64_t j = 0; j < d; ++j) {
      const double diff = original_features.at(i, j) - attacked_features.at(i, j);
      fd += diff * diff;
    }
    q.psm += fd / static_cast<double>(d);
  }
  q.psnr /= static_cast<double>(n);
  q.ssim /= static_cast<double>(n);
  q.psm /= static_cast<double>(n);
  return q;
}

VisualQuality average_visual_quality(nn::Classifier& classifier, const Tensor& originals,
                                     const Tensor& attacked) {
  check_same_shape(originals, attacked, "average_visual_quality");
  if (originals.ndim() != 4 || originals.dim(0) == 0) {
    throw std::invalid_argument("average_visual_quality: expected non-empty [N, C, H, W]");
  }
  return average_visual_quality(originals, attacked, classifier.features(originals),
                                classifier.features(attacked));
}

}  // namespace taamr::metrics
