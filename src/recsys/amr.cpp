#include "recsys/amr.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace taamr::recsys {

namespace {
VbprConfig with_epochs(VbprConfig config, std::int64_t warm, std::int64_t adv) {
  config.epochs = warm + adv;  // informational; Amr::fit drives the loop
  return config;
}
}  // namespace

Amr::Amr(const data::ImplicitDataset& dataset, const Tensor& raw_features,
         AmrConfig config, Rng& rng)
    : Vbpr(dataset, raw_features,
           with_epochs(config.vbpr, config.warm_epochs, config.adversarial_epochs), rng),
      amr_config_(config) {}

void Amr::fit(const data::ImplicitDataset& dataset, Rng& rng, bool verbose) {
  auto& loss_hist = obs::MetricsRegistry::global().histogram(
      "amr_epoch_loss", {}, obs::exponential_bounds(1e-3, 2.0, 20));
  for (std::int64_t epoch = 0; epoch < amr_config_.warm_epochs; ++epoch) {
    TAAMR_TRACE_SPAN("recsys/amr/warm_epoch");
    const float loss = train_epoch(dataset, rng);
    loss_hist.observe(static_cast<double>(loss));
    if (verbose && (epoch + 1) % 20 == 0) {
      log_info() << "amr warm epoch " << (epoch + 1) << "/" << amr_config_.warm_epochs
                 << " loss=" << loss;
    }
  }
  for (std::int64_t epoch = 0; epoch < amr_config_.adversarial_epochs; ++epoch) {
    TAAMR_TRACE_SPAN("recsys/amr/adversarial_epoch");
    const float loss = train_epoch(dataset, rng, amr_config_.adversarial);
    loss_hist.observe(static_cast<double>(loss));
    if (verbose && (epoch + 1) % 20 == 0) {
      log_info() << "amr adversarial epoch " << (epoch + 1) << "/"
                 << amr_config_.adversarial_epochs << " loss=" << loss;
    }
  }
  rebuild_caches();
}

}  // namespace taamr::recsys
