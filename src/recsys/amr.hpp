// AMR (Tang et al., TKDE 2019): Adversarial Multimedia Recommendation —
// VBPR plus adversarial training on the image features (Eq. 8-10 of the
// TAaMR paper). Training follows the paper's protocol: a warm-start phase
// of plain VBPR epochs, then the same number of epochs with the
// adversarial regularizer (gamma = 0.1, eta = 1 by default).
#pragma once

#include "recsys/vbpr.hpp"

namespace taamr::recsys {

struct AmrConfig {
  VbprConfig vbpr;                 // shared hyper-parameters
  AdversarialOptions adversarial;  // gamma, eta
  // Paper: VBPR trained 4000 epochs, checkpoint at 2000 = AMR warm start,
  // then 2000 adversarial epochs. We keep the 50/50 split at bench scale.
  std::int64_t warm_epochs = 60;
  std::int64_t adversarial_epochs = 60;
};

class Amr : public Vbpr {
 public:
  Amr(const data::ImplicitDataset& dataset, const Tensor& raw_features,
      AmrConfig config, Rng& rng);

  // Warm start (plain BPR epochs) followed by adversarial training.
  void fit(const data::ImplicitDataset& dataset, Rng& rng, bool verbose = false);

  std::string name() const override { return "AMR"; }

 private:
  AmrConfig amr_config_;
};

}  // namespace taamr::recsys
