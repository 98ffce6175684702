// VBPR (He & McAuley, AAAI 2016): visual Bayesian personalized ranking,
// Eq. 6-7 of the TAaMR paper. Score:
//   s(u,i) = b_i + p_u . q_i + alpha_u . (E f_i) + beta . f_i
// with f_i the CNN feature of item i's image at layer e. Also hosts the
// shared machinery AMR builds on (see recsys/amr.hpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>

#include "recsys/recommender.hpp"
#include "recsys/sampler.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace taamr::recsys {

struct VbprConfig {
  std::int64_t mf_factors = 16;       // K
  std::int64_t visual_factors = 16;   // A
  std::int64_t epochs = 120;          // one epoch = |S| sampled triplets
  float learning_rate = 0.005f;
  float reg_factors = 0.01f;          // lambda for p, q, alpha
  float reg_bias = 0.01f;
  float reg_visual = 0.01f;           // lambda for E, beta
  float init_stddev = 0.1f;
};

// Settings of the AMR adversarial regularizer (Eq. 8-10); paper defaults
// gamma = 0.1, eta = 1.
struct AdversarialOptions {
  float gamma = 0.1f;  // regularizer weight
  float eta = 1.0f;    // perturbation magnitude on features
};

// Frozen standardization of the raw CNN features, estimated once from the
// clean catalog and applied identically to attacked features (the attacker
// cannot influence it; it is part of the trained model).
struct FeatureTransform {
  Tensor mean;        // [D]
  float inv_scale = 1.0f;

  static FeatureTransform fit(const Tensor& raw_features);
  Tensor apply(const Tensor& raw_features) const;
};

class Vbpr : public Recommender {
 public:
  // raw_features: [num_items, D] CNN features of the clean catalog.
  Vbpr(const data::ImplicitDataset& dataset, const Tensor& raw_features,
       VbprConfig config, Rng& rng);

  // One epoch of |S| triplet updates. Pass adversarial options to add the
  // AMR regularizer to every step (used by Amr); nullopt = plain VBPR.
  float train_epoch(const data::ImplicitDataset& dataset, Rng& rng,
                    const std::optional<AdversarialOptions>& adversarial = std::nullopt);

  void fit(const data::ImplicitDataset& dataset, Rng& rng, bool verbose = false);

  // Swap in new raw item features (e.g. re-extracted after an image
  // attack). Model parameters stay fixed: this is exactly the prediction-
  // time attack surface of the paper. Refreshes scoring caches.
  void set_item_features(const Tensor& raw_features);

  std::int64_t num_users() const override { return user_factors_.dim(0); }
  std::int64_t num_items() const override { return item_factors_.dim(0); }
  // Two GEMMs over the cached item matrices: the rows of P and alpha are
  // gathered, then S = P_b Q^T + A_b Theta^T + (b_i + beta.f_i) broadcast.
  // Each score is its own k-ordered chain, so a user's row is bitwise the
  // same whatever other users share the call.
  void score_users(std::span<const std::int64_t> users,
                   std::span<float> out) const override;
  std::string name() const override { return "VBPR"; }

  std::int64_t feature_dim() const { return features_.dim(1); }
  const VbprConfig& config() const { return config_; }
  const Tensor& features() const { return features_; }  // standardized [I, D]

  // Checkpointing: parameters, the frozen feature transform and the
  // current standardized features. load() rebuilds against the same
  // dataset (the model keeps a sampler over it). An AMR model saved this
  // way loads as a Vbpr and scores identically (they share the storage).
  void save(std::ostream& os) const;
  static Vbpr load(std::istream& is, const data::ImplicitDataset& dataset);
  void save_file(const std::string& path) const;
  static Vbpr load_file(const std::string& path, const data::ImplicitDataset& dataset);

 protected:
  // Rebuilds theta_cache_t_ (column i = E f_i), visual_bias_cache_
  // (= beta . f_i) and item_factors_t_.
  void rebuild_caches();

  VbprConfig config_;
  FeatureTransform transform_;
  Tensor features_;       // standardized features, [I, D]
  Tensor user_factors_;   // P: [U, K]
  Tensor item_factors_;   // Q: [I, K]
  Tensor item_bias_;      // [I]
  Tensor user_visual_;    // alpha: [U, A]
  Tensor embedding_;      // E: [A, D]
  Tensor visual_bias_;    // beta: [D]
  Tensor visual_bias_cache_;  // [I]
  // The right-hand sides of score_users' GEMMs: Q^T and Theta^T = E F^T.
  Tensor item_factors_t_;  // [K, I]
  Tensor theta_cache_t_;   // [A, I]
  bool caches_fresh_ = false;
  TripletSampler sampler_;

 private:
  struct LoadTag {};
  Vbpr(const data::ImplicitDataset& dataset, VbprConfig config, LoadTag);
};

}  // namespace taamr::recsys
