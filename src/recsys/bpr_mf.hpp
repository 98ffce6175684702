// BPR-MF (Rendle et al., UAI 2009): the pure collaborative-filtering
// backbone VBPR extends. Score: s(u,i) = b_i + p_u . q_i, trained by
// stochastic gradient descent on the pairwise ranking loss.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "recsys/recommender.hpp"
#include "recsys/sampler.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace taamr::recsys {

struct BprMfConfig {
  std::int64_t factors = 16;       // K
  std::int64_t epochs = 100;       // one epoch = |S| sampled triplets
  float learning_rate = 0.05f;
  float reg_factors = 0.01f;       // lambda for p, q
  float reg_bias = 0.01f;          // lambda for item bias
  float init_stddev = 0.1f;
};

class BprMf : public Recommender {
 public:
  BprMf(const data::ImplicitDataset& dataset, BprMfConfig config, Rng& rng);

  // One epoch of |S| triplet updates; returns mean -ln(sigma(x)) loss.
  float train_epoch(const data::ImplicitDataset& dataset, Rng& rng);
  void fit(const data::ImplicitDataset& dataset, Rng& rng, bool verbose = false);

  std::int64_t num_users() const override { return user_factors_.dim(0); }
  std::int64_t num_items() const override { return item_factors_.dim(0); }
  // One dot per (user, item), bias first.
  void score_users(std::span<const std::int64_t> users,
                   std::span<float> out) const override;
  std::string name() const override { return "BPR-MF"; }

  const BprMfConfig& config() const { return config_; }
  Tensor& user_factors() { return user_factors_; }
  Tensor& item_factors() { return item_factors_; }
  Tensor& item_bias() { return item_bias_; }

  // Checkpointing in the shared util/io container format (magic "TAMB",
  // explicit version). load() rebuilds against the same dataset (the model
  // keeps a sampler over it) and rejects mismatched checkpoints with a
  // descriptive std::runtime_error — this is what lets the serving
  // ModelRegistry host the BPR-MF baseline next to VBPR/AMR.
  void save(std::ostream& os) const;
  static BprMf load(std::istream& is, const data::ImplicitDataset& dataset);
  void save_file(const std::string& path) const;
  static BprMf load_file(const std::string& path, const data::ImplicitDataset& dataset);

 private:
  struct LoadTag {};
  BprMf(const data::ImplicitDataset& dataset, BprMfConfig config, LoadTag);

  BprMfConfig config_;
  Tensor user_factors_;  // [U, K]
  Tensor item_factors_;  // [I, K]
  Tensor item_bias_;     // [I]
  TripletSampler sampler_;
};

}  // namespace taamr::recsys
