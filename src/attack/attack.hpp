// Adversarial attack interface (Definitions 3-4 of the paper) under the
// l-infinity threat model of Section III-B.
//
// Conventions:
//  - images live in [0, 1]; epsilon is expressed on the same scale (the
//    paper quotes eps in {2, 4, 8, 16} on the 0-255 scale and normalizes —
//    use epsilon_from_255).
//  - `labels` are target classes for targeted attacks (loss is *descended*)
//    and true classes for untargeted attacks (loss is *ascended*).
//
// Attacks are created through a fixed string-keyed table:
//
//   auto atk = attack::make("pgd", config);
//
// Built-in keys: "fgsm", "pgd", "mim", "cw", "feature_match" (see
// registered() / display_name()). Attack-specific knobs travel in
// AttackConfig::params — an opaque name->value section each attack reads
// with config.param(key, fallback) — instead of parallel config structs;
// attacks that need tensor-valued input (FeatureMatch's target feature
// vectors) take it from AttackConfig::payload.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nn/classifier.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace taamr::attack {

inline float epsilon_from_255(float eps_255) { return eps_255 / 255.0f; }

struct AttackConfig {
  float epsilon = epsilon_from_255(8.0f);
  bool targeted = true;
  float clip_min = 0.0f;
  float clip_max = 1.0f;

  // Iteration knobs (ignored by FGSM). step_size <= 0 selects the standard
  // 2.5 * epsilon / iterations schedule (Madry et al.).
  std::int64_t iterations = 10;
  float step_size = 0.0f;
  bool random_start = true;

  // Opaque per-attack section. Numeric knobs by name — e.g. MIM's "decay",
  // C&W's "binary_search_steps" / "initial_c" / "learning_rate" /
  // "confidence" / "project_linf" — plus an optional tensor payload
  // (FeatureMatch's [N, D] target features). Attacks ignore keys they do
  // not read.
  std::map<std::string, float> params;
  std::shared_ptr<const Tensor> payload;

  float param(const std::string& key, float fallback) const {
    const auto it = params.find(key);
    return it == params.end() ? fallback : it->second;
  }

  float effective_step() const {
    return step_size > 0.0f ? step_size
                            : 2.5f * epsilon / static_cast<float>(iterations);
  }

  void validate() const;
};

class Attack {
 public:
  explicit Attack(AttackConfig config);
  virtual ~Attack();

  // Returns adversarial examples x* with ||x* - x||_inf <= epsilon and
  // every pixel in [clip_min, clip_max]. images: [N, C, H, W].
  virtual Tensor perturb(nn::Classifier& classifier, const Tensor& images,
                         const std::vector<std::int64_t>& labels, Rng& rng) = 0;

  virtual std::string name() const = 0;
  const AttackConfig& config() const { return config_; }

 protected:
  // Project candidate onto the l_inf ball around original, then clip to the
  // valid pixel range. Shared by all iterative attacks.
  void project(Tensor& candidate, const Tensor& original) const;

  AttackConfig config_;
};

// ---- string-keyed factory table ---------------------------------------------

// Instantiates the attack registered under `key` ("pgd", "cw", ...). Throws
// std::invalid_argument for unknown keys, listing the registered ones.
std::unique_ptr<Attack> make(const std::string& key, AttackConfig config = {});

// Sorted keys of every registered attack.
std::vector<std::string> registered();

// Display name for a registered key ("pgd" -> "PGD"). Throws for unknown keys.
std::string display_name(const std::string& key);

}  // namespace taamr::attack
