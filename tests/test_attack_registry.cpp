// Contract tests of the string-keyed attack table: every built-in key
// constructs through attack::make and honors the common Attack guarantees
// (l_inf ball around the input, pixels clipped to [clip_min, clip_max]),
// including C&W, whose registry factory turns the final l_inf projection on.
// Also pins the table lookups themselves: unknown keys, display names, and
// the AttackConfig params section.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "attack/attack.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"

namespace taamr {
namespace {

nn::Classifier& tiny_classifier() {
  // Untrained: the contract must hold regardless of training state, and
  // skipping fit() keeps the whole suite cheap.
  static nn::Classifier classifier = [] {
    nn::MiniResNetConfig cfg;
    cfg.image_size = 8;
    cfg.base_width = 4;
    cfg.blocks_per_stage = 1;
    cfg.num_classes = 3;
    Rng rng(901);
    return nn::Classifier(cfg, rng);
  }();
  return classifier;
}

TEST(AttackRegistry, BuiltinsAreRegistered) {
  const auto keys = attack::registered();
  for (const char* key : {"fgsm", "pgd", "mim", "cw", "feature_match"}) {
    EXPECT_NE(std::find(keys.begin(), keys.end(), key), keys.end()) << key;
  }
  EXPECT_EQ(attack::display_name("fgsm"), "FGSM");
  EXPECT_EQ(attack::display_name("pgd"), "PGD");
  EXPECT_EQ(attack::display_name("mim"), "MIM");
  EXPECT_EQ(attack::display_name("cw"), "C&W-L2");
  EXPECT_EQ(attack::display_name("feature_match"), "FeatureMatch");
}

TEST(AttackRegistry, UnknownKeyThrowsListingRegistered) {
  try {
    attack::make("no_such_attack");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no_such_attack"), std::string::npos);
    EXPECT_NE(what.find("pgd"), std::string::npos);  // lists the known keys
  }
  EXPECT_THROW(attack::display_name("no_such_attack"), std::invalid_argument);
}

TEST(AttackRegistry, ParamsFallBackWhenAbsent) {
  attack::AttackConfig cfg;
  EXPECT_EQ(cfg.param("decay", 1.25f), 1.25f);
  cfg.params["decay"] = 0.5f;
  EXPECT_EQ(cfg.param("decay", 1.25f), 0.5f);
}

class AttackRegistryContract
    : public ::testing::TestWithParam<std::string> {};

TEST_P(AttackRegistryContract, EveryKeyHonorsLinfBallAndClipRange) {
  const std::string key = GetParam();
  nn::Classifier& c = tiny_classifier();
  Rng rng(902);
  Tensor clean({3, 3, 8, 8});
  testing::fill_uniform(clean, rng, 0.0f, 1.0f);
  const std::vector<std::int64_t> targets = {0, 1, 2};

  attack::AttackConfig cfg;
  cfg.epsilon = attack::epsilon_from_255(8.0f);
  cfg.iterations = 5;  // keep C&W's inner descent cheap
  if (key == "cw") {
    cfg.params["binary_search_steps"] = 2.0f;
  }
  if (key == "feature_match") {
    Tensor reference({3, 3, 8, 8});
    testing::fill_uniform(reference, rng, 0.0f, 1.0f);
    cfg.payload = std::make_shared<const Tensor>(c.features(reference));
  }

  auto attacker = attack::make(key, cfg);
  Rng arng(903);
  const Tensor adv = attacker->perturb(c, clean, targets, arng);
  ASSERT_EQ(adv.shape(), clean.shape());
  EXPECT_LE(ops::linf_distance(adv, clean), cfg.epsilon + 1e-5f) << key;
  EXPECT_GE(ops::min(adv), 0.0f) << key;
  EXPECT_LE(ops::max(adv), 1.0f) << key;
}

INSTANTIATE_TEST_SUITE_P(Builtins, AttackRegistryContract,
                         ::testing::Values("fgsm", "pgd", "mim", "cw",
                                           "feature_match"));

TEST(AttackRegistry, FeatureMatchRequiresPayload) {
  nn::Classifier& c = tiny_classifier();
  Rng rng(904);
  Tensor clean({2, 3, 8, 8});
  testing::fill_uniform(clean, rng, 0.0f, 1.0f);
  auto fm = attack::make("feature_match");
  Rng arng(905);
  EXPECT_THROW(fm->perturb(c, clean, {0, 1}, arng), std::invalid_argument);
}

TEST(AttackRegistry, CwDirectConstructionStaysUnconstrained) {
  // attack::make("cw") injects project_linf=1 (the common contract); an
  // explicit project_linf=0 — and plain construction — must preserve the
  // paper's unconstrained-L2 semantics. Check the knob plumbs through by
  // comparing the two factory products' configs.
  attack::AttackConfig cfg;
  auto projected = attack::make("cw", cfg);
  EXPECT_EQ(projected->config().param("project_linf", 0.0f), 1.0f);
  cfg.params["project_linf"] = 0.0f;
  auto unconstrained = attack::make("cw", cfg);
  EXPECT_EQ(unconstrained->config().param("project_linf", 1.0f), 0.0f);
}

}  // namespace
}  // namespace taamr
