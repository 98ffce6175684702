// Tests of the Carlini-Wagner attack and defensive distillation (the
// paper's citation [8] and its second future-work defense).
#include <gtest/gtest.h>

#include <cmath>

#include "attack/carlini_wagner.hpp"
#include "attack/distillation.hpp"
#include "attack/fgsm.hpp"
#include "metrics/success.hpp"
#include "tensor/cost.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"

namespace taamr {
namespace {

nn::MiniResNetConfig tiny_config() {
  nn::MiniResNetConfig cfg;
  cfg.image_size = 8;
  cfg.base_width = 4;
  cfg.blocks_per_stage = 1;
  cfg.num_classes = 3;
  return cfg;
}

void make_task(Tensor& images, std::vector<std::int64_t>& labels, std::int64_t n,
               Rng& rng) {
  images = Tensor({n, 3, 8, 8});
  labels.resize(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t label = i % 3;
    labels[static_cast<std::size_t>(i)] = label;
    const float base = 0.2f + 0.3f * static_cast<float>(label);
    for (std::int64_t j = 0; j < 192; ++j) {
      images[i * 192 + j] =
          std::clamp(base + rng.gaussian_f(0.0f, 0.05f), 0.0f, 1.0f);
    }
  }
}

nn::Classifier& trained_classifier() {
  static nn::Classifier classifier = [] {
    Rng rng(301);
    nn::Classifier c(tiny_config(), rng);
    Tensor images;
    std::vector<std::int64_t> labels;
    make_task(images, labels, 90, rng);
    nn::SgdConfig sgd;
    sgd.learning_rate = 0.05f;
    c.fit(images, labels, 6, 16, sgd, rng, false);
    return c;
  }();
  return classifier;
}

TEST(CarliniWagner, ConfigValidation) {
  attack::AttackConfig cfg;
  EXPECT_NO_THROW(attack::CarliniWagner{cfg});
  cfg.iterations = 0;
  EXPECT_THROW(attack::CarliniWagner{cfg}, std::invalid_argument);
  cfg = {};
  cfg.params["initial_c"] = 0.0f;
  EXPECT_THROW(attack::CarliniWagner{cfg}, std::invalid_argument);
  cfg = {};
  cfg.params["confidence"] = -1.0f;
  EXPECT_THROW(attack::CarliniWagner{cfg}, std::invalid_argument);
  cfg = {};
  cfg.params["binary_search_steps"] = 0.0f;
  EXPECT_THROW(attack::CarliniWagner{cfg}, std::invalid_argument);
  cfg = {};
  cfg.clip_min = 1.0f;
  cfg.clip_max = 0.0f;
  EXPECT_THROW(attack::CarliniWagner{cfg}, std::invalid_argument);
}

TEST(CarliniWagner, FindsAdversarialExamplesOnAdjacentClass) {
  nn::Classifier& c = trained_classifier();
  Rng rng(302);
  Tensor images;
  std::vector<std::int64_t> labels;
  make_task(images, labels, 6, rng);
  // Target every image at class 1 (reachable from both class 0 and 2).
  const std::vector<std::int64_t> targets(6, 1);
  attack::AttackConfig cfg;
  cfg.iterations = 60;
  attack::CarliniWagner cw(cfg);
  Rng arng(312);
  const Tensor adv = cw.perturb(c, images, targets, arng);
  const auto stats = metrics::attack_success(c, adv, 1);
  EXPECT_GT(stats.success_rate, 0.6);
  EXPECT_GT(cw.last_successes(), 3);
  EXPECT_GT(cw.last_mean_l2(), 0.0);
}

TEST(CarliniWagner, RespectsPixelBox) {
  nn::Classifier& c = trained_classifier();
  Rng rng(303);
  Tensor images;
  std::vector<std::int64_t> labels;
  make_task(images, labels, 4, rng);
  attack::CarliniWagner cw{attack::AttackConfig{}};
  Rng arng(313);
  const Tensor adv = cw.perturb(c, images, {1, 1, 1, 1}, arng);
  EXPECT_GE(ops::min(adv), 0.0f);
  EXPECT_LE(ops::max(adv), 1.0f);
}

TEST(CarliniWagner, DistortionIsSmallerThanFgsmAtSameSuccess) {
  // C&W's selling point: minimal-distortion targeted examples. Compare L2
  // of its successful examples against an FGSM budget that also succeeds.
  nn::Classifier& c = trained_classifier();
  Rng rng(304);
  Tensor images;
  std::vector<std::int64_t> labels;
  make_task(images, labels, 6, rng);
  const std::vector<std::int64_t> targets(6, 1);

  attack::AttackConfig cw_cfg;
  cw_cfg.iterations = 80;
  attack::CarliniWagner cw(cw_cfg);
  Rng cw_rng(314);
  const Tensor adv_cw = cw.perturb(c, images, targets, cw_rng);

  attack::AttackConfig fgsm_cfg;
  fgsm_cfg.epsilon = attack::epsilon_from_255(48.0f);
  attack::Fgsm fgsm(fgsm_cfg);
  Rng arng(305);
  const Tensor adv_fgsm = fgsm.perturb(c, images, targets, arng);

  // Mean L2 over all images (unchanged C&W failures count as 0 distortion,
  // which only helps FGSM in this comparison if C&W failed).
  const double l2_cw = std::sqrt(ops::squared_distance(adv_cw, images) / 6.0);
  const double l2_fgsm = std::sqrt(ops::squared_distance(adv_fgsm, images) / 6.0);
  EXPECT_LT(l2_cw, l2_fgsm);
}

TEST(CarliniWagner, ValidatesInput) {
  nn::Classifier& c = trained_classifier();
  attack::CarliniWagner cw{attack::AttackConfig{}};
  Rng arng(315);
  EXPECT_THROW(cw.perturb(c, Tensor({2, 3, 8, 8}), {0}, arng),
               std::invalid_argument);
  EXPECT_THROW(cw.perturb(c, Tensor({1, 3, 8, 8}), {7}, arng),
               std::invalid_argument);
  EXPECT_THROW(cw.perturb(c, Tensor({3, 8, 8}), {0}, arng),
               std::invalid_argument);
}

TEST(SoftTargetLoss, MatchesHardLossAtOneHot) {
  Rng rng(306);
  Tensor logits({3, 4});
  testing::fill_uniform(logits, rng, -2.0f, 2.0f);
  const std::vector<std::int64_t> labels = {1, 3, 0};
  nn::SoftmaxCrossEntropy hard;
  const float hard_loss = hard.forward(logits, labels);
  Tensor onehot({3, 4}, 0.0f);
  for (std::int64_t i = 0; i < 3; ++i) onehot.at(i, labels[static_cast<std::size_t>(i)]) = 1.0f;
  nn::SoftTargetCrossEntropy soft;
  EXPECT_NEAR(soft.forward(logits, onehot, 1.0f), hard_loss, 1e-5f);
  testing::expect_tensor_near(soft.backward(), hard.backward(), 1e-6f, "soft vs hard");
}

TEST(SoftTargetLoss, GradientMatchesFiniteDifference) {
  Rng rng(307);
  Tensor logits({2, 3});
  testing::fill_uniform(logits, rng, -1.0f, 1.0f);
  Tensor targets({2, 3}, std::vector<float>{0.2f, 0.5f, 0.3f, 0.6f, 0.1f, 0.3f});
  const float temperature = 5.0f;
  nn::SoftTargetCrossEntropy loss;
  loss.forward(logits, targets, temperature);
  const Tensor g = loss.backward();
  const float h = 1e-3f;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    Tensor up = logits, down = logits;
    up[i] += h;
    down[i] -= h;
    nn::SoftTargetCrossEntropy l2;
    const float numeric =
        (l2.forward(up, targets, temperature) - l2.forward(down, targets, temperature)) /
        (2 * h);
    EXPECT_NEAR(g[i], numeric, 1e-3f);
  }
}

TEST(SoftTargetLoss, Validation) {
  nn::SoftTargetCrossEntropy loss;
  EXPECT_THROW(loss.forward(Tensor({2, 3}), Tensor({2, 4})), std::invalid_argument);
  EXPECT_THROW(loss.forward(Tensor({2, 3}), Tensor({2, 3}), 0.0f),
               std::invalid_argument);
  nn::SoftTargetCrossEntropy fresh;
  EXPECT_THROW(fresh.backward(), std::logic_error);
}

TEST(Distillation, StudentLearnsTask) {
  Rng rng(308);
  Tensor images;
  std::vector<std::int64_t> labels;
  make_task(images, labels, 90, rng);
  attack::DistillationConfig cfg;
  cfg.temperature = 5.0f;
  cfg.teacher_epochs = 15;
  cfg.student_epochs = 15;
  cfg.sgd.learning_rate = 0.1f;
  nn::Classifier student = attack::distill(tiny_config(), images, labels, cfg, rng);
  EXPECT_GT(student.evaluate_accuracy(images, labels), 0.8);
}

TEST(Distillation, StudentLogitsAreSharper) {
  // Deployed at T = 1, the distilled student's logits carry the training
  // temperature: its max softmax probability is pushed toward 1, which is
  // the gradient-masking mechanism of the defense.
  Rng rng(309);
  Tensor images;
  std::vector<std::int64_t> labels;
  make_task(images, labels, 90, rng);
  attack::DistillationConfig cfg;
  cfg.temperature = 5.0f;
  cfg.teacher_epochs = 15;
  cfg.student_epochs = 15;
  cfg.sgd.learning_rate = 0.1f;
  nn::Classifier student = attack::distill(tiny_config(), images, labels, cfg, rng);

  nn::Classifier standard(tiny_config(), rng);
  nn::SgdConfig sgd;
  sgd.learning_rate = 0.05f;
  standard.fit(images, labels, 6, 16, sgd, rng, false);

  auto mean_max_prob = [&](nn::Classifier& m) {
    const Tensor p = m.probabilities(images);
    double acc = 0.0;
    for (std::int64_t i = 0; i < p.dim(0); ++i) {
      float mx = 0.0f;
      for (std::int64_t j = 0; j < p.dim(1); ++j) mx = std::max(mx, p.at(i, j));
      acc += mx;
    }
    return acc / static_cast<double>(p.dim(0));
  };
  EXPECT_GT(mean_max_prob(student), mean_max_prob(standard) - 0.05);
}

TEST(Distillation, Validation) {
  Rng rng(310);
  Tensor images;
  std::vector<std::int64_t> labels;
  make_task(images, labels, 12, rng);
  attack::DistillationConfig cfg;
  cfg.temperature = -1.0f;
  EXPECT_THROW(attack::distill(tiny_config(), images, labels, cfg, rng),
               std::invalid_argument);
  cfg = {};
  labels.pop_back();
  EXPECT_THROW(attack::distill(tiny_config(), images, labels, cfg, rng),
               std::invalid_argument);
}

TEST(LogitsInputGradient, AgreesWithCrossEntropyPath) {
  // The CE input gradient must equal the input_gradient pullback of the
  // per-image CE logit gradient — ties the two Classifier APIs together.
  nn::Classifier& c = trained_classifier();
  Rng rng(311);
  Tensor x({2, 3, 8, 8});
  testing::fill_uniform(x, rng, 0.2f, 0.8f);
  const std::vector<std::int64_t> labels = {0, 2};
  const Tensor g_ce = c.loss_input_gradient(x, labels);

  // Softmax-CE logit gradient by hand (per-image, not averaged).
  const Tensor g_pullback = c.input_gradient(
      x, c.network().size(), [&](const Tensor& logits, std::int64_t begin) {
        Tensor cot = ops::softmax_rows(logits);
        for (std::int64_t b = 0; b < cot.dim(0); ++b) {
          cot.at(b, labels[static_cast<std::size_t>(begin + b)]) -= 1.0f;
        }
        return cot;
      });
  testing::expect_tensor_near(g_ce, g_pullback, 1e-4f, "CE vs pullback");
}

TEST(CarliniWagner, OneForwardPerIteration) {
  // Each C&W iteration is one forward + backward pass: the margin cotangent
  // comes from the pullback's own logits, not from a second forward.
  cost::enable();
  nn::Classifier& c = trained_classifier();
  Rng rng(312);
  Tensor x({4, 3, 8, 8});
  testing::fill_uniform(x, rng, 0.2f, 0.8f);
  const std::vector<std::int64_t> targets = {1, 2, 0, 1};

  double before = cost::totals(cost::Kernel::kGemm).flops;
  c.loss_input_gradient(x, targets);
  const double one_pass = cost::totals(cost::Kernel::kGemm).flops - before;
  ASSERT_GT(one_pass, 0.0);

  attack::AttackConfig cfg;
  cfg.iterations = 2;
  cfg.params["binary_search_steps"] = 1.0f;
  attack::CarliniWagner cw(cfg);
  Rng arng(313);
  before = cost::totals(cost::Kernel::kGemm).flops;
  cw.perturb(c, x, targets, arng);
  EXPECT_EQ(cost::totals(cost::Kernel::kGemm).flops - before, 2.0 * one_pass);
}

}  // namespace
}  // namespace taamr
