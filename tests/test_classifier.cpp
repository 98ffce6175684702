#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "nn/classifier.hpp"
#include "nn/linear.hpp"
#include "tensor/cost.hpp"
#include "test_helpers.hpp"

namespace taamr {
namespace {

nn::MiniResNetConfig tiny_config(std::int64_t classes = 3) {
  nn::MiniResNetConfig cfg;
  cfg.image_size = 8;
  cfg.base_width = 4;
  cfg.blocks_per_stage = 1;
  cfg.num_classes = classes;
  return cfg;
}

// Trivially separable synthetic task: class k images have channel mean
// biased by k.
void make_task(Tensor& images, std::vector<std::int64_t>& labels, std::int64_t n,
               std::int64_t classes, Rng& rng) {
  images = Tensor({n, 3, 8, 8});
  labels.resize(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t label = i % classes;
    labels[static_cast<std::size_t>(i)] = label;
    const float base = 0.2f + 0.3f * static_cast<float>(label);
    for (std::int64_t j = 0; j < 3 * 64; ++j) {
      images[i * 3 * 64 + j] = base + rng.gaussian_f(0.0f, 0.05f);
    }
  }
}

TEST(MiniResNet, ConfigValidation) {
  nn::MiniResNetConfig bad = tiny_config();
  bad.image_size = 10;  // not a multiple of 4
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = tiny_config();
  bad.num_classes = 1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  EXPECT_NO_THROW(tiny_config().validate());
}

TEST(MiniResNet, FeatureDimIsFourTimesBaseWidth) {
  EXPECT_EQ(tiny_config().feature_dim(), 16);
}

TEST(Classifier, ShapesAndParameterCount) {
  Rng rng(81);
  nn::Classifier c(tiny_config(), rng);
  EXPECT_EQ(c.num_classes(), 3);
  EXPECT_EQ(c.feature_dim(), 16);
  EXPECT_GT(c.parameter_count(), 1000);
  Tensor x({2, 3, 8, 8});
  testing::fill_uniform(x, rng, 0.0f, 1.0f);
  EXPECT_EQ(c.logits(x).shape(), (Shape{2, 3}));
  EXPECT_EQ(c.features(x).shape(), (Shape{2, 16}));
  EXPECT_EQ(c.probabilities(x).shape(), (Shape{2, 3}));
  EXPECT_EQ(c.predict(x).size(), 2u);
}

TEST(Classifier, ProbabilitiesAreDistributions) {
  Rng rng(82);
  nn::Classifier c(tiny_config(), rng);
  Tensor x({3, 3, 8, 8});
  testing::fill_uniform(x, rng, 0.0f, 1.0f);
  const Tensor p = c.probabilities(x);
  for (std::int64_t i = 0; i < 3; ++i) {
    float row = 0.0f;
    for (std::int64_t j = 0; j < 3; ++j) {
      EXPECT_GE(p.at(i, j), 0.0f);
      row += p.at(i, j);
    }
    EXPECT_NEAR(row, 1.0f, 1e-4f);
  }
}

TEST(Classifier, TrainingLearnsSeparableTask) {
  Rng rng(83);
  nn::Classifier c(tiny_config(), rng);
  Tensor images;
  std::vector<std::int64_t> labels;
  make_task(images, labels, 90, 3, rng);
  const double before = c.evaluate_accuracy(images, labels);
  nn::SgdConfig sgd;
  sgd.learning_rate = 0.05f;
  c.fit(images, labels, /*epochs=*/6, /*batch_size=*/16, sgd, rng, /*verbose=*/false);
  const double after = c.evaluate_accuracy(images, labels);
  EXPECT_GT(after, 0.9);
  EXPECT_GT(after, before);
}

TEST(Classifier, FeaturesAreTheGapLayer) {
  Rng rng(84);
  nn::Classifier c(tiny_config(), rng);
  Tensor x({1, 3, 8, 8});
  testing::fill_uniform(x, rng, 0.0f, 1.0f);
  const Tensor f = c.features(x);
  const Tensor logits = c.logits(x);
  // Head is the last layer (Linear): logits == features * W^T + b.
  auto& head = dynamic_cast<nn::Linear&>(c.network().layer(c.network().size() - 1));
  Tensor manual({1, c.num_classes()});
  for (std::int64_t j = 0; j < c.num_classes(); ++j) {
    float acc = head.bias().value[j];
    for (std::int64_t d = 0; d < c.feature_dim(); ++d) {
      acc += head.weight().value.at(j, d) * f.at(0, d);
    }
    manual.at(0, j) = acc;
  }
  testing::expect_tensor_near(logits, manual, 1e-4f, "head consistency");
}

TEST(Classifier, InputGradientMatchesFiniteDifference) {
  Rng rng(85);
  nn::Classifier c(tiny_config(), rng);
  Tensor x({1, 3, 8, 8});
  testing::fill_uniform(x, rng, 0.2f, 0.8f);
  const std::vector<std::int64_t> labels = {1};
  float loss0 = 0.0f;
  const Tensor g = c.loss_input_gradient(x, labels, &loss0);
  ASSERT_EQ(g.shape(), x.shape());

  // Spot-check a handful of coordinates (full check would be slow).
  Rng pick(86);
  const float h = 1e-3f;
  for (int trial = 0; trial < 10; ++trial) {
    const std::int64_t i = static_cast<std::int64_t>(pick.index(
        static_cast<std::size_t>(x.numel())));
    Tensor up = x, down = x;
    up[i] += h;
    down[i] -= h;
    float lu = 0.0f, ld = 0.0f;
    c.loss_input_gradient(up, labels, &lu);
    c.loss_input_gradient(down, labels, &ld);
    const float numeric = (lu - ld) / (2.0f * h);
    EXPECT_NEAR(g[i], numeric, 5e-2f) << "coordinate " << i;
  }
}

TEST(Classifier, InputGradientIndependentOfBatching) {
  // The per-image gradient must not depend on which batch the image sits
  // in (attack steps would otherwise change with batching).
  Rng rng(87);
  nn::Classifier c(tiny_config(), rng);
  Tensor x({3, 3, 8, 8});
  testing::fill_uniform(x, rng, 0.0f, 1.0f);
  const std::vector<std::int64_t> labels = {0, 1, 2};
  const Tensor g_all = c.loss_input_gradient(x, labels);
  const Tensor x0 = nn::slice_rows(x, 0, 1);
  const Tensor g0 = c.loss_input_gradient(x0, {0});
  for (std::int64_t i = 0; i < g0.numel(); ++i) {
    ASSERT_NEAR(g_all[i], g0[i], 1e-4f);
  }
}

TEST(Classifier, InputGradientAcrossChunkBoundary) {
  // N = 70 runs as chunks of 64 + 6; the second chunk's gradient rows must be
  // bit for bit those of a call on its 6 images alone, for both the loss and
  // the feature cotangent.
  Rng rng(91);
  nn::Classifier c(tiny_config(), rng);
  Tensor x({70, 3, 8, 8});
  testing::fill_uniform(x, rng, 0.0f, 1.0f);
  std::vector<std::int64_t> labels(70);
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = static_cast<std::int64_t>(i % 3);
  Tensor targets({70, c.feature_dim()});
  testing::fill_uniform(targets, rng, -1.0f, 1.0f);

  const Tensor tail = nn::slice_rows(x, 64, 70);
  const std::vector<std::int64_t> tail_labels(labels.begin() + 64, labels.end());
  const std::size_t tail_bytes = static_cast<std::size_t>(tail.numel()) * sizeof(float);
  const std::int64_t tail_offset = 64 * (x.numel() / 70);

  const Tensor g_loss = c.loss_input_gradient(x, labels);
  const Tensor g_loss_tail = c.loss_input_gradient(tail, tail_labels);
  EXPECT_EQ(std::memcmp(g_loss.data() + tail_offset, g_loss_tail.data(), tail_bytes), 0);

  const Tensor g_feat = c.feature_input_gradient(x, targets);
  const Tensor g_feat_tail = c.feature_input_gradient(tail, nn::slice_rows(targets, 64, 70));
  EXPECT_EQ(std::memcmp(g_feat.data() + tail_offset, g_feat_tail.data(), tail_bytes), 0);
}

TEST(Classifier, LossInputGradientBooksOneGemmPerForwardGemm) {
  // The input-only backward runs only dx = W^T g for every forward GEMM (no
  // dW), so a loss gradient books exactly twice the GEMM flops of logits.
  cost::enable();
  Rng rng(95);
  nn::Classifier c(tiny_config(), rng);
  Tensor x({4, 3, 8, 8});
  testing::fill_uniform(x, rng, 0.0f, 1.0f);

  double before = cost::totals(cost::Kernel::kGemm).flops;
  c.logits(x);
  const double forward = cost::totals(cost::Kernel::kGemm).flops - before;
  ASSERT_GT(forward, 0.0);
  before = cost::totals(cost::Kernel::kGemm).flops;
  c.loss_input_gradient(x, {0, 1, 2, 0});
  EXPECT_EQ(cost::totals(cost::Kernel::kGemm).flops - before, 2.0 * forward);
}

TEST(Classifier, InputGradientsLeaveParamGradsUntouched) {
  Rng rng(96);
  nn::Classifier c(tiny_config(), rng);
  std::vector<Tensor> grads;
  for (nn::Param* p : c.network().params()) {
    testing::fill_uniform(p->grad, rng);
    grads.push_back(p->grad);
  }
  Tensor x({3, 3, 8, 8});
  testing::fill_uniform(x, rng, 0.0f, 1.0f);
  Tensor targets({3, c.feature_dim()});
  testing::fill_uniform(targets, rng);
  c.loss_input_gradient(x, {0, 1, 2});
  c.feature_input_gradient(x, targets);

  const std::vector<nn::Param*> params = c.network().params();
  for (std::size_t i = 0; i < params.size(); ++i) {
    const std::size_t bytes = static_cast<std::size_t>(grads[i].numel()) * sizeof(float);
    EXPECT_EQ(std::memcmp(params[i]->grad.data(), grads[i].data(), bytes), 0)
        << "param " << i << " (" << params[i]->name << ")";
  }
}

TEST(Classifier, ThrowingCotangentLeavesFullBackward) {
  // A cotangent that throws must not leave the network in input-only mode:
  // training afterwards must move the parameters exactly as it moves those
  // of a clone that never saw the throw.
  Rng rng(97);
  nn::Classifier c(tiny_config(), rng);
  nn::Classifier twin = c.clone();
  Tensor images;
  std::vector<std::int64_t> labels;
  make_task(images, labels, 12, 3, rng);

  EXPECT_THROW(c.input_gradient(images, c.feature_end(),
                                [](const Tensor&, std::int64_t) -> Tensor {
                                  throw std::runtime_error("cotangent");
                                }),
               std::runtime_error);

  nn::Sgd opt(nn::SgdConfig{}), twin_opt(nn::SgdConfig{});
  Rng order(98), twin_order(98);
  c.train_epoch(images, labels, 4, opt, order);
  twin.train_epoch(images, labels, 4, twin_opt, twin_order);

  const std::vector<nn::Param*> params = c.network().params();
  const std::vector<nn::Param*> twin_params = twin.network().params();
  ASSERT_EQ(params.size(), twin_params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const std::size_t bytes = static_cast<std::size_t>(params[i]->value.numel()) * sizeof(float);
    EXPECT_EQ(std::memcmp(params[i]->value.data(), twin_params[i]->value.data(), bytes), 0)
        << "param " << i << " (" << params[i]->name << ")";
  }
}

TEST(TrainingHelpers, StepDecayAndShuffledGather) {
  EXPECT_EQ(nn::step_decay_lr(0.5f, 0, 20), 0.5f);
  EXPECT_EQ(nn::step_decay_lr(0.5f, 11, 20), 0.5f);
  EXPECT_EQ(nn::step_decay_lr(0.5f, 12, 20), 0.5f * 0.1f);
  EXPECT_EQ(nn::step_decay_lr(0.5f, 17, 20), 0.5f * 0.01f);

  Rng rng(92);
  const std::vector<std::int64_t> order = nn::shuffled_order(5, rng);
  std::vector<std::int64_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::int64_t>{0, 1, 2, 3, 4}));

  Tensor t({5, 2}, std::vector<float>{0, 1, 10, 11, 20, 21, 30, 31, 40, 41});
  const Tensor g = nn::gather_rows(t, order, 1, 4);
  ASSERT_EQ(g.shape(), (Shape{3, 2}));
  for (std::int64_t b = 0; b < 3; ++b) {
    const float row = static_cast<float>(order[static_cast<std::size_t>(b + 1)]);
    EXPECT_EQ(g.at(b, 0), 10.0f * row);
    EXPECT_EQ(g.at(b, 1), 10.0f * row + 1.0f);
  }
}

TEST(Classifier, CloneProducesIdenticalOutputs) {
  Rng rng(88);
  nn::Classifier c(tiny_config(), rng);
  nn::Classifier copy = c.clone();
  Tensor x({2, 3, 8, 8});
  testing::fill_uniform(x, rng, 0.0f, 1.0f);
  testing::expect_tensor_near(c.logits(x), copy.logits(x), 1e-6f, "clone");
}

TEST(Classifier, EvaluateAccuracyBounds) {
  Rng rng(89);
  nn::Classifier c(tiny_config(), rng);
  Tensor x({6, 3, 8, 8});
  testing::fill_uniform(x, rng, 0.0f, 1.0f);
  const double acc = c.evaluate_accuracy(x, {0, 1, 2, 0, 1, 2});
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

TEST(Classifier, RejectsBadInputs) {
  Rng rng(90);
  nn::Classifier c(tiny_config(), rng);
  EXPECT_THROW(c.loss_input_gradient(Tensor({1, 3, 8, 8}), {0, 1}),
               std::invalid_argument);
  EXPECT_THROW(c.loss_input_gradient(Tensor({3, 8, 8}), {0}), std::invalid_argument);
}

TEST(SliceRows, ExtractsContiguousRows) {
  Tensor t({3, 2}, std::vector<float>{1, 2, 3, 4, 5, 6});
  const Tensor s = nn::slice_rows(t, 1, 3);
  ASSERT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_EQ(s.at(0, 0), 3.0f);
  EXPECT_EQ(s.at(1, 1), 6.0f);
  EXPECT_THROW(nn::slice_rows(t, 2, 2), std::invalid_argument);
  EXPECT_THROW(nn::slice_rows(t, 0, 4), std::invalid_argument);
}

}  // namespace
}  // namespace taamr
