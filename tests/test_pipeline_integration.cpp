#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "data/categories.hpp"
#include "metrics/chr.hpp"
#include "metrics/image_quality.hpp"
#include "recsys/ranker.hpp"
#include "tensor/cost.hpp"
#include "tensor/ops.hpp"

namespace taamr {
namespace {

// Micro-scale pipeline configuration: everything runs, nothing is big.
core::PipelineConfig micro_config(const std::string& dataset = "Amazon Men") {
  core::PipelineConfig cfg;
  cfg.dataset_name = dataset;
  cfg.scale = data::kTestScale;
  cfg.seed = 7;
  cfg.image_size = 16;
  cfg.cnn_base_width = 6;
  cfg.cnn_blocks_per_stage = 1;
  cfg.cnn_epochs = 18;
  cfg.cnn_images_per_category = 14;
  cfg.cnn_batch_size = 16;
  cfg.vbpr.epochs = 25;
  cfg.amr_warm_epochs = 12;
  cfg.amr_adversarial_epochs = 12;
  cfg.top_n = 20;
  return cfg;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  const std::size_t bytes = static_cast<std::size_t>(a.numel()) * sizeof(float);
  return a.shape() == b.shape() && std::memcmp(a.data(), b.data(), bytes) == 0;
}

// Shared prepared pipeline (CNN training is the expensive part).
core::Pipeline& shared_pipeline() {
  static core::Pipeline pipeline = [] {
    core::Pipeline p(micro_config());
    p.prepare();
    return p;
  }();
  return pipeline;
}

TEST(PipelineIntegration, PrepareProducesConsistentArtifacts) {
  core::Pipeline& p = shared_pipeline();
  EXPECT_EQ(p.dataset().name, "Amazon Men");
  EXPECT_EQ(p.catalog().num_items(), p.dataset().num_items);
  EXPECT_EQ(p.clean_features().dim(0), p.dataset().num_items);
  EXPECT_EQ(p.clean_features().dim(1), p.classifier().feature_dim());
  // The CNN must have learned the taxonomy reasonably well even at micro
  // scale — the procedural categories are separable.
  EXPECT_GT(p.classifier_accuracy(), 0.6);
}

TEST(PipelineIntegration, FeaturesSeparateCategories) {
  core::Pipeline& p = shared_pipeline();
  const auto& ds = p.dataset();
  const Tensor& f = p.clean_features();
  const std::int64_t d = f.dim(1);
  // Mean within-category feature distance < mean cross-category distance.
  const auto socks = ds.items_of_category(data::kSock);
  const auto clocks = ds.items_of_category(data::kAnalogClock);
  ASSERT_GE(socks.size(), 2u);
  ASSERT_GE(clocks.size(), 1u);
  auto row_dist = [&](std::int32_t a, std::int32_t b) {
    double acc = 0.0;
    for (std::int64_t j = 0; j < d; ++j) {
      const double diff = f.at(a, j) - f.at(b, j);
      acc += diff * diff;
    }
    return acc;
  };
  EXPECT_LT(row_dist(socks[0], socks[1]), row_dist(socks[0], clocks[0]));
}

TEST(PipelineIntegration, AttackCategoryRespectsThreatModel) {
  core::Pipeline& p = shared_pipeline();
  const auto batch = p.attack_category(data::kSock, data::kRunningShoe,
                                       "pgd", 8.0f);
  EXPECT_FALSE(batch.items.empty());
  EXPECT_EQ(batch.clean_images.shape(), batch.attacked_images.shape());
  EXPECT_LE(ops::linf_distance(batch.attacked_images, batch.clean_images),
            8.0f / 255.0f + 1e-5f);
  EXPECT_GE(ops::min(batch.attacked_images), 0.0f);
  EXPECT_LE(ops::max(batch.attacked_images), 1.0f);
  for (std::int32_t item : batch.items) {
    EXPECT_EQ(p.dataset().item_category[static_cast<std::size_t>(item)], data::kSock);
  }
}

TEST(PipelineIntegration, FeaturesWithAttackOnlyChangesAttackedRows) {
  core::Pipeline& p = shared_pipeline();
  const auto batch = p.attack_category(data::kSock, data::kRunningShoe,
                                       "fgsm", 8.0f);
  const Tensor merged = p.features_with_attack(batch.items, batch.attacked_images);
  ASSERT_EQ(merged.shape(), p.clean_features().shape());
  const std::int64_t d = merged.dim(1);
  std::set<std::int32_t> attacked(batch.items.begin(), batch.items.end());
  for (std::int64_t i = 0; i < merged.dim(0); ++i) {
    double diff = 0.0;
    for (std::int64_t j = 0; j < d; ++j) {
      diff += std::abs(merged.at(i, j) - p.clean_features().at(i, j));
    }
    if (attacked.count(static_cast<std::int32_t>(i))) {
      EXPECT_GT(diff, 0.0) << "attacked item " << i << " kept clean features";
    } else {
      EXPECT_EQ(diff, 0.0) << "clean item " << i << " was modified";
    }
  }
}

TEST(PipelineIntegration, VbprAttackShiftsSourceCategoryChr) {
  core::Pipeline& p = shared_pipeline();
  auto vbpr = p.train_vbpr();
  const auto& ds = p.dataset();
  const std::int64_t top_n = 20;

  const auto lists_before = recsys::top_n_lists(*vbpr, ds, top_n);
  const double chr_before =
      metrics::category_hit_ratio(lists_before, ds, data::kSock, top_n);

  const auto batch = p.attack_category(data::kSock, data::kRunningShoe,
                                       "pgd", 16.0f);
  vbpr->set_item_features(p.features_with_attack(batch.items, batch.attacked_images));
  const auto lists_after = recsys::top_n_lists(*vbpr, ds, top_n);
  const double chr_after =
      metrics::category_hit_ratio(lists_after, ds, data::kSock, top_n);
  vbpr->set_item_features(p.clean_features());

  // The attack must move the metric; at micro scale we only assert change,
  // the directional claim is asserted by the bench-scale experiments.
  EXPECT_NE(chr_before, chr_after);
}

// One (source, target, attack, epsilon) cell gets the same PGD start
// whatever the pipeline ran before it: `taamr attack` and the table grid
// must agree on a cell.
TEST(PipelineIntegration, AttackDoesNotDependOnEarlierStages) {
  core::PipelineConfig cfg = micro_config();
  cfg.cnn_epochs = 2;
  cfg.vbpr.epochs = 2;
  cfg.amr_warm_epochs = 1;
  cfg.amr_adversarial_epochs = 1;
  core::Pipeline p(cfg);
  p.prepare();
  const auto first = p.attack_category(data::kSock, data::kRunningShoe, "pgd", 8.0f);
  p.train_vbpr();
  p.train_amr();
  p.attack_category(data::kSock, data::kAnalogClock, "pgd", 8.0f);
  const auto again = p.attack_category(data::kSock, data::kRunningShoe, "pgd", 8.0f);
  EXPECT_TRUE(same_bits(first.attacked_images, again.attacked_images));
}

// AMR on a fresh pipeline gets the same init as the grid's AMR, which is
// trained after VBPR: its score_users rows must match bit for bit.
TEST(PipelineIntegration, TrainingDoesNotDependOnEarlierStages) {
  core::PipelineConfig cfg = micro_config();
  cfg.cnn_epochs = 2;
  cfg.vbpr.epochs = 2;
  cfg.amr_warm_epochs = 1;
  cfg.amr_adversarial_epochs = 1;
  core::Pipeline p(cfg);
  p.prepare();
  const auto rows = [&p](const recsys::Recommender& model) {
    std::vector<std::int64_t> users(static_cast<std::size_t>(p.dataset().num_users));
    for (std::size_t u = 0; u < users.size(); ++u) users[u] = static_cast<std::int64_t>(u);
    std::vector<float> out(users.size() * static_cast<std::size_t>(p.dataset().num_items));
    model.score_users(users, out);
    return out;
  };
  const std::vector<float> fresh = rows(*p.train_amr());
  p.train_vbpr();
  const std::vector<float> after_vbpr = rows(*p.train_amr());
  ASSERT_EQ(fresh.size(), after_vbpr.size());
  EXPECT_EQ(std::memcmp(fresh.data(), after_vbpr.data(), fresh.size() * sizeof(float)), 0);
}

// An image's features do not depend on the batch they are extracted in:
// every category's gathered images give exactly its clean_features() rows,
// and their logits are the head of those rows. The attack measurement takes
// its clean side from these rows instead of a second CNN pass.
TEST(AttackTail, GatheredFeaturesAreCleanFeatureRows) {
  core::Pipeline& p = shared_pipeline();
  const auto& ds = p.dataset();
  const Tensor& clean = p.clean_features();
  const std::int64_t d = clean.dim(1);
  for (std::int32_t c = 0; c < data::num_categories(); ++c) {
    const auto items = ds.items_of_category(c);
    if (items.empty()) continue;
    const Tensor images = data::gather_images(p.catalog(), items);
    const Tensor f = p.classifier().features(images);
    for (std::size_t b = 0; b < items.size(); ++b) {
      EXPECT_EQ(std::memcmp(f.data() + static_cast<std::int64_t>(b) * d,
                            clean.data() + items[b] * d, static_cast<std::size_t>(d) * sizeof(float)),
                0)
          << "category " << c << " item " << items[b];
    }
    const std::vector<std::int64_t> rows(items.begin(), items.end());
    const Tensor head = p.classifier().head(
        nn::gather_rows(clean, rows, 0, static_cast<std::int64_t>(rows.size())));
    EXPECT_TRUE(same_bits(p.classifier().logits(images), head)) << "category " << c;
  }
}

// One measurement is one features pass plus the head (the separate calls
// run four CNN passes between them), and it reports bit for bit what the
// separate success / visual-quality / re-extraction calls report.
TEST(AttackTail, MeasureAttackIsOnePassWithTheSameNumbers) {
  cost::enable();
  core::Pipeline& p = shared_pipeline();
  const auto batch = p.attack_category(data::kSock, data::kRunningShoe, "pgd", 8.0f);
  double before = cost::totals(cost::Kernel::kGemm).flops;
  p.classifier().logits(batch.attacked_images);
  const double one_pass = cost::totals(cost::Kernel::kGemm).flops - before;
  ASSERT_GT(one_pass, 0.0);
  before = cost::totals(cost::Kernel::kGemm).flops;
  const auto m = p.measure_attack(batch.items, batch.attacked_images, data::kRunningShoe);
  EXPECT_EQ(cost::totals(cost::Kernel::kGemm).flops - before, one_pass);

  const auto success =
      metrics::attack_success(p.classifier(), batch.attacked_images, data::kRunningShoe);
  EXPECT_EQ(m.success.num_images, success.num_images);
  EXPECT_EQ(m.success.success_rate, success.success_rate);
  EXPECT_EQ(m.success.mean_target_prob, success.mean_target_prob);
  const auto visual = metrics::average_visual_quality(p.classifier(), batch.clean_images,
                                                      batch.attacked_images);
  EXPECT_EQ(m.visual.psnr, visual.psnr);
  EXPECT_EQ(m.visual.ssim, visual.ssim);
  EXPECT_EQ(m.visual.psm, visual.psm);
  EXPECT_GT(m.visual.psm, 0.0);
  EXPECT_TRUE(same_bits(p.merged_features(batch.items, m.attacked_features),
                        p.features_with_attack(batch.items, batch.attacked_images)));

  const Tensor one = nn::slice_rows(batch.attacked_images, 0, 1);
  EXPECT_THROW(p.measure_attack({-1}, one, data::kRunningShoe), std::invalid_argument);
  EXPECT_THROW(p.measure_attack({0, 1}, one, data::kRunningShoe), std::invalid_argument);
}

// The cells' re-rank scores only the attacked items and merges them into a
// clean ranking at depth N + m: element for element the lists of a full
// re-rank after set_item_features, for both models at every epsilon. Some
// users trained on source items, so the merge's masking is exercised.
TEST(AttackTail, ListsUnderAttackEqualFullRerank) {
  core::Pipeline& p = shared_pipeline();
  const auto& ds = p.dataset();
  const std::int64_t n = 20;
  const auto items = ds.items_of_category(data::kSock);
  const std::int64_t m = static_cast<std::int64_t>(items.size());
  bool trained_on_source = false;
  for (const auto& train : ds.train) {
    for (const std::int32_t item : train) {
      trained_on_source |= ds.item_category[static_cast<std::size_t>(item)] == data::kSock;
    }
  }
  ASSERT_TRUE(trained_on_source);

  std::vector<std::pair<std::string, Tensor>> attacked;  // (cell, attacked images)
  for (const std::string attack : {"fgsm", "pgd"}) {
    for (const float eps : {2.0f, 4.0f, 8.0f, 16.0f}) {
      attacked.emplace_back(attack + " eps " + std::to_string(eps),
                            p.attack_category(data::kSock, data::kRunningShoe, attack, eps)
                                .attacked_images);
    }
  }
  const auto vbpr = p.train_vbpr();
  const auto amr = p.train_amr();
  std::size_t moved = 0;
  for (recsys::Vbpr* model : {vbpr.get(), static_cast<recsys::Vbpr*>(amr.get())}) {
    const recsys::Ranking clean = recsys::rank_all_users(*model, ds, n + m);
    const auto clean_lists = recsys::item_lists(clean, n);
    EXPECT_EQ(clean_lists, recsys::top_n_lists(*model, ds, n));
    for (const auto& [cell, images] : attacked) {
      const auto lists = p.lists_under_attack(*model, clean, items,
                                              p.classifier().features(images), n);
      model->set_item_features(p.features_with_attack(items, images));
      const auto full = recsys::top_n_lists(*model, ds, n);
      model->set_item_features(p.clean_features());
      EXPECT_EQ(lists, full) << model->name() << " " << cell;
      moved += lists != clean_lists;
    }
    EXPECT_THROW(p.lists_under_attack(*model, recsys::rank_all_users(*model, ds, n + m - 1),
                                      items, p.classifier().features(attacked[0].second), n),
                 std::invalid_argument);
  }
  EXPECT_GT(moved, 0u);
}

TEST(PipelineIntegration, PrepareIsIdempotent) {
  core::Pipeline& p = shared_pipeline();
  const Tensor before = p.clean_features();
  p.prepare();
  EXPECT_EQ(ops::linf_distance(before, p.clean_features()), 0.0f);
}

TEST(PipelineIntegration, StagesRequirePrepare) {
  core::Pipeline fresh(micro_config());
  EXPECT_THROW(fresh.dataset(), std::logic_error);
  EXPECT_THROW(fresh.train_vbpr(), std::logic_error);
  EXPECT_THROW(fresh.attack_category(0, 1, "fgsm", 8.0f),
               std::logic_error);
}

TEST(ExperimentIntegration, FullGridProducesAllCells) {
  core::ExperimentConfig cfg;
  cfg.pipeline = micro_config();
  cfg.eps_grid_255 = {4.0f, 16.0f};  // reduced grid keeps the test fast
  const auto results = core::run_dataset_experiment(cfg);

  // 2 models x 2 scenarios x 2 attacks x 2 eps = 16 cells.
  EXPECT_EQ(results.cells.size(), 16u);
  EXPECT_EQ(results.dataset, "Amazon Men");
  EXPECT_GT(results.vbpr_auc, 0.55);
  EXPECT_GT(results.amr_auc, 0.55);
  EXPECT_EQ(results.vbpr_baseline_chr.size(), 16u);

  for (const auto& cell : results.cells) {
    EXPECT_GE(cell.success_rate, 0.0);
    EXPECT_LE(cell.success_rate, 1.0);
    EXPECT_GT(cell.psnr, 20.0);
    EXPECT_GT(cell.ssim, 0.5);
    EXPECT_GE(cell.psm, 0.0);
    EXPECT_GE(cell.chr_after_source, 0.0);
    EXPECT_LE(cell.chr_after_source, 1.0);
  }

  // Fig. 2 example filled in.
  EXPECT_GE(results.fig2.item, 0);
  EXPECT_GT(results.fig2.target_prob_after, 0.0);

  // Results (de)serialization roundtrip.
  const std::string path =
      (std::filesystem::temp_directory_path() / "taamr_results_test.bin").string();
  core::save_results(path, results);
  const auto restored = core::load_results(path);
  EXPECT_EQ(restored.cells.size(), results.cells.size());
  EXPECT_EQ(restored.dataset, results.dataset);
  EXPECT_NEAR(restored.vbpr_auc, results.vbpr_auc, 1e-5);
  EXPECT_NEAR(restored.cells[3].chr_after_source, results.cells[3].chr_after_source,
              1e-5);
  EXPECT_EQ(restored.fig2.item, results.fig2.item);
  EXPECT_TRUE(same_bits(restored.fig2.clean, results.fig2.clean));
  EXPECT_TRUE(same_bits(restored.fig2.attacked, results.fig2.attacked));
  std::remove(path.c_str());

  // Fig. 2's images are the ones its numbers were measured on.
  ASSERT_EQ(results.fig2.clean.shape(), (Shape{3, 16, 16}));
  EXPECT_EQ(metrics::psnr(results.fig2.clean, results.fig2.attacked), results.fig2.psnr);
  EXPECT_EQ(static_cast<float>(metrics::psnr(restored.fig2.clean, restored.fig2.attacked)),
            static_cast<float>(restored.fig2.psnr));

  // Report rendering over real results.
  EXPECT_GT(core::table2_chr(results).num_rows(), 4u);
  EXPECT_GT(core::table3_success(results).num_rows(), 2u);
  EXPECT_GT(core::table4_visual(results).num_rows(), 3u);
  EXPECT_FALSE(core::fig2_text(results).empty());
}

// A fixed seed gives the same results whether the CNN checkpoint is trained
// (cold cache) or loaded (warm cache).
TEST(ExperimentIntegration, ColdAndWarmCacheRunsAgree) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "taamr_cold_warm_test";
  std::filesystem::remove_all(dir);
  core::ExperimentConfig cfg;
  cfg.pipeline = micro_config();
  cfg.pipeline.cache_dir = dir.string();
  cfg.attacks = {"fgsm"};
  cfg.eps_grid_255 = {8.0f};
  const auto cold = core::run_dataset_experiment(cfg);
  const auto warm = core::run_dataset_experiment(cfg);
  std::filesystem::remove_all(dir);

  EXPECT_EQ(cold.classifier_accuracy, warm.classifier_accuracy);
  EXPECT_EQ(cold.vbpr_auc, warm.vbpr_auc);
  EXPECT_EQ(cold.amr_auc, warm.amr_auc);
  EXPECT_EQ(cold.vbpr_hr, warm.vbpr_hr);
  EXPECT_EQ(cold.amr_hr, warm.amr_hr);
  EXPECT_EQ(cold.vbpr_baseline_chr, warm.vbpr_baseline_chr);
  EXPECT_EQ(cold.amr_baseline_chr, warm.amr_baseline_chr);
  ASSERT_EQ(cold.cells.size(), warm.cells.size());
  for (std::size_t i = 0; i < cold.cells.size(); ++i) {
    const core::CellResult& a = cold.cells[i];
    const core::CellResult& b = warm.cells[i];
    EXPECT_EQ(a.chr_after_source, b.chr_after_source) << i;
    EXPECT_EQ(a.success_rate, b.success_rate) << i;
    EXPECT_EQ(a.mean_target_prob, b.mean_target_prob) << i;
    EXPECT_EQ(a.psnr, b.psnr) << i;
    EXPECT_EQ(a.ssim, b.ssim) << i;
    EXPECT_EQ(a.psm, b.psm) << i;
  }
  EXPECT_EQ(cold.fig2.item, warm.fig2.item);
  EXPECT_EQ(cold.fig2.median_rank_before, warm.fig2.median_rank_before);
  EXPECT_EQ(cold.fig2.median_rank_after, warm.fig2.median_rank_after);
  EXPECT_EQ(cold.fig2.target_prob_after, warm.fig2.target_prob_after);
  EXPECT_TRUE(same_bits(cold.fig2.attacked, warm.fig2.attacked));
}

}  // namespace
}  // namespace taamr
