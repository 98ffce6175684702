// Extension bench (the paper's future-work defense direction): harden the
// *feature extractor* with Madry-style adversarial training and measure how
// much of the TAaMR attack surface disappears — next to AMR, which hardens
// the recommender side instead.
#include <iostream>

#include "attack/adversarial_training.hpp"
#include "attack/pgd.hpp"
#include "bench_common.hpp"
#include "core/pipeline.hpp"
#include "data/categories.hpp"
#include "metrics/chr.hpp"
#include "metrics/success.hpp"
#include "recsys/ranker.hpp"
#include "util/table.hpp"

int main() {
  using namespace taamr;
  bench::Reporter reporter("ext_robust_cnn");

  core::PipelineConfig cfg = bench::experiment_config("Amazon Men").pipeline;
  cfg.scale = 0.01;
  core::Pipeline pipeline(cfg);
  pipeline.prepare();
  const auto& ds = pipeline.dataset();

  // Adversarially-trained twin of the pipeline's CNN.
  const auto train_set = data::render_training_set(
      cfg.cnn_images_per_category, cfg.seed ^ 0x11111111u, cfg.image_config());
  Rng robust_init(cfg.seed + 101);
  nn::Classifier robust(cfg.cnn_config(), robust_init);
  attack::RobustTrainingConfig rcfg;
  // Adversarial training needs a longer schedule than standard training to
  // reach comparable clean accuracy (the usual robustness-accuracy trade).
  rcfg.epochs = cfg.cnn_epochs + 5;
  rcfg.batch_size = cfg.cnn_batch_size;
  rcfg.threat.epsilon = attack::epsilon_from_255(6.0f);
  rcfg.threat.iterations = 3;
  Rng robust_rng(cfg.seed + 102);
  attack::fit_robust(robust, train_set.images, train_set.labels, rcfg, robust_rng);

  const auto held =
      data::render_training_set(8, cfg.seed ^ 0xabcdef01u, cfg.image_config());
  std::cout << "Clean held-out accuracy: standard = "
            << pipeline.classifier().evaluate_accuracy(held.images, held.labels)
            << ", robust = " << robust.evaluate_accuracy(held.images, held.labels)
            << "\n\n";

  // Targeted PGD success against each extractor across the eps grid.
  Table t("Targeted PGD success, Sock -> Running Shoe: standard vs "
          "adversarially-trained CNN");
  t.header({"eps (/255)", "standard CNN", "robust CNN"});
  const auto socks = ds.items_of_category(data::kSock);
  const Tensor clean = data::gather_images(pipeline.catalog(), socks);
  const std::vector<std::int64_t> targets(socks.size(), data::kRunningShoe);
  for (float eps : {2.0f, 4.0f, 8.0f, 16.0f}) {
    attack::AttackConfig acfg;
    acfg.epsilon = attack::epsilon_from_255(eps);
    attack::Pgd pgd(acfg);
    Rng r1(300 + static_cast<std::uint64_t>(eps)), r2(300 + static_cast<std::uint64_t>(eps));
    const Tensor adv_std = pgd.perturb(pipeline.classifier(), clean, targets, r1);
    const Tensor adv_rob = pgd.perturb(robust, clean, targets, r2);
    const double sr_std = metrics::attack_success(pipeline.classifier(), adv_std,
                                                  data::kRunningShoe, "pgd")
                              .success_rate;
    const double sr_rob =
        metrics::attack_success(robust, adv_rob, data::kRunningShoe, "pgd").success_rate;
    reporter.add_metric("success_rate",
                        {{"cnn", "standard"}, {"eps", Table::fmt(eps, 0)}}, sr_std);
    reporter.add_metric("success_rate",
                        {{"cnn", "robust"}, {"eps", Table::fmt(eps, 0)}}, sr_rob);
    reporter.add_examples(static_cast<double>(2 * socks.size()));
    t.row({Table::fmt(eps, 0), Table::pct(sr_std, 1), Table::pct(sr_rob, 1)});
  }
  t.print(std::cout);

  // End-to-end: CHR lift of a VBPR built on robust features.
  auto vbpr_std = pipeline.train_vbpr();
  Tensor robust_features = robust.features(pipeline.catalog().images);
  Rng vr(cfg.seed + 103);
  recsys::Vbpr vbpr_rob(ds, robust_features, cfg.vbpr, vr);
  vbpr_rob.fit(ds, vr);

  Table t2("CHR@100 of Sock before/after PGD eps=16 (end-to-end)");
  t2.header({"Feature extractor", "CHR before (%)", "CHR after (%)"});
  {
    const auto batch = pipeline.attack_category(data::kSock, data::kRunningShoe,
                                                "pgd", 16.0f);
    const auto before = recsys::top_n_lists(*vbpr_std, ds, 100);
    const auto after = pipeline.lists_under_attack(
        *vbpr_std, pipeline.features_with_attack(batch.items, batch.attacked_images),
        100);
    t2.row({"standard",
            Table::fmt(metrics::category_hit_ratio(before, ds, data::kSock, 100) * 100, 3),
            Table::fmt(metrics::category_hit_ratio(after, ds, data::kSock, 100) * 100, 3)});
  }
  {
    // Attack the robust extractor directly (white-box on the defense).
    attack::AttackConfig acfg;
    acfg.epsilon = attack::epsilon_from_255(16.0f);
    attack::Pgd pgd(acfg);
    Rng rr(401);
    const Tensor adv = pgd.perturb(robust, clean, targets, rr);
    Tensor merged = robust_features;
    const Tensor adv_features = robust.features(adv);
    for (std::size_t b = 0; b < socks.size(); ++b) {
      for (std::int64_t j = 0; j < merged.dim(1); ++j) {
        merged.at(socks[b], j) = adv_features.at(static_cast<std::int64_t>(b), j);
      }
    }
    const auto before = recsys::top_n_lists(vbpr_rob, ds, 100);
    vbpr_rob.set_item_features(merged);
    const auto after = recsys::top_n_lists(vbpr_rob, ds, 100);
    vbpr_rob.set_item_features(robust_features);
    t2.row({"adversarially trained",
            Table::fmt(metrics::category_hit_ratio(before, ds, data::kSock, 100) * 100, 3),
            Table::fmt(metrics::category_hit_ratio(after, ds, data::kSock, 100) * 100, 3)});
  }
  std::cout << "\n";
  t2.print(std::cout);
  std::cout << "\nExpected shape: the robust extractor flattens the end-to-end CHR "
               "shift and resists the largest-budget attacks, paying the usual "
               "robustness-vs-clean-accuracy trade (both visible above).\n";
  return 0;
}
