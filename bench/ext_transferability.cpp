// Extension bench: black-box transferability. The paper assumes a white-box
// adversary; here the adversary trains a *surrogate* CNN (different seed
// and width) on its own rendered images, crafts the attack against the
// surrogate, and the perturbed images are then scored by the victim
// pipeline. The classic question: does TAaMR survive without white-box
// access to F?
#include <iostream>

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
  bench::Reporter reporter("ext_transferability");

  core::PipelineConfig cfg = bench::experiment_config("Amazon Men").pipeline;
  cfg.scale = 0.01;
  core::Pipeline pipeline(cfg);
  pipeline.prepare();
  const auto& ds = pipeline.dataset();
  auto vbpr = pipeline.train_vbpr();

  // The adversary's surrogate: same task, its own architecture and data.
  nn::MiniResNetConfig surrogate_cfg = cfg.cnn_config();
  surrogate_cfg.base_width = 6;  // a different (wider) feature extractor
  Rng surrogate_init(999);
  nn::Classifier surrogate(surrogate_cfg, surrogate_init);
  const auto surrogate_data = data::render_training_set(
      cfg.cnn_images_per_category, /*seed_base=*/424242, cfg.image_config());
  nn::SgdConfig sgd;
  sgd.learning_rate = 0.05f;
  Rng surrogate_rng(998);
  surrogate.fit(surrogate_data.images, surrogate_data.labels, cfg.cnn_epochs, 32, sgd,
                surrogate_rng, /*verbose=*/false);

  const std::int32_t source = data::kSock, target = data::kRunningShoe;
  const auto items = ds.items_of_category(source);
  const Tensor clean = data::gather_images(pipeline.catalog(), items);
  const std::vector<std::int64_t> targets(items.size(),
                                          static_cast<std::int64_t>(target));
  const auto baseline = recsys::top_n_lists(*vbpr, ds, 100);
  const double chr_before = metrics::category_hit_ratio(baseline, ds, source, 100);

  Table t("White-box vs transferred PGD, Sock -> Running Shoe (baseline CHR@100 = " +
          Table::fmt(chr_before * 100, 3) + "%)");
  t.header({"eps (/255)", "white-box success", "transfer success",
            "white-box CHR after", "transfer CHR after"});
  for (float eps : {8.0f, 16.0f, 32.0f}) {
    attack::AttackConfig acfg;
    acfg.epsilon = attack::epsilon_from_255(eps);
    attack::Pgd pgd(acfg);
    Rng r1(2000 + static_cast<std::uint64_t>(eps));
    Rng r2(2000 + static_cast<std::uint64_t>(eps));
    const Tensor adv_white = pgd.perturb(pipeline.classifier(), clean, targets, r1);
    const Tensor adv_transfer = pgd.perturb(surrogate, clean, targets, r2);

    auto chr_after = [&](const Tensor& adv) {
      const auto lists = pipeline.lists_under_attack(
          *vbpr, pipeline.features_with_attack(items, adv), 100);
      return metrics::category_hit_ratio(lists, ds, source, 100);
    };
    const double sr_white =
        metrics::attack_success(pipeline.classifier(), adv_white, target, "pgd")
            .success_rate;
    const double sr_transfer =
        metrics::attack_success(pipeline.classifier(), adv_transfer, target, "pgd")
            .success_rate;
    reporter.add_metric("success_rate",
                        {{"access", "white-box"}, {"eps", Table::fmt(eps, 0)}}, sr_white);
    reporter.add_metric("success_rate",
                        {{"access", "transfer"}, {"eps", Table::fmt(eps, 0)}}, sr_transfer);
    reporter.add_examples(static_cast<double>(2 * items.size()));
    t.row({Table::fmt(eps, 0), Table::pct(sr_white, 1), Table::pct(sr_transfer, 1),
           Table::fmt(chr_after(adv_white) * 100, 3),
           Table::fmt(chr_after(adv_transfer) * 100, 3)});
  }
  t.print(std::cout);
  std::cout << "\nObserved shape: a fraction of the misclassifications transfers "
               "(classic transferability), but the CHR push does NOT: even images "
               "that fool the victim classifier carry surrogate-specific features, "
               "not the victim's target-like features the recommender rewards. The "
               "white-box feature access in the paper's threat model is "
               "load-bearing.\n";
  return 0;
}
