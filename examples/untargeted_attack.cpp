// Extension (the setting of Tang et al.'s AMR paper, which TAaMR contrasts
// with): an *untargeted* FGSM attack on a category's images degrades the
// recommender's accuracy instead of pushing a category. Shows HR@N /
// NDCG@N of VBPR before and after the attack.
#include <iostream>

#include "core/pipeline.hpp"
#include "data/categories.hpp"
#include "metrics/ranking.hpp"
#include "metrics/success.hpp"
#include "recsys/ranker.hpp"
#include "util/table.hpp"

int main() {
  using namespace taamr;

  core::PipelineConfig config;
  config.dataset_name = "Amazon Men";
  config.scale = 0.008;
  config.image_size = 24;
  config.cnn_base_width = 8;
  config.cnn_epochs = 8;
  config.cnn_images_per_category = 48;
  config.vbpr.epochs = 80;
  config.seed = 9;
  const std::int64_t top_n = 50;

  core::Pipeline pipeline(config);
  pipeline.prepare();
  const auto& dataset = pipeline.dataset();
  auto vbpr = pipeline.train_vbpr();

  const auto lists_before = recsys::top_n_lists(*vbpr, dataset, top_n);
  std::cout << "Clean VBPR: HR@" << top_n << " = "
            << Table::fmt(metrics::hit_ratio_at_n(lists_before, dataset), 4)
            << ", NDCG@" << top_n << " = "
            << Table::fmt(metrics::ndcg_at_n(lists_before, dataset), 4) << "\n\n";

  // Untargeted FGSM against the images of the *most recommended* category
  // (maximizes the accuracy damage, as in the AMR threat model).
  const std::int32_t victim = data::kRunningShoe;
  const auto items = dataset.items_of_category(victim);
  const Tensor clean = data::gather_images(pipeline.catalog(), items);
  const std::vector<std::int64_t> true_labels(items.size(),
                                              static_cast<std::int64_t>(victim));

  Table t("Untargeted FGSM on '" + data::category_name(victim) + "' images vs VBPR");
  t.header({"eps (/255)", "misclassified", "HR@50", "NDCG@50"});
  for (float eps : {4.0f, 8.0f, 16.0f, 32.0f}) {
    attack::AttackConfig acfg;
    acfg.epsilon = attack::epsilon_from_255(eps);
    acfg.targeted = false;
    auto fgsm = attack::make("fgsm", acfg);
    Rng rng(100 + static_cast<std::uint64_t>(eps));
    const Tensor adv = fgsm->perturb(pipeline.classifier(), clean, true_labels, rng);
    const double moved =
        metrics::misclassification_rate(pipeline.classifier(), adv, victim);

    const auto lists_after = pipeline.lists_under_attack(
        *vbpr, pipeline.features_with_attack(items, adv), top_n);
    const double hr = metrics::hit_ratio_at_n(lists_after, dataset);
    const double ndcg = metrics::ndcg_at_n(lists_after, dataset);

    t.row({Table::fmt(eps, 0), Table::pct(moved, 1), Table::fmt(hr, 4),
           Table::fmt(ndcg, 4)});
  }
  t.print(std::cout);
  std::cout << "\nExpected shape: misclassification grows with eps and the ranking "
               "quality of the poisoned catalog degrades relative to the clean run.\n";
  return 0;
}
