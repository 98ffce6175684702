// The paper's core experiment on one scenario: targeted PGD against the
// product images of a low-recommended category (Sock), aimed at a highly
// recommended one (Running Shoe), evaluated against VBPR.
//
// Prints: baseline CHR, attack success, CHR after the attack, the visual
// imperceptibility metrics, and the rank trajectory of one example item
// (the paper's Fig. 2).
#include <iostream>

#include "core/pipeline.hpp"
#include "data/categories.hpp"
#include "metrics/chr.hpp"
#include "metrics/image_quality.hpp"
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
  config.seed = 3;
  const std::int64_t top_n = 100;

  core::Pipeline pipeline(config);
  pipeline.prepare();
  const auto& dataset = pipeline.dataset();
  auto vbpr = pipeline.train_vbpr();

  const auto lists_before = recsys::top_n_lists(*vbpr, dataset, top_n);
  const double chr_sock_before =
      metrics::category_hit_ratio(lists_before, dataset, data::kSock, top_n);
  const double chr_shoe =
      metrics::category_hit_ratio(lists_before, dataset, data::kRunningShoe, top_n);
  std::cout << "Baseline CHR@100: Sock = " << Table::fmt(chr_sock_before * 100, 3)
            << "%, Running Shoe = " << Table::fmt(chr_shoe * 100, 3) << "%\n";

  Table t("Targeted PGD, Sock -> Running Shoe, against VBPR");
  t.header({"eps (/255)", "success", "CHR@100 after (%)", "PSNR (dB)", "SSIM"});
  for (float eps : {2.0f, 4.0f, 8.0f, 16.0f}) {
    const auto batch = pipeline.attack_category(data::kSock, data::kRunningShoe,
                                                "pgd", eps);
    const auto success = metrics::attack_success(
        pipeline.classifier(), batch.attacked_images, data::kRunningShoe);
    const auto visual = metrics::average_visual_quality(
        pipeline.classifier(), batch.clean_images, batch.attacked_images);

    vbpr->set_item_features(
        pipeline.features_with_attack(batch.items, batch.attacked_images));
    const auto lists_after = recsys::top_n_lists(*vbpr, dataset, top_n);
    const double chr_after =
        metrics::category_hit_ratio(lists_after, dataset, data::kSock, top_n);
    vbpr->set_item_features(pipeline.clean_features());

    t.row({Table::fmt(eps, 0), Table::pct(success.success_rate, 1),
           Table::fmt(chr_after * 100, 3), Table::fmt(visual.psnr, 2),
           Table::fmt(visual.ssim, 4)});
  }
  t.print(std::cout);

  // Fig. 2-style single item: rank of the most convincingly flipped sock.
  const auto batch = pipeline.attack_category(data::kSock, data::kRunningShoe,
                                              "pgd", 8.0f);
  const Tensor probs =
      pipeline.classifier().probabilities(batch.attacked_images);
  std::int64_t best = 0;
  for (std::int64_t i = 1; i < probs.dim(0); ++i) {
    if (probs.at(i, data::kRunningShoe) > probs.at(best, data::kRunningShoe)) best = i;
  }
  const std::int32_t item = batch.items[static_cast<std::size_t>(best)];
  const std::int32_t probed[1] = {item};
  const std::int64_t rank_before = recsys::item_ranks(*vbpr, dataset, 0, probed).front();
  vbpr->set_item_features(
      pipeline.features_with_attack(batch.items, batch.attacked_images));
  const std::int64_t rank_after = recsys::item_ranks(*vbpr, dataset, 0, probed).front();
  vbpr->set_item_features(pipeline.clean_features());
  std::cout << "\nExample item #" << item << " (Sock): P[Running Shoe] after attack = "
            << Table::pct(probs.at(best, data::kRunningShoe), 1)
            << ", rec. position for user 0: " << rank_before << " -> " << rank_after
            << "\n";
  return 0;
}
