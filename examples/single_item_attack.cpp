// The paper's future-work "finer-grained visual attack": push ONE specific
// product (even within the same category) by making its image imitate the
// *feature vector* of a chosen highly-ranked reference item, instead of a
// whole class. Uses attack::FeatureMatch.
#include <algorithm>
#include <iostream>

#include "attack/feature_match.hpp"
#include "core/pipeline.hpp"
#include "data/categories.hpp"
#include "recsys/ranker.hpp"
#include "util/table.hpp"

int main() {
  using namespace taamr;

  core::PipelineConfig config;
  config.dataset_name = "Amazon Men";
  config.scale = 0.008;
  config.cnn_epochs = 8;
  config.vbpr.epochs = 80;
  config.seed = 13;

  core::Pipeline pipeline(config);
  pipeline.prepare();
  const auto& dataset = pipeline.dataset();
  auto vbpr = pipeline.train_vbpr();

  // Victim: the least-popular sock. Reference: the most-popular running
  // shoe (its feature vector is what the victim's image will imitate).
  const auto socks = dataset.items_of_category(data::kSock);
  const auto shoes = dataset.items_of_category(data::kRunningShoe);
  const auto counts = dataset.item_train_counts();
  const std::int32_t victim = *std::min_element(
      socks.begin(), socks.end(), [&](std::int32_t a, std::int32_t b) {
        return counts[static_cast<std::size_t>(a)] < counts[static_cast<std::size_t>(b)];
      });
  const std::int32_t reference = *std::max_element(
      shoes.begin(), shoes.end(), [&](std::int32_t a, std::int32_t b) {
        return counts[static_cast<std::size_t>(a)] < counts[static_cast<std::size_t>(b)];
      });
  std::cout << "victim: item #" << victim << " (Sock, "
            << counts[static_cast<std::size_t>(victim)] << " interactions)\n"
            << "reference: item #" << reference << " (Running Shoe, "
            << counts[static_cast<std::size_t>(reference)] << " interactions)\n\n";

  const std::vector<std::int32_t> victim_vec = {victim};
  const Tensor victim_image = data::gather_images(pipeline.catalog(), victim_vec);
  const std::vector<std::int32_t> ref_vec = {reference};
  const Tensor ref_image = data::gather_images(pipeline.catalog(), ref_vec);
  const Tensor target_features = pipeline.classifier().features(ref_image);

  Table t("Feature-matching attack on one item (victim imitates reference)");
  t.header({"eps (/255)", "feature distance", "median rank (20 users)"});
  // Median rank of the victim across users, clean baseline first.
  auto median_rank = [&](recsys::Vbpr& model) {
    std::vector<double> ranks;
    for (std::int64_t u = 0; u < std::min<std::int64_t>(dataset.num_users, 20); ++u) {
      const std::int64_t r = recsys::item_ranks(model, dataset, u, victim_vec).front();
      if (r > 0) ranks.push_back(static_cast<double>(r));
    }
    std::sort(ranks.begin(), ranks.end());
    return ranks.empty() ? 0.0 : ranks[ranks.size() / 2];
  };
  float clean_distance = 0.0f;
  pipeline.classifier().feature_input_gradient(victim_image, target_features,
                                               &clean_distance);
  t.row({"0 (clean)", Table::fmt(clean_distance, 3), Table::fmt(median_rank(*vbpr), 0)});

  for (float eps : {4.0f, 8.0f, 16.0f}) {
    attack::AttackConfig acfg;
    acfg.epsilon = attack::epsilon_from_255(eps);
    acfg.iterations = 20;  // single image: afford a finer descent
    attack::FeatureMatch fm(acfg);
    Rng rng(50 + static_cast<std::uint64_t>(eps));
    const Tensor adv = fm.perturb(pipeline.classifier(), victim_image,
                                  target_features, rng);
    float distance = 0.0f;
    pipeline.classifier().feature_input_gradient(adv, target_features, &distance);
    vbpr->set_item_features(pipeline.features_with_attack(victim_vec, adv));
    const double rank = median_rank(*vbpr);
    vbpr->set_item_features(pipeline.clean_features());
    t.row({Table::fmt(eps, 0), Table::fmt(distance, 3), Table::fmt(rank, 0)});
  }
  t.print(std::cout);
  std::cout << "\nExpected shape: the victim's feature distance to the reference "
               "shrinks with eps and its median recommendation position improves.\n";
  return 0;
}
