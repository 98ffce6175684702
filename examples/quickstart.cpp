// Quickstart: the library in ~70 lines.
//
// 1. Synthesize a small "Amazon Men"-like dataset with product images.
// 2. Train the CNN feature extractor and pull features at layer e.
// 3. Train VBPR on interactions + features.
// 4. Print a user's top-5 recommendations with category names.
// 5. Run a small targeted FGSM attack (Sock -> Running Shoe).
//
// Build & run:   ./examples/quickstart
//
// Set TAAMR_TRACE=trace.json to capture a Chrome trace of the run (see
// README, Observability).
#include <iostream>

#include "attack/attack.hpp"
#include "core/pipeline.hpp"
#include "data/categories.hpp"
#include "metrics/success.hpp"
#include "recsys/ranker.hpp"
#include "recsys/trainer.hpp"

int main() {
  using namespace taamr;

  // A small configuration so the example finishes in well under a minute.
  core::PipelineConfig config;
  config.dataset_name = "Amazon Men";
  config.scale = 0.005;             // ~130 users, ~410 items
  config.image_size = 16;
  config.cnn_base_width = 6;
  config.cnn_epochs = 15;
  config.cnn_images_per_category = 14;
  config.vbpr.epochs = 60;
  config.seed = 1;

  // Stages 1-3: dataset, product images, CNN, clean features f_e.
  core::Pipeline pipeline(config);
  pipeline.prepare();
  const auto& dataset = pipeline.dataset();
  std::cout << "Dataset '" << dataset.name << "': " << dataset.num_users << " users, "
            << dataset.num_items << " items, " << dataset.num_feedback()
            << " interactions\n";
  std::cout << "CNN held-out accuracy: " << pipeline.classifier_accuracy() << "\n";

  // Stage 4: the multimedia recommender.
  auto vbpr = pipeline.train_vbpr();
  Rng eval_rng(2);
  std::cout << "VBPR leave-one-out AUC: "
            << recsys::sampled_auc(*vbpr, dataset, eval_rng) << "\n\n";

  // Recommend for one user.
  const std::int64_t user = 0;
  std::cout << "User " << user << " interacted with:\n";
  for (std::int32_t item : dataset.train[static_cast<std::size_t>(user)]) {
    std::cout << "  item #" << item << "  ("
              << data::category_name(dataset.item_category[static_cast<std::size_t>(item)])
              << ")\n";
  }

  // Each listed item carries the score it was ranked with.
  const std::int64_t users[1] = {user};
  const auto top = recsys::rank_users(*vbpr, dataset, users, 5).front();
  std::cout << "\nTop-5 recommendations for user " << user << ":\n";
  int rank = 1;
  for (const recsys::ScoredItem& s : top) {
    std::cout << "  " << rank++ << ". item #" << s.item << "  ("
              << data::category_name(dataset.item_category[static_cast<std::size_t>(s.item)])
              << ")  score=" << s.score << "\n";
  }

  // Stage 5: a small targeted attack — push every Sock toward Running Shoe.
  const auto batch = pipeline.attack_category(data::kSock, data::kRunningShoe,
                                              "fgsm", 8.0f);
  const auto success = metrics::attack_success(
      pipeline.classifier(), batch.attacked_images, data::kRunningShoe);
  std::cout << "\nFGSM eps=8/255, Sock -> Running Shoe: " << batch.items.size()
            << " items attacked, success rate "
            << 100.0 * success.success_rate << "%\n";
  return 0;
}
