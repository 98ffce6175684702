// The TAaMR pipeline of Fig. 1: synthesize the dataset and product images,
// train (or load) the deep feature extractor F, extract the learned image
// features f_e, train the multimedia recommenders, attack, re-extract,
// re-rank.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attack/attack.hpp"
#include "data/amazon_synth.hpp"
#include "data/dataset.hpp"
#include "metrics/image_quality.hpp"
#include "metrics/success.hpp"
#include "nn/classifier.hpp"
#include "recsys/amr.hpp"
#include "recsys/ranker.hpp"
#include "recsys/vbpr.hpp"

namespace taamr::core {

struct PipelineConfig {
  std::string dataset_name = "Amazon Men";
  double scale = data::kBenchScale;
  std::uint64_t seed = 42;

  // CNN (feature extractor) settings — sized for a single-core run. The
  // margin calibration (image size, palette compression in the taxonomy,
  // epoch count) is what places the attack-success curves in the paper's
  // regime; see EXPERIMENTS.md.
  // base_width 4 => feature dim 16 == one dimension per category: the GAP
  // features are *semantic* (class-aligned), as ResNet50's deep features
  // are, which is what lets a successfully mis-classified image also carry
  // target-like features into the recommender.
  std::int64_t image_size = 32;
  std::int64_t cnn_base_width = 4;
  std::int64_t cnn_blocks_per_stage = 1;
  std::int64_t cnn_epochs = 8;
  std::int64_t cnn_images_per_category = 96;
  std::int64_t cnn_batch_size = 32;

  // Recommenders. The AMR regularizer strength is recalibrated to this
  // reproduction's feature scale (D = 16 standardized dims, ||f|| ~ 4,
  // vs the paper's thousands of raw CNN dims): eta = 4 perturbs ~the same
  // *fraction* of the feature norm as the paper's eta = 1 does on its
  // features. AmrConfig itself keeps the paper's literal defaults.
  recsys::VbprConfig vbpr;
  recsys::AdversarialOptions amr_adversarial{/*gamma=*/0.2f, /*eta=*/4.0f};
  std::int64_t amr_warm_epochs = 60;
  std::int64_t amr_adversarial_epochs = 60;

  std::int64_t top_n = 100;  // the paper evaluates CHR@100

  // Directory for the trained-CNN checkpoint ("" = always retrain). The
  // CNN is dataset-independent (it classifies the shared taxonomy), so one
  // checkpoint serves both datasets.
  std::string cache_dir;

  nn::MiniResNetConfig cnn_config() const;
  data::ImageGenConfig image_config() const;
};

class Pipeline {
 public:
  explicit Pipeline(PipelineConfig config);

  // Stages 1-3: dataset + catalog + classifier + clean features. Idempotent.
  void prepare();

  const PipelineConfig& config() const { return config_; }
  const data::ImplicitDataset& dataset() const;
  const data::ImageCatalog& catalog() const;
  nn::Classifier& classifier();
  // Raw (un-standardized) clean features of the whole catalog, [I, D].
  const Tensor& clean_features() const;
  double classifier_accuracy() const { return classifier_accuracy_; }

  // Stage 4: recommender training on the clean features.
  std::unique_ptr<recsys::Vbpr> train_vbpr();
  std::unique_ptr<recsys::Amr> train_amr();

  // Stage 5: attack all items of a category toward a target class.
  struct AttackedBatch {
    std::vector<std::int32_t> items;  // attacked item ids
    Tensor clean_images;              // [n, 3, S, S]
    Tensor attacked_images;           // same shape
  };
  // `attack_key` names a registry entry ("fgsm", "pgd", ...).
  AttackedBatch attack_category(std::int32_t source_category,
                                std::int32_t target_category,
                                const std::string& attack_key,
                                float epsilon_255);

  // What an attack did to the images of `items`, measured from one
  // `features` pass over attacked_images: success from the head's logits of
  // those features, PSNR/SSIM against the items' catalog images, PSM
  // against their clean_features() rows (the rows a fresh extraction of the
  // clean images would give, bit for bit).
  struct AttackMeasurement {
    metrics::SuccessStats success;  // toward target_category
    metrics::VisualQuality visual;
    Tensor attacked_features;       // [items, D], row b for items[b]
  };
  AttackMeasurement measure_attack(const std::vector<std::int32_t>& items,
                                   const Tensor& attacked_images,
                                   std::int32_t target_category);

  // Clean features with the rows of `items` replaced by `attacked_features`
  // ([items, D]) — what the MR sees after the attack.
  Tensor merged_features(const std::vector<std::int32_t>& items,
                         const Tensor& attacked_features) const;
  // merged_features of the features extracted from `attacked_images`.
  Tensor features_with_attack(const std::vector<std::int32_t>& items,
                              const Tensor& attacked_images);

  // Stage 6: the top-n lists `model` serves once the features of `items`
  // are `attacked_features` (row b for items[b]) and every other item keeps
  // its clean one. `clean` is the model's recsys::rank_all_users ranking on
  // clean_features() at depth >= n + items.size(): only the attacked items
  // are scored again (Vbpr::score_items) and merged into it
  // (recsys::merge_rescored), which gives exactly the lists of a full
  // re-rank after set_item_features. The model is not changed.
  std::vector<std::vector<std::int32_t>> lists_under_attack(
      const recsys::Vbpr& model, const recsys::Ranking& clean,
      const std::vector<std::int32_t>& items, const Tensor& attacked_features,
      std::int64_t n) const;

 private:
  void train_or_load_classifier();

  PipelineConfig config_;
  bool prepared_ = false;
  std::optional<data::ImplicitDataset> dataset_;
  std::optional<data::ImageCatalog> catalog_;
  std::optional<nn::Classifier> classifier_;
  Tensor clean_features_;
  double classifier_accuracy_ = 0.0;
};

}  // namespace taamr::core
