#include "core/pipeline.hpp"

#include <bit>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "data/categories.hpp"
#include "nn/serialize.hpp"
#include "obs/trace.hpp"
#include "recsys/ranker.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"

namespace taamr::core {

nn::MiniResNetConfig PipelineConfig::cnn_config() const {
  nn::MiniResNetConfig cfg;
  cfg.in_channels = 3;
  cfg.image_size = image_size;
  cfg.num_classes = data::num_categories();
  cfg.base_width = cnn_base_width;
  cfg.blocks_per_stage = cnn_blocks_per_stage;
  return cfg;
}

data::ImageGenConfig PipelineConfig::image_config() const {
  data::ImageGenConfig cfg;
  cfg.size = image_size;
  return cfg;
}

Pipeline::Pipeline(PipelineConfig config) : config_(std::move(config)) {}

const data::ImplicitDataset& Pipeline::dataset() const {
  if (!dataset_) throw std::logic_error("Pipeline: call prepare() first");
  return *dataset_;
}

const data::ImageCatalog& Pipeline::catalog() const {
  if (!catalog_) throw std::logic_error("Pipeline: call prepare() first");
  return *catalog_;
}

nn::Classifier& Pipeline::classifier() {
  if (!classifier_) throw std::logic_error("Pipeline: call prepare() first");
  return *classifier_;
}

const Tensor& Pipeline::clean_features() const {
  if (!prepared_) throw std::logic_error("Pipeline: call prepare() first");
  return clean_features_;
}

void Pipeline::train_or_load_classifier() {
  // Checkpoint key: every knob that influences the trained weights.
  std::string cache_path;
  if (!config_.cache_dir.empty()) {
    std::ostringstream key;
    key << "cnn_s" << config_.image_size << "_w" << config_.cnn_base_width << "_b"
        << config_.cnn_blocks_per_stage << "_e" << config_.cnn_epochs << "_n"
        << config_.cnn_images_per_category << "_seed" << config_.seed << ".bin";
    std::filesystem::create_directories(config_.cache_dir);
    cache_path = (std::filesystem::path(config_.cache_dir) / key.str()).string();
    if (std::filesystem::exists(cache_path)) {
      TAAMR_TRACE_SPAN("pipeline/load_cnn");
      log_info() << "loading cached CNN checkpoint " << cache_path;
      classifier_ = nn::load_classifier_file(cache_path);
      // Evaluate on a fresh held-out set so accuracy is always reported.
      const auto held_out = data::render_training_set(
          8, config_.seed ^ 0xabcdef01u, config_.image_config());
      classifier_accuracy_ =
          classifier_->evaluate_accuracy(held_out.images, held_out.labels);
      log_info() << "cached CNN held-out accuracy: " << classifier_accuracy_;
      return;
    }
  }

  TAAMR_TRACE_SPAN("pipeline/train_cnn");
  Stopwatch timer;
  // A local generator, as every stage draws one: the CNN gets the same init
  // whether or not a checkpoint was cached, and nothing later depends on it.
  Rng cnn_rng(config_.seed);
  Rng init_rng = cnn_rng.fork(101);
  classifier_.emplace(config_.cnn_config(), init_rng);
  log_info() << "training CNN feature extractor (" << classifier_->parameter_count()
             << " parameters)";
  const auto train_set = data::render_training_set(
      config_.cnn_images_per_category, config_.seed ^ 0x11111111u,
      config_.image_config());
  nn::SgdConfig sgd;
  sgd.learning_rate = 0.05f;
  Rng train_rng = cnn_rng.fork(102);
  classifier_->fit(train_set.images, train_set.labels, config_.cnn_epochs,
                   config_.cnn_batch_size, sgd, train_rng);
  const auto held_out =
      data::render_training_set(8, config_.seed ^ 0xabcdef01u, config_.image_config());
  classifier_accuracy_ = classifier_->evaluate_accuracy(held_out.images, held_out.labels);
  log_info() << "CNN trained in " << timer.seconds() << "s, held-out accuracy "
             << classifier_accuracy_;

  if (!cache_path.empty()) {
    nn::save_classifier_file(cache_path, *classifier_);
    log_info() << "saved CNN checkpoint to " << cache_path;
  }
}

void Pipeline::prepare() {
  if (prepared_) return;
  TAAMR_TRACE_SPAN("pipeline/prepare");
  Stopwatch timer;
  {
    TAAMR_TRACE_SPAN("pipeline/synthesize_dataset");
    dataset_ = data::generate_synthetic_dataset(
        data::spec_by_name(config_.dataset_name, config_.scale));
    catalog_ = data::render_catalog(*dataset_, config_.image_config());
  }
  log_info() << "dataset + catalog ready in " << timer.seconds() << "s";

  train_or_load_classifier();

  Stopwatch feat_timer;
  {
    TAAMR_TRACE_SPAN("pipeline/extract_features");
    clean_features_ = classifier_->features(catalog_->images);
  }
  log_info() << "extracted clean features [" << clean_features_.dim(0) << " x "
             << clean_features_.dim(1) << "] in " << feat_timer.seconds() << "s";
  prepared_ = true;
}

std::unique_ptr<recsys::Vbpr> Pipeline::train_vbpr() {
  if (!prepared_) throw std::logic_error("Pipeline: call prepare() first");
  TAAMR_TRACE_SPAN("pipeline/train_vbpr");
  Stopwatch timer;
  // Local generators, as the CNN and the attacks draw: a model's init does
  // not depend on which models were trained before it.
  Rng rng = Rng(config_.seed).fork(201);
  auto model = std::make_unique<recsys::Vbpr>(*dataset_, clean_features_, config_.vbpr, rng);
  model->fit(*dataset_, rng);
  log_info() << "VBPR trained in " << timer.seconds() << "s";
  return model;
}

std::unique_ptr<recsys::Amr> Pipeline::train_amr() {
  if (!prepared_) throw std::logic_error("Pipeline: call prepare() first");
  TAAMR_TRACE_SPAN("pipeline/train_amr");
  Stopwatch timer;
  Rng rng = Rng(config_.seed).fork(202);
  recsys::AmrConfig cfg;
  cfg.vbpr = config_.vbpr;
  cfg.adversarial = config_.amr_adversarial;
  cfg.warm_epochs = config_.amr_warm_epochs;
  cfg.adversarial_epochs = config_.amr_adversarial_epochs;
  auto model = std::make_unique<recsys::Amr>(*dataset_, clean_features_, cfg, rng);
  model->fit(*dataset_, rng);
  log_info() << "AMR trained in " << timer.seconds() << "s";
  return model;
}

Pipeline::AttackedBatch Pipeline::attack_category(std::int32_t source_category,
                                                  std::int32_t target_category,
                                                  const std::string& attack_key,
                                                  float epsilon_255) {
  if (!prepared_) throw std::logic_error("Pipeline: call prepare() first");
  if (target_category < 0 || target_category >= data::num_categories()) {
    throw std::invalid_argument("attack_category: bad target category");
  }
  TAAMR_TRACE_SPAN("pipeline/attack_category");
  AttackedBatch batch;
  batch.items = dataset_->items_of_category(source_category);
  if (batch.items.empty()) {
    throw std::logic_error("attack_category: source category has no items");
  }
  batch.clean_images = data::gather_images(*catalog_, batch.items);

  attack::AttackConfig cfg;
  cfg.epsilon = attack::epsilon_from_255(epsilon_255);
  cfg.targeted = true;
  auto attacker = attack::make(attack_key, cfg);
  const std::vector<std::int64_t> targets(batch.items.size(),
                                          static_cast<std::int64_t>(target_category));
  Stopwatch timer;
  // A local generator: one (source, target, attack, epsilon) cell gets the
  // same start whatever ran before it. Its stream is an FNV-1a-style hash of the cell.
  std::uint64_t stream = 0xcbf29ce484222325ULL;
  const auto mix = [&stream](std::uint64_t v) { stream = (stream ^ v) * 0x100000001b3ULL; };
  mix(static_cast<std::uint64_t>(source_category));
  mix(static_cast<std::uint64_t>(target_category));
  mix(std::bit_cast<std::uint32_t>(epsilon_255));
  for (const char ch : attack_key) mix(static_cast<unsigned char>(ch));
  Rng rng = Rng(config_.seed).fork(stream);
  batch.attacked_images = attacker->perturb(*classifier_, batch.clean_images, targets, rng);
  log_info() << attacker->name() << " eps=" << epsilon_255 << "/255 on "
             << batch.items.size() << " '" << data::category_name(source_category)
             << "' images -> '" << data::category_name(target_category) << "' in "
             << timer.seconds() << "s";
  return batch;
}

Tensor Pipeline::features_with_attack(const std::vector<std::int32_t>& items,
                                      const Tensor& attacked_images) {
  if (!prepared_) throw std::logic_error("Pipeline: call prepare() first");
  TAAMR_TRACE_SPAN("pipeline/re_extract_features");
  const Tensor attacked_features = classifier_->features(attacked_images);
  if (attacked_features.dim(0) != static_cast<std::int64_t>(items.size())) {
    throw std::invalid_argument("features_with_attack: items/images mismatch");
  }
  Tensor merged = clean_features_;
  const std::int64_t d = merged.dim(1);
  for (std::size_t b = 0; b < items.size(); ++b) {
    for (std::int64_t j = 0; j < d; ++j) {
      merged.at(items[b], j) = attacked_features.at(static_cast<std::int64_t>(b), j);
    }
  }
  return merged;
}

std::vector<std::vector<std::int32_t>> Pipeline::lists_under_attack(
    recsys::Vbpr& model, const Tensor& attacked_features, std::int64_t n) {
  if (!prepared_) throw std::logic_error("Pipeline: call prepare() first");
  model.set_item_features(attacked_features);
  try {
    auto lists = recsys::top_n_lists(model, *dataset_, n);
    model.set_item_features(clean_features_);
    return lists;
  } catch (...) {
    model.set_item_features(clean_features_);
    throw;
  }
}

}  // namespace taamr::core
