#include "core/experiment.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "data/categories.hpp"
#include "metrics/chr.hpp"
#include "metrics/ranking.hpp"
#include "metrics/success.hpp"
#include "recsys/ranker.hpp"
#include "recsys/trainer.hpp"
#include "util/io.hpp"
#include "util/logging.hpp"

namespace taamr::core {

namespace {

// Attacked images and their model-independent metrics, computed once per
// (source, target, attack, eps) and reused across VBPR and AMR.
struct AttackProducts {
  Pipeline::AttackedBatch batch;
  metrics::SuccessStats success;
  metrics::VisualQuality visual;
  Tensor merged_features;  // clean catalog features with attacked rows
};

struct AttackKey {
  std::int32_t source;
  std::int32_t target;
  std::string attack;
  float eps;
  bool operator<(const AttackKey& o) const {
    return std::tie(source, target, attack, eps) <
           std::tie(o.source, o.target, o.attack, o.eps);
  }
};

Fig2Example make_fig2_example(Pipeline& pipeline, recsys::Vbpr& vbpr,
                              const AttackScenario& scenario,
                              const AttackProducts& products) {
  Fig2Example ex;
  ex.source_category = scenario.source_category;
  ex.target_category = scenario.target_category;

  const auto& dataset = pipeline.dataset();
  const std::int64_t sample_users = std::min<std::int64_t>(dataset.num_users, 60);
  const std::int64_t num_attacked = static_cast<std::int64_t>(products.batch.items.size());

  // Median recommendation position (recsys::item_ranks) of every attacked
  // item across a user sample, before and after the attack.
  std::vector<std::vector<double>> ranks_before(static_cast<std::size_t>(num_attacked));
  std::vector<std::vector<double>> ranks_after(static_cast<std::size_t>(num_attacked));
  auto collect = [&](std::vector<std::vector<double>>& out) {
    for (std::int64_t u = 0; u < sample_users; ++u) {
      const std::vector<std::int64_t> ranks =
          recsys::item_ranks(vbpr, dataset, u, products.batch.items);
      for (std::int64_t a = 0; a < num_attacked; ++a) {
        const std::int64_t rank = ranks[static_cast<std::size_t>(a)];
        if (rank < 0) continue;  // the user trained on this item
        out[static_cast<std::size_t>(a)].push_back(static_cast<double>(rank));
      }
    }
  };
  collect(ranks_before);
  vbpr.set_item_features(products.merged_features);
  collect(ranks_after);
  vbpr.set_item_features(pipeline.clean_features());

  auto median = [](std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };

  // Showcase the successfully-flipped item whose recommendation position
  // improved the most (the paper's Fig. 2 is exactly such an example).
  const Tensor probs_after =
      pipeline.classifier().probabilities(products.batch.attacked_images);
  const auto pred_after = pipeline.classifier().predict(products.batch.attacked_images);
  std::int64_t best = 0;
  double best_gain = -1e18;
  for (std::int64_t i = 0; i < num_attacked; ++i) {
    const double gain = median(ranks_before[static_cast<std::size_t>(i)]) -
                        median(ranks_after[static_cast<std::size_t>(i)]);
    const bool flipped = pred_after[static_cast<std::size_t>(i)] ==
                         static_cast<std::int64_t>(scenario.target_category);
    if ((flipped || best_gain == -1e18) && gain > best_gain) {
      best = i;
      best_gain = gain;
    }
  }
  ex.item = products.batch.items[static_cast<std::size_t>(best)];
  ex.median_rank_before = median(ranks_before[static_cast<std::size_t>(best)]);
  ex.median_rank_after = median(ranks_after[static_cast<std::size_t>(best)]);
  const Tensor probs_before =
      pipeline.classifier().probabilities(products.batch.clean_images);
  ex.source_prob_before = probs_before.at(best, scenario.source_category);
  ex.target_prob_after = probs_after.at(best, scenario.target_category);

  const std::int64_t elems = products.batch.clean_images.numel() /
                             products.batch.clean_images.dim(0);
  const Shape img_shape = {products.batch.clean_images.dim(1),
                           products.batch.clean_images.dim(2),
                           products.batch.clean_images.dim(3)};
  ex.clean = Tensor(img_shape);
  ex.attacked = Tensor(img_shape);
  std::copy(products.batch.clean_images.data() + best * elems,
            products.batch.clean_images.data() + (best + 1) * elems, ex.clean.data());
  std::copy(products.batch.attacked_images.data() + best * elems,
            products.batch.attacked_images.data() + (best + 1) * elems,
            ex.attacked.data());
  ex.psnr = metrics::psnr(ex.clean, ex.attacked);
  ex.ssim = metrics::ssim(ex.clean, ex.attacked);

  return ex;
}

}  // namespace

DatasetResults run_dataset_experiment(const ExperimentConfig& config) {
  Pipeline pipeline(config.pipeline);
  pipeline.prepare();
  const auto& dataset = pipeline.dataset();
  const std::int64_t top_n = config.pipeline.top_n;

  DatasetResults results;
  results.dataset = dataset.name;
  results.scale = config.pipeline.scale;
  results.top_n = top_n;
  results.classifier_accuracy = pipeline.classifier_accuracy();
  results.stats = data::compute_stats(dataset);

  auto vbpr = pipeline.train_vbpr();
  auto amr = pipeline.train_amr();

  Rng eval_rng(config.pipeline.seed ^ 0xe7a1);
  results.vbpr_auc = recsys::sampled_auc(*vbpr, dataset, eval_rng);
  results.amr_auc = recsys::sampled_auc(*amr, dataset, eval_rng);

  const auto vbpr_lists = recsys::top_n_lists(*vbpr, dataset, top_n);
  const auto amr_lists = recsys::top_n_lists(*amr, dataset, top_n);
  results.vbpr_hr = metrics::hit_ratio_at_n(vbpr_lists, dataset);
  results.amr_hr = metrics::hit_ratio_at_n(amr_lists, dataset);
  results.vbpr_baseline_chr = metrics::category_hit_ratio_all(vbpr_lists, dataset, top_n);
  results.amr_baseline_chr = metrics::category_hit_ratio_all(amr_lists, dataset, top_n);
  log_info() << "baselines ready: VBPR AUC=" << results.vbpr_auc
             << " AMR AUC=" << results.amr_auc;

  // Attacked images are model-independent: compute each (source, target,
  // attack, eps) once and evaluate both recommenders against it.
  std::map<AttackKey, AttackProducts> attack_cache;
  auto get_products = [&](const AttackScenario& s, const std::string& attack_key,
                          float eps) -> AttackProducts& {
    const AttackKey key{s.source_category, s.target_category, attack_key, eps};
    auto it = attack_cache.find(key);
    if (it != attack_cache.end()) return it->second;
    AttackProducts products;
    products.batch = pipeline.attack_category(s.source_category, s.target_category,
                                              attack_key, eps);
    products.success = metrics::attack_success(
        pipeline.classifier(), products.batch.attacked_images, s.target_category);
    products.visual = metrics::average_visual_quality(
        pipeline.classifier(), products.batch.clean_images,
        products.batch.attacked_images);
    products.merged_features =
        pipeline.features_with_attack(products.batch.items, products.batch.attacked_images);
    return attack_cache.emplace(key, std::move(products)).first->second;
  };

  struct ModelEntry {
    recsys::Vbpr* model;
    const std::vector<double>* baseline_chr;
  };
  const std::vector<std::pair<std::string, ModelEntry>> models = {
      {"VBPR", {vbpr.get(), &results.vbpr_baseline_chr}},
      {"AMR", {amr.get(), &results.amr_baseline_chr}},
  };

  for (const auto& [model_name, entry] : models) {
    const auto scenarios = paper_scenarios(dataset.name, model_name);
    for (const AttackScenario& scenario : scenarios) {
      for (const std::string& attack_key : config.attacks) {
        for (float eps : config.eps_grid_255) {
          AttackProducts& products = get_products(scenario, attack_key, eps);

          const auto lists =
              pipeline.lists_under_attack(*entry.model, products.merged_features, top_n);

          CellResult cell;
          cell.model = model_name;
          cell.attack = attack::display_name(attack_key);
          cell.source_category = scenario.source_category;
          cell.target_category = scenario.target_category;
          cell.semantically_similar = scenario.semantically_similar;
          cell.eps_255 = eps;
          cell.chr_before_source =
              (*entry.baseline_chr)[static_cast<std::size_t>(scenario.source_category)];
          cell.chr_before_target =
              (*entry.baseline_chr)[static_cast<std::size_t>(scenario.target_category)];
          cell.chr_after_source =
              metrics::category_hit_ratio(lists, dataset, scenario.source_category, top_n);
          cell.success_rate = products.success.success_rate;
          cell.mean_target_prob = products.success.mean_target_prob;
          cell.psnr = products.visual.psnr;
          cell.ssim = products.visual.ssim;
          cell.psm = products.visual.psm;
          results.cells.push_back(cell);
          log_info() << dataset.name << " " << model_name << " " << cell.attack
                     << " eps=" << eps << " " << scenario.label()
                     << ": CHR " << cell.chr_before_source << " -> "
                     << cell.chr_after_source << " (success " << cell.success_rate << ")";
        }
      }
    }
  }

  // Fig. 2: PGD eps=8 against VBPR on the similar scenario (as in the paper).
  const auto vbpr_scenarios = paper_scenarios(dataset.name, "VBPR");
  AttackProducts& fig2_products =
      get_products(vbpr_scenarios.front(), "pgd", 8.0f);
  results.fig2 =
      make_fig2_example(pipeline, *vbpr, vbpr_scenarios.front(), fig2_products);

  return results;
}

// ---- (de)serialization ------------------------------------------------------

namespace {
constexpr std::uint32_t kResultsMagic = 0x54414d52;  // "TAMR"
// Part of the cache file name: bump it whenever saved results change
// meaning, so stale cache files are not loaded.
constexpr std::uint32_t kResultsVersion = 7;

void write_cell(std::ostream& os, const CellResult& c) {
  io::write_string(os, c.model);
  io::write_string(os, c.attack);
  io::write_u64(os, static_cast<std::uint64_t>(c.source_category));
  io::write_u64(os, static_cast<std::uint64_t>(c.target_category));
  io::write_u32(os, c.semantically_similar ? 1 : 0);
  io::write_f32(os, c.eps_255);
  for (double v : {c.chr_before_source, c.chr_before_target, c.chr_after_source,
                   c.success_rate, c.mean_target_prob, c.psnr, c.ssim, c.psm}) {
    io::write_f32(os, static_cast<float>(v));
  }
}

CellResult read_cell(std::istream& is) {
  CellResult c;
  c.model = io::read_string(is);
  c.attack = io::read_string(is);
  c.source_category = static_cast<std::int32_t>(io::read_u64(is));
  c.target_category = static_cast<std::int32_t>(io::read_u64(is));
  c.semantically_similar = io::read_u32(is) != 0;
  c.eps_255 = io::read_f32(is);
  c.chr_before_source = io::read_f32(is);
  c.chr_before_target = io::read_f32(is);
  c.chr_after_source = io::read_f32(is);
  c.success_rate = io::read_f32(is);
  c.mean_target_prob = io::read_f32(is);
  c.psnr = io::read_f32(is);
  c.ssim = io::read_f32(is);
  c.psm = io::read_f32(is);
  return c;
}

std::vector<float> doubles_to_floats(const std::vector<double>& v) {
  return std::vector<float>(v.begin(), v.end());
}
std::vector<double> floats_to_doubles(const std::vector<float>& v) {
  return std::vector<double>(v.begin(), v.end());
}
}  // namespace

void save_results(const std::string& path, const DatasetResults& r) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("save_results: cannot open " + path);
  io::write_magic(os, kResultsMagic, kResultsVersion);
  io::write_string(os, r.dataset);
  io::write_f32(os, static_cast<float>(r.scale));
  io::write_u64(os, static_cast<std::uint64_t>(r.top_n));
  io::write_f32(os, static_cast<float>(r.classifier_accuracy));
  io::write_u64(os, static_cast<std::uint64_t>(r.stats.num_users));
  io::write_u64(os, static_cast<std::uint64_t>(r.stats.num_items));
  io::write_u64(os, static_cast<std::uint64_t>(r.stats.num_feedback));
  io::write_i64_vector(os, r.stats.items_per_category);
  io::write_i64_vector(os, r.stats.feedback_per_category);
  io::write_f32(os, static_cast<float>(r.vbpr_auc));
  io::write_f32(os, static_cast<float>(r.amr_auc));
  io::write_f32(os, static_cast<float>(r.vbpr_hr));
  io::write_f32(os, static_cast<float>(r.amr_hr));
  io::write_f32_vector(os, doubles_to_floats(r.vbpr_baseline_chr));
  io::write_f32_vector(os, doubles_to_floats(r.amr_baseline_chr));
  io::write_u64(os, r.cells.size());
  for (const CellResult& c : r.cells) write_cell(os, c);
  io::write_u64(os, static_cast<std::uint64_t>(r.fig2.item));
  io::write_u64(os, static_cast<std::uint64_t>(r.fig2.source_category));
  io::write_u64(os, static_cast<std::uint64_t>(r.fig2.target_category));
  for (double v : {r.fig2.source_prob_before, r.fig2.target_prob_after,
                   r.fig2.median_rank_before, r.fig2.median_rank_after, r.fig2.psnr,
                   r.fig2.ssim}) {
    io::write_f32(os, static_cast<float>(v));
  }
  write_tensor(os, r.fig2.clean);
  write_tensor(os, r.fig2.attacked);
}

DatasetResults load_results(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("load_results: cannot open " + path);
  const std::uint32_t version = io::read_magic(is, kResultsMagic);
  if (version != kResultsVersion) {
    throw std::runtime_error("load_results: unsupported version");
  }
  DatasetResults r;
  r.dataset = io::read_string(is);
  r.scale = io::read_f32(is);
  r.top_n = static_cast<std::int64_t>(io::read_u64(is));
  r.classifier_accuracy = io::read_f32(is);
  r.stats.num_users = static_cast<std::int64_t>(io::read_u64(is));
  r.stats.num_items = static_cast<std::int64_t>(io::read_u64(is));
  r.stats.num_feedback = static_cast<std::int64_t>(io::read_u64(is));
  r.stats.items_per_category = io::read_i64_vector(is);
  r.stats.feedback_per_category = io::read_i64_vector(is);
  if (r.stats.num_users > 0 && r.stats.num_items > 0) {
    r.stats.density = static_cast<double>(r.stats.num_feedback) /
                      (static_cast<double>(r.stats.num_users) *
                       static_cast<double>(r.stats.num_items));
    r.stats.mean_interactions_per_user = static_cast<double>(r.stats.num_feedback) /
                                         static_cast<double>(r.stats.num_users);
  }
  r.vbpr_auc = io::read_f32(is);
  r.amr_auc = io::read_f32(is);
  r.vbpr_hr = io::read_f32(is);
  r.amr_hr = io::read_f32(is);
  r.vbpr_baseline_chr = floats_to_doubles(io::read_f32_vector(is));
  r.amr_baseline_chr = floats_to_doubles(io::read_f32_vector(is));
  const std::uint64_t n = io::read_u64(is);
  r.cells.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) r.cells.push_back(read_cell(is));
  r.fig2.item = static_cast<std::int32_t>(io::read_u64(is));
  r.fig2.source_category = static_cast<std::int32_t>(io::read_u64(is));
  r.fig2.target_category = static_cast<std::int32_t>(io::read_u64(is));
  r.fig2.source_prob_before = io::read_f32(is);
  r.fig2.target_prob_after = io::read_f32(is);
  r.fig2.median_rank_before = io::read_f32(is);
  r.fig2.median_rank_after = io::read_f32(is);
  r.fig2.psnr = io::read_f32(is);
  r.fig2.ssim = io::read_f32(is);
  r.fig2.clean = read_tensor(is);
  r.fig2.attacked = read_tensor(is);
  return r;
}

DatasetResults run_or_load_experiment(const ExperimentConfig& config,
                                      const std::string& cache_dir) {
  std::string path;
  if (!cache_dir.empty()) {
    std::ostringstream key;
    key << "results_" << (config.pipeline.dataset_name == "Amazon Men" ? "men" : "women")
        << "_s" << config.pipeline.scale << "_seed" << config.pipeline.seed << "_n"
        << config.pipeline.top_n << "_v" << kResultsVersion << ".bin";
    std::filesystem::create_directories(cache_dir);
    path = (std::filesystem::path(cache_dir) / key.str()).string();
    if (std::filesystem::exists(path)) {
      log_info() << "loading cached experiment results from " << path;
      return load_results(path);
    }
  }
  DatasetResults results = run_dataset_experiment(config);
  if (!path.empty()) {
    save_results(path, results);
    log_info() << "saved experiment results to " << path;
  }
  return results;
}

}  // namespace taamr::core
