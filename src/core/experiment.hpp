// Experiment runner: executes the paper's full evaluation grid for one
// dataset — {VBPR, AMR} x {FGSM, PGD} x eps in {2,4,8,16} x {similar,
// dissimilar scenario} — and gathers everything Tables II, III and IV and
// Fig. 2 report. Results are (de)serializable so the per-table bench
// binaries share one computation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "attack/attack.hpp"
#include "core/pipeline.hpp"
#include "core/scenario.hpp"
#include "data/interactions.hpp"
#include "metrics/image_quality.hpp"

namespace taamr::core {

struct ExperimentConfig {
  PipelineConfig pipeline;
  std::vector<float> eps_grid_255 = {2.0f, 4.0f, 8.0f, 16.0f};
  // Registry keys (see attack::registered()).
  std::vector<std::string> attacks = {"fgsm", "pgd"};
};

// The one reader of TAAMR_SCALE (default data::kBenchScale), TAAMR_SEED
// (42) and TAAMR_CACHE_DIR (./taamr_cache; CNN checkpoints and results).
// Every bench, example and taamr subcommand builds its configuration from
// experiment_config, so they run one world and share one CNN checkpoint.
double env_scale();
std::uint64_t env_seed();
std::string env_cache_dir();
ExperimentConfig experiment_config(const std::string& dataset);

// One (model, attack, scenario, eps) grid cell.
struct CellResult {
  std::string model;   // "VBPR" / "AMR"
  std::string attack;  // "FGSM" / "PGD"
  std::int32_t source_category = 0;
  std::int32_t target_category = 0;
  bool semantically_similar = false;
  float eps_255 = 0.0f;

  double chr_before_source = 0.0;  // CHR@N of the source category, clean
  double chr_before_target = 0.0;  // CHR@N of the target category, clean
  double chr_after_source = 0.0;   // CHR@N of the source category, attacked

  double success_rate = 0.0;       // Table III
  double mean_target_prob = 0.0;

  double psnr = 0.0;  // Table IV
  double ssim = 0.0;
  double psm = 0.0;
};

// The paper's Fig. 2: one concrete product before/after a PGD eps=8 attack.
struct Fig2Example {
  std::int32_t item = -1;
  std::int32_t source_category = 0;
  std::int32_t target_category = 0;
  double source_prob_before = 0.0;  // classifier prob of the source class, clean
  double target_prob_after = 0.0;   // classifier prob of the target class, attacked
  double median_rank_before = 0.0;  // median rec. position across sampled users
  double median_rank_after = 0.0;
  double psnr = 0.0;
  double ssim = 0.0;
  // The item's image before and after, [3, S, S], from the batch the
  // numbers above were measured on.
  Tensor clean;
  Tensor attacked;
};

struct DatasetResults {
  std::string dataset;
  double scale = 0.0;
  std::int64_t top_n = 0;
  double classifier_accuracy = 0.0;
  data::DatasetStats stats;

  // Sanity metrics per model (leave-one-out).
  double vbpr_auc = 0.0, amr_auc = 0.0;
  double vbpr_hr = 0.0, amr_hr = 0.0;

  // Baseline CHR@N per category (indices into fashion_taxonomy()).
  std::vector<double> vbpr_baseline_chr;
  std::vector<double> amr_baseline_chr;

  std::vector<CellResult> cells;
  Fig2Example fig2;
};

// Runs the full grid. Expensive (trains the CNN unless cached via
// pipeline.cache_dir, trains both recommenders, runs every attack).
DatasetResults run_dataset_experiment(const ExperimentConfig& config);

// Disk cache keyed by the experiment configuration; lets each bench binary
// reuse one expensive run. cache_dir == "" forces recomputation.
DatasetResults run_or_load_experiment(const ExperimentConfig& config,
                                      const std::string& cache_dir);

void save_results(const std::string& path, const DatasetResults& results);
DatasetResults load_results(const std::string& path);

}  // namespace taamr::core
