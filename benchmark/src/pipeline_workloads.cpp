// pipeline_cold and attack_grid: the paper's evaluation grid (Tables II-IV)
// through core::run_or_load_experiment, the call every table bench makes.
//
// pipeline_cold runs the grid for both datasets at scale 0.004 into a fresh
// cache directory, so the CNN trains once and the second dataset loads it,
// as on a user's first table2_chr. CNN training is most of its time.
//
// attack_grid runs the grid at scale 0.025 against a CNN checkpoint trained
// during set-up by a one-thread child (bitwise deterministic), with no
// results cache, so attacks are most of its time and the paper metrics are
// a pure function of the seed.
//
// A traced run replays the same grid through Pipeline's public stage calls
// with a span around each, then probes the CNN layer by layer and the
// serving layers over the workload's dataset.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>

#include "core/experiment.hpp"
#include "data/amazon_synth.hpp"
#include "data/dataset.hpp"
#include "metrics/chr.hpp"
#include "metrics/ranking.hpp"
#include "obs/procstat.hpp"
#include "probes.hpp"
#include "recsys/ranker.hpp"
#include "recsys/trainer.hpp"
#include "server_process.hpp"
#include "stats.hpp"
#include "tensor/cost.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

namespace taamr::bench {

namespace {


const std::vector<std::string> kDatasets = {"Amazon Men", "Amazon Women"};
constexpr std::size_t kCellsPerDataset = 32;  // {VBPR,AMR} x 2 scenarios x {FGSM,PGD} x 4 eps

// The quality floors catch broken training, not a weak seed. Over 32 seeds
// at scale 0.004 the held-out CNN accuracy (16 categories, chance 0.0625)
// ranged 0.58-0.85 and Amazon Women's VBPR AUC 0.546-0.637, and 4-thread
// training moves both from run to run, so the floors sit clear of that
// range: 0.4 accuracy and 0.5 AUC, which is ranking no better than chance.
struct PipelineSetup {
  bool cold = true;
  core::PipelineConfig base;  // everything but dataset, seed and cache dir
  double min_accuracy = 0.4;
  double min_auc = 0.5;
};

PipelineSetup pipeline_setup(bool cold, bool smoke) {
  PipelineSetup s;
  s.cold = cold;
  s.base.scale = cold ? data::kTestScale : data::kBenchScale;
  if (smoke) {
    // Tiny and fast; too short-trained for the quality floors to mean much.
    s.base.scale = data::kTestScale;
    s.base.image_size = 16;
    s.base.cnn_epochs = 1;
    s.base.cnn_images_per_category = 16;
    s.base.vbpr.epochs = 5;
    s.base.amr_warm_epochs = 3;
    s.base.amr_adversarial_epochs = 3;
    s.min_accuracy = 0.0;
    s.min_auc = 0.0;
  }
  return s;
}

core::ExperimentConfig experiment_config(const PipelineSetup& s, const std::string& dataset,
                                         std::uint64_t seed, const std::string& cnn_cache) {
  core::ExperimentConfig cfg;
  cfg.pipeline = s.base;
  cfg.pipeline.dataset_name = dataset;
  cfg.pipeline.seed = seed;
  cfg.pipeline.cache_dir = cnn_cache;
  return cfg;
}

bool in_unit(double v) { return v >= 0.0 && v <= 1.0; }

void check_results(const core::DatasetResults& r, const PipelineSetup& s, Result& result) {
  result.check(r.cells.size() == kCellsPerDataset,
               r.dataset + ": " + std::to_string(r.cells.size()) + " grid cells, expected 32");
  for (const core::CellResult& c : r.cells) {
    ++result.attempted;
    const bool ok = in_unit(c.chr_before_source) && in_unit(c.chr_before_target) &&
                    in_unit(c.chr_after_source) && in_unit(c.success_rate) &&
                    std::isfinite(c.psnr) && c.ssim > 0.0 && c.ssim <= 1.0;
    if (!ok) ++result.failed;
    result.check(ok, r.dataset + " " + c.model + " " + c.attack + " eps " +
                         std::to_string(c.eps_255) +
                         ": CHR/success outside [0,1], PSNR not finite or SSIM outside (0,1]");
  }
  result.check(r.classifier_accuracy >= s.min_accuracy,
               r.dataset + ": CNN accuracy " + std::to_string(r.classifier_accuracy) +
                   " below " + std::to_string(s.min_accuracy));
  result.check(r.vbpr_auc >= s.min_auc && r.amr_auc >= s.min_auc,
               r.dataset + ": AUC (VBPR " + std::to_string(r.vbpr_auc) + ", AMR " +
                   std::to_string(r.amr_auc) + ") below " + std::to_string(s.min_auc));
}

// FNV-1a over the bytes of every reported value, so two runs agree on the
// digest only if they agree bit for bit.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
  }
  void add(double v) { add_bytes(&v, sizeof(v)); }
  void add(const std::string& s) { add_bytes(s.data(), s.size()); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string results_digest(const std::vector<core::DatasetResults>& all) {
  Digest d;
  for (const core::DatasetResults& r : all) {
    d.add(r.dataset);
    for (double v : {r.classifier_accuracy, r.vbpr_auc, r.amr_auc}) d.add(v);
    for (const core::CellResult& c : r.cells) {
      d.add(c.model);
      d.add(c.attack);
      for (double v : {static_cast<double>(c.source_category),
                       static_cast<double>(c.target_category),
                       c.semantically_similar ? 1.0 : 0.0, static_cast<double>(c.eps_255),
                       c.chr_before_source, c.chr_before_target, c.chr_after_source,
                       c.success_rate, c.mean_target_prob, c.psnr, c.ssim, c.psm}) {
        d.add(v);
      }
    }
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(d.value()));
  return buf;
}

// The inputs the grid is computed from: both datasets with their rendered
// catalogs and the CNN's training images, all from the seed.
void synthesize_inputs(const PipelineSetup& s, std::uint64_t seed) {
  const data::ImageGenConfig images = s.base.image_config();
  for (const std::string& name : kDatasets) {
    const data::ImplicitDataset dataset =
        data::generate_synthetic_dataset(data::spec_by_name(name, s.base.scale));
    const data::ImageCatalog catalog = data::render_catalog(dataset, images);
    if (catalog.num_items() != dataset.num_items) {
      throw std::logic_error("catalog does not cover the dataset");
    }
  }
  data::render_training_set(s.base.cnn_images_per_category, seed ^ 0x11111111u, images);
}

// One job: the grid for both datasets, as table2_chr computes it. Cold jobs
// cache the CNN and results into `cache_dir` like a user's first run; warm
// jobs load the CNN from it and keep no results cache.
std::vector<core::DatasetResults> run_job(const PipelineSetup& s, std::uint64_t seed,
                                          const std::string& cache_dir) {
  std::vector<core::DatasetResults> out;
  for (const std::string& name : kDatasets) {
    out.push_back(core::run_or_load_experiment(experiment_config(s, name, seed, cache_dir),
                                               s.cold ? cache_dir : std::string()));
  }
  return out;
}

// core::run_dataset_experiment rebuilt from Pipeline's public stage calls,
// in the same order (so the Pipeline's RNG forks line up and the cells match
// bit for bit), with a span around each call. Leaves out the Fig. 2 example,
// which is a few dozen single-user rankings.
core::DatasetResults replay_dataset(const core::ExperimentConfig& cfg, core::Pipeline& pipeline,
                                    SpanRecorder* spans, PrepareClock& prepare,
                                    Result& result) {
  traced_prepare(pipeline, spans, prepare);
  const data::ImplicitDataset& dataset = pipeline.dataset();
  const std::int64_t top_n = cfg.pipeline.top_n;

  core::DatasetResults r;
  r.dataset = dataset.name;
  r.scale = cfg.pipeline.scale;
  r.top_n = top_n;
  r.classifier_accuracy = pipeline.classifier_accuracy();
  r.stats = data::compute_stats(dataset);

  std::unique_ptr<recsys::Vbpr> vbpr;
  std::unique_ptr<recsys::Amr> amr;
  {
    ScopedSpan span(spans, "recsys/train_vbpr");
    vbpr = pipeline.train_vbpr();
  }
  {
    ScopedSpan span(spans, "recsys/train_amr");
    amr = pipeline.train_amr();
  }
  {
    ScopedSpan span(spans, "recsys/auc");
    Rng eval_rng(cfg.pipeline.seed ^ 0xe7a1);
    r.vbpr_auc = recsys::sampled_auc(*vbpr, dataset, eval_rng);
    r.amr_auc = recsys::sampled_auc(*amr, dataset, eval_rng);
  }
  std::vector<std::vector<std::int32_t>> vbpr_lists, amr_lists;
  {
    ScopedSpan span(spans, "recsys/rank", 0, 2);
    vbpr_lists = recsys::top_n_lists(*vbpr, dataset, top_n);
    amr_lists = recsys::top_n_lists(*amr, dataset, top_n);
  }
  {
    ScopedSpan span(spans, "metrics/chr");
    r.vbpr_hr = metrics::hit_ratio_at_n(vbpr_lists, dataset);
    r.amr_hr = metrics::hit_ratio_at_n(amr_lists, dataset);
    r.vbpr_baseline_chr = metrics::category_hit_ratio_all(vbpr_lists, dataset, top_n);
    r.amr_baseline_chr = metrics::category_hit_ratio_all(amr_lists, dataset, top_n);
  }

  std::map<std::tuple<std::int32_t, std::int32_t, std::string, float>, AttackProducts> products;
  const std::vector<std::pair<std::string, std::pair<recsys::Vbpr*, const std::vector<double>*>>>
      models = {{"VBPR", {vbpr.get(), &r.vbpr_baseline_chr}},
                {"AMR", {amr.get(), &r.amr_baseline_chr}}};
  for (const auto& [model_name, entry] : models) {
    const auto [model, baseline] = entry;
    for (const core::AttackScenario& scenario : core::paper_scenarios(dataset.name, model_name)) {
      for (const std::string& attack_key : cfg.attacks) {
        for (const float eps : cfg.eps_grid_255) {
          const auto key =
              std::make_tuple(scenario.source_category, scenario.target_category, attack_key, eps);
          auto it = products.find(key);
          if (it == products.end()) {
            it = products
                     .emplace(key, make_attack_products(pipeline, scenario, attack_key, eps,
                                                        spans, result))
                     .first;
          }
          const AttackProducts& p = it->second;
          std::vector<std::vector<std::int32_t>> lists;
          {
            ScopedSpan span(spans, "recsys/rank");
            model->set_item_features(p.merged_features);
            lists = recsys::top_n_lists(*model, dataset, top_n);
            model->set_item_features(pipeline.clean_features());
          }
          core::CellResult cell;
          cell.model = model_name;
          cell.attack = attack::display_name(attack_key);
          cell.source_category = scenario.source_category;
          cell.target_category = scenario.target_category;
          cell.semantically_similar = scenario.semantically_similar;
          cell.eps_255 = eps;
          cell.chr_before_source = (*baseline)[static_cast<std::size_t>(scenario.source_category)];
          cell.chr_before_target = (*baseline)[static_cast<std::size_t>(scenario.target_category)];
          {
            ScopedSpan span(spans, "metrics/chr");
            cell.chr_after_source =
                metrics::category_hit_ratio(lists, dataset, scenario.source_category, top_n);
          }
          cell.success_rate = p.success.success_rate;
          cell.mean_target_prob = p.success.mean_target_prob;
          cell.psnr = p.visual.psnr;
          cell.ssim = p.visual.ssim;
          cell.psm = p.visual.psm;
          r.cells.push_back(cell);
        }
      }
    }
  }
  return r;
}

Result run_pipeline(const RunOptions& o, bool cold) {
  namespace fs = std::filesystem;
  const PipelineSetup s = pipeline_setup(cold, o.smoke);
  Result result;

  // ---- set-up ----
  const std::string checkpoint_dir = o.work_dir + "/checkpoint";
  std::vector<double> setup_times;
  if (cold) {
    for (int k = 0; k < 5; ++k) {
      const Stopwatch t0;
      synthesize_inputs(s, o.seed);
      setup_times.push_back(t0.seconds());
    }
  } else {
    std::vector<std::string> argv = {o.self_exe, "--train-checkpoint", checkpoint_dir,
                                     "--seed", std::to_string(o.seed)};
    if (o.smoke) argv.push_back("--smoke");
    const Stopwatch t0;
    const int code = wait_process(
        spawn_process(argv, o.work_dir + "/checkpoint.log", {"TAAMR_THREADS=1"}));
    setup_times.push_back(t0.seconds());
    if (code != 0) throw std::runtime_error("checkpoint training exited with code " + std::to_string(code));
  }
  std::cout << "setup " << (cold ? "input synthesis" : "1-thread CNN checkpoint") << ": "
            << setup_times.size() << " x, median " << median(setup_times) << " s\n"
            << "warm-up " << warm_up_cpus() << " s\n";

  // ---- timed phase: whole jobs while they fit in the budget ----
  std::vector<double> walls;
  std::vector<core::DatasetResults> last;
  std::size_t cells = 0;
  const Stopwatch phase;
  do {
    const std::string cache =
        cold ? o.work_dir + "/cold-" + std::to_string(walls.size()) : checkpoint_dir;
    const Stopwatch t0;
    last = run_job(s, o.seed, cache);
    walls.push_back(t0.seconds());
    for (const core::DatasetResults& r : last) {
      std::cout << r.dataset << ": CNN accuracy " << r.classifier_accuracy << ", AUC VBPR "
                << r.vbpr_auc << " AMR " << r.amr_auc << "\n";
      check_results(r, s, result);
      cells += r.cells.size();
    }
    if (cold) fs::remove_all(cache);
    std::cout << "job " << walls.size() << ": " << walls.back() << " s\n";
  } while (phase.seconds() + walls.back() <= o.seconds);
  const std::string digest = results_digest(last);
  std::cout << "digest " << digest << "\n";

  const double job_s = median(walls);
  if (!o.trace) {
    double total = 0.0;
    for (const double w : walls) total += w;
    result.set("setup_s", median(setup_times));
    result.set("throughput_per_s", static_cast<double>(cells) / total);
    result.set("latency_p50_ms", job_s * 1e3);
    result.set("peak_rss_mb", static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0));
    return result;
  }

  // ---- traced replay of one job ----
  cost::enable();
  const CostSnapshot cost_before = CostSnapshot::now();
  SpanRecorder spans;
  PrepareClock prepare;
  std::vector<core::DatasetResults> replayed;
  std::unique_ptr<core::Pipeline> men;
  const std::string replay_cache = cold ? o.work_dir + "/replay" : checkpoint_dir;
  const Stopwatch t0;
  {
    ScopedSpan root(&spans, "replay");
    for (const std::string& name : kDatasets) {
      const core::ExperimentConfig cfg = experiment_config(s, name, o.seed, replay_cache);
      auto pipeline = std::make_unique<core::Pipeline>(cfg.pipeline);
      replayed.push_back(replay_dataset(cfg, *pipeline, &spans, prepare, result));
      if (!men) men = std::move(pipeline);
    }
  }
  const double replay_s = t0.seconds();
  for (const core::DatasetResults& r : replayed) check_results(r, s, result);
  const std::string replay_digest = results_digest(replayed);
  std::cout << "digest replay " << replay_digest << "\n";
  if (!cold) {
    result.check(replay_digest == digest,
                 "traced replay digest " + replay_digest + " differs from the untraced run's " + digest);
    if (replay_digest == digest) std::cout << "digest match\n";
  }
  set_tensor_metrics(result, cost_before);
  set_stage_metrics(result, spans.spans(), prepare);
  result.set("trace.overhead_pct", (replay_s - job_s) / job_s * 100.0);

  {
    ScopedSpan probe(&spans, "probe/nn");
    nn_layer_probe(men->classifier(), men->catalog().images, result);
  }
  serve_layer_probe(kDatasets.front(), s.base.scale, o, result, &spans);
  spans.write_chrome_json(o.trace_file);
  return result;
}

}  // namespace

Result run_pipeline_cold(const RunOptions& options) { return run_pipeline(options, true); }
Result run_attack_grid(const RunOptions& options) { return run_pipeline(options, false); }

int train_checkpoint(const std::string& cache_dir, std::uint64_t seed, bool smoke) {
  const PipelineSetup s = pipeline_setup(/*cold=*/false, smoke);
  const core::ExperimentConfig cfg = experiment_config(s, kDatasets.front(), seed, cache_dir);
  core::Pipeline pipeline(cfg.pipeline);
  pipeline.prepare();
  return 0;
}

}  // namespace taamr::bench
