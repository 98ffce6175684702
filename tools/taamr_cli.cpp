// taamr — the command-line driver for the library. Subcommands:
//
//   taamr stats   --dataset "Amazon Men" [--save men.bin]
//       dataset statistics + per-category composition (Table I material)
//
//   taamr render  --category Sock --seed 7 --out sock.ppm [--size 32] [--upscale 8]
//       render one procedural product image to a viewable PPM
//
//   taamr attack  --dataset "Amazon Men" --source Sock --target "Running Shoe"
//                 [--attack pgd|fgsm|mim|cw|...] [--eps 8] [--model vbpr|amr]
//       run one TAaMR scenario end-to-end and print CHR / success / quality
//
// stats and attack read TAAMR_SCALE, TAAMR_SEED and TAAMR_CACHE_DIR through
// core::experiment_config, as every bench does. An unknown flag exits 2.
//
// Fig. 2's before/after images come from bench/fig2_example.
#include <iostream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "data/categories.hpp"
#include "data/serialize.hpp"
#include "metrics/chr.hpp"
#include "recsys/ranker.hpp"
#include "util/args.hpp"
#include "util/ppm.hpp"
#include "util/table.hpp"

namespace {

using namespace taamr;

int usage() {
  std::cerr << "usage: taamr <stats|render|attack> [--flags]\n"
               "run `taamr <subcommand> --help` conventions: see the header of\n"
               "tools/taamr_cli.cpp for every flag.\n";
  return 2;
}

// 2 after naming the first flag the subcommand did not read, else 0. Checked
// before any work, so a stale --scale cannot run another configuration.
int unknown_flag(const ArgParser& args) {
  const std::vector<std::string> unused = args.unused();
  if (unused.empty()) return 0;
  std::cerr << "taamr: unknown flag --" << unused.front() << "\n";
  return 2;
}

int cmd_stats(const ArgParser& args) {
  const core::PipelineConfig cfg =
      core::experiment_config(args.get("dataset", "Amazon Men")).pipeline;
  const std::string save = args.get("save", "");
  if (const int rc = unknown_flag(args)) return rc;
  const auto ds =
      data::generate_synthetic_dataset(data::spec_by_name(cfg.dataset_name, cfg.scale));
  const auto stats = data::compute_stats(ds);
  Table t("Dataset statistics: " + ds.name);
  t.header({"|U|", "|I|", "|S|", "density", "mean |I_u|"});
  t.row({Table::count(stats.num_users), Table::count(stats.num_items),
         Table::count(stats.num_feedback), Table::fmt(stats.density * 100.0, 4) + "%",
         Table::fmt(stats.mean_interactions_per_user, 2)});
  t.print(std::cout);

  Table c("Per-category composition");
  c.header({"Category", "items", "train feedback"});
  for (std::int32_t cat = 0; cat < data::num_categories(); ++cat) {
    c.row({data::category_name(cat),
           Table::count(stats.items_per_category[static_cast<std::size_t>(cat)]),
           Table::count(stats.feedback_per_category[static_cast<std::size_t>(cat)])});
  }
  c.print(std::cout);
  if (!save.empty()) {
    data::save_dataset_file(save, ds);
    std::cout << "dataset written to " << save << "\n";
  }
  return 0;
}

int cmd_render(const ArgParser& args) {
  const std::int32_t category = data::category_id_by_name(args.get("category"));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  data::ImageGenConfig cfg;
  cfg.size = args.get_int("size", 32);
  const std::string out = args.get("out", "item.ppm");
  const std::int64_t upscale = args.get_int("upscale", 8);
  if (const int rc = unknown_flag(args)) return rc;
  const Tensor img = data::render_item_image(
      data::fashion_taxonomy()[static_cast<std::size_t>(category)].style, seed, cfg);
  write_ppm(out, img, static_cast<int>(upscale));
  std::cout << "wrote " << out << " (" << cfg.size << "x" << cfg.size << ", " << upscale
            << "x upscale)\n";
  return 0;
}

int cmd_attack(const ArgParser& args) {
  const core::PipelineConfig cfg =
      core::experiment_config(args.get("dataset", "Amazon Men")).pipeline;
  const std::int32_t source = data::category_id_by_name(args.get("source", "Sock"));
  const std::int32_t target =
      data::category_id_by_name(args.get("target", "Running Shoe"));
  const float eps = static_cast<float>(args.get_double("eps", 8.0));
  const std::string model_name = args.get("model", "vbpr");
  const std::string attack_key = args.get("attack", "pgd");
  if (const int rc = unknown_flag(args)) return rc;
  // Throws for an unknown key (listing the known ones) before any training.
  const std::string attack_name = attack::display_name(attack_key);
  if (model_name != "vbpr" && model_name != "amr") {
    throw std::invalid_argument("unknown --model '" + model_name + "' (vbpr|amr)");
  }

  core::Pipeline pipeline(cfg);
  pipeline.prepare();
  const auto& ds = pipeline.dataset();
  const std::unique_ptr<recsys::Vbpr> model =
      model_name == "vbpr" ? pipeline.train_vbpr() : pipeline.train_amr();

  const auto batch = pipeline.attack_category(source, target, attack_key, eps);
  const auto measured = pipeline.measure_attack(batch.items, batch.attacked_images, target);
  const auto& success = measured.success;
  const auto& visual = measured.visual;
  const recsys::Ranking clean = recsys::rank_all_users(
      *model, ds, cfg.top_n + static_cast<std::int64_t>(batch.items.size()));
  const double chr_before =
      metrics::category_hit_ratio(recsys::item_lists(clean, cfg.top_n), ds, source, cfg.top_n);
  const auto after = pipeline.lists_under_attack(*model, clean, batch.items,
                                                 measured.attacked_features, cfg.top_n);
  const double chr_after = metrics::category_hit_ratio(after, ds, source, cfg.top_n);

  Table t("TAaMR: " + data::category_name(source) + " -> " +
          data::category_name(target) + " | " + attack_name + " eps=" +
          Table::fmt(eps, 0) + "/255 | " + model->name() + " on " + ds.name);
  t.header({"attacked items", "success", "CHR@100 before", "CHR@100 after", "PSNR",
            "SSIM", "PSM"});
  t.row({std::to_string(batch.items.size()), Table::pct(success.success_rate, 1),
         Table::fmt(chr_before * 100, 3) + "%", Table::fmt(chr_after * 100, 3) + "%",
         Table::fmt(visual.psnr, 2) + " dB", Table::fmt(visual.ssim, 4),
         Table::fmt(visual.psm, 4)});
  t.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace taamr;
  if (argc < 2) return usage();
  const std::string command = argv[1];
  ArgParser args(argc - 1, argv + 1);
  try {
    if (command == "stats") return cmd_stats(args);
    if (command == "render") return cmd_render(args);
    if (command == "attack") return cmd_attack(args);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
