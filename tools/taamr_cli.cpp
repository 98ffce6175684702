// taamr — the command-line driver for the library. Subcommands:
//
//   taamr stats   --dataset "Amazon Men" [--scale 0.025]
//       dataset statistics + per-category composition (Table I material)
//
//   taamr render  --category Sock --seed 7 --out sock.ppm [--size 32] [--upscale 8]
//       render one procedural product image to a viewable PPM
//
//   taamr attack  --dataset "Amazon Men" --source Sock --target "Running Shoe"
//                 [--attack pgd|fgsm|mim|cw|...] [--eps 8] [--scale 0.01]
//                 [--model vbpr|amr] [--cache taamr_cache]
//       run one TAaMR scenario end-to-end and print CHR / success / quality
//
// Fig. 2's before/after images come from bench/fig2_example.
#include <iostream>

#include "core/pipeline.hpp"
#include "data/categories.hpp"
#include "data/serialize.hpp"
#include "metrics/chr.hpp"
#include "metrics/image_quality.hpp"
#include "metrics/success.hpp"
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

int cmd_stats(const ArgParser& args) {
  const std::string dataset_name = args.get("dataset", "Amazon Men");
  const double scale = args.get_double("scale", data::kBenchScale);
  const auto ds =
      data::generate_synthetic_dataset(data::spec_by_name(dataset_name, scale));
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
  if (args.has("save")) {
    data::save_dataset_file(args.get("save"), ds);
    std::cout << "dataset written to " << args.get("save") << "\n";
  }
  return 0;
}

int cmd_render(const ArgParser& args) {
  const std::int32_t category = data::category_id_by_name(args.get("category"));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  data::ImageGenConfig cfg;
  cfg.size = args.get_int("size", 32);
  const Tensor img = data::render_item_image(
      data::fashion_taxonomy()[static_cast<std::size_t>(category)].style, seed, cfg);
  const std::string out = args.get("out", "item.ppm");
  write_ppm(out, img, static_cast<int>(args.get_int("upscale", 8)));
  std::cout << "wrote " << out << " (" << cfg.size << "x" << cfg.size << ", "
            << args.get_int("upscale", 8) << "x upscale)\n";
  return 0;
}

int cmd_attack(const ArgParser& args) {
  core::PipelineConfig cfg;
  cfg.dataset_name = args.get("dataset", "Amazon Men");
  cfg.scale = args.get_double("scale", 0.01);
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  cfg.cache_dir = args.get("cache", "taamr_cache");
  const std::int32_t source = data::category_id_by_name(args.get("source", "Sock"));
  const std::int32_t target =
      data::category_id_by_name(args.get("target", "Running Shoe"));
  const float eps = static_cast<float>(args.get_double("eps", 8.0));
  const std::string model_name = args.get("model", "vbpr");
  const std::string attack_key = args.get("attack", "pgd");
  // Throws for an unknown key (listing the known ones) before any training.
  const std::string attack_name = attack::display_name(attack_key);

  core::Pipeline pipeline(cfg);
  pipeline.prepare();
  const auto& ds = pipeline.dataset();
  std::unique_ptr<recsys::Vbpr> model;
  if (model_name == "vbpr") {
    model = pipeline.train_vbpr();
  } else if (model_name == "amr") {
    model = pipeline.train_amr();
  } else {
    throw std::invalid_argument("unknown --model '" + model_name + "' (vbpr|amr)");
  }

  const auto batch = pipeline.attack_category(source, target, attack_key, eps);
  const auto success =
      metrics::attack_success(pipeline.classifier(), batch.attacked_images, target);
  const auto visual = metrics::average_visual_quality(
      pipeline.classifier(), batch.clean_images, batch.attacked_images);
  const auto before = recsys::top_n_lists(*model, ds, cfg.top_n);
  const double chr_before = metrics::category_hit_ratio(before, ds, source, cfg.top_n);
  const auto after = pipeline.lists_under_attack(
      *model, pipeline.features_with_attack(batch.items, batch.attacked_images),
      cfg.top_n);
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
    int rc;
    if (command == "stats") {
      rc = cmd_stats(args);
    } else if (command == "render") {
      rc = cmd_render(args);
    } else if (command == "attack") {
      rc = cmd_attack(args);
    } else {
      return usage();
    }
    for (const std::string& flag : args.unused()) {
      std::cerr << "warning: unused flag --" << flag << "\n";
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
