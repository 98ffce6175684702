// Extension bench: the full attack zoo side by side — FGSM, PGD (the
// paper's pair), MIM and C&W (the future-work additions) — on the paper's
// similar scenario. Reports targeted success, the CHR shift they induce on
// VBPR, and their distortion footprint.
#include <iostream>

#include "attack/carlini_wagner.hpp"
#include "bench_common.hpp"
#include "core/pipeline.hpp"
#include "data/categories.hpp"
#include "metrics/chr.hpp"
#include "metrics/image_quality.hpp"
#include "metrics/success.hpp"
#include "recsys/ranker.hpp"
#include "util/table.hpp"

int main() {
  using namespace taamr;
  bench::Reporter reporter("ext_attack_zoo");

  core::PipelineConfig cfg = bench::experiment_config("Amazon Men").pipeline;
  cfg.scale = 0.01;
  core::Pipeline pipeline(cfg);
  pipeline.prepare();
  const auto& ds = pipeline.dataset();
  auto vbpr = pipeline.train_vbpr();

  const std::int32_t source = data::kSock, target = data::kRunningShoe;
  const auto items = ds.items_of_category(source);
  const Tensor clean = data::gather_images(pipeline.catalog(), items);
  const std::vector<std::int64_t> targets(items.size(),
                                          static_cast<std::int64_t>(target));
  const auto baseline_lists = recsys::top_n_lists(*vbpr, ds, 100);
  const double chr_before =
      metrics::category_hit_ratio(baseline_lists, ds, source, 100);
  std::cout << "Scenario: " << data::category_name(source) << " -> "
            << data::category_name(target) << " on " << items.size()
            << " items; baseline CHR@100 = " << Table::fmt(chr_before * 100, 3)
            << "%\n\n";

  Table t("Attack zoo at eps = 8/255 (C&W is unconstrained-L2 by design)");
  t.header({"Attack", "success", "CHR@100 after (%)", "PSNR (dB)", "SSIM", "PSM"});

  auto evaluate = [&](const std::string& name, const Tensor& adv) {
    const auto success =
        metrics::attack_success(pipeline.classifier(), adv, target, name);
    const auto visual =
        metrics::average_visual_quality(pipeline.classifier(), clean, adv);
    const auto lists =
        pipeline.lists_under_attack(*vbpr, pipeline.features_with_attack(items, adv), 100);
    const double chr = metrics::category_hit_ratio(lists, ds, source, 100);
    reporter.add_metric("success_rate", {{"attack", name}}, success.success_rate);
    reporter.add_metric("chr_after_source", {{"attack", name}}, chr);
    reporter.add_metric("psnr", {{"attack", name}}, visual.psnr);
    reporter.add_metric("ssim", {{"attack", name}}, visual.ssim);
    reporter.add_examples(static_cast<double>(items.size()));
    t.row({name, Table::pct(success.success_rate, 1), Table::fmt(chr * 100, 3),
           Table::fmt(visual.psnr, 2), Table::fmt(visual.ssim, 4),
           Table::fmt(visual.psm, 4)});
  };

  attack::AttackConfig acfg;
  acfg.epsilon = attack::epsilon_from_255(8.0f);
  {
    Rng rng(1001);
    evaluate("FGSM", attack::make("fgsm", acfg)
                         ->perturb(pipeline.classifier(), clean, targets, rng));
  }
  {
    Rng rng(1002);
    evaluate("PGD-10", attack::make("pgd", acfg)
                           ->perturb(pipeline.classifier(), clean, targets, rng));
  }
  {
    Rng rng(1003);
    evaluate("MIM-10", attack::make("mim", acfg)
                           ->perturb(pipeline.classifier(), clean, targets, rng));
  }
  {
    // project_linf = 0 keeps the paper's unconstrained-L2 comparison (the
    // table header calls it out); the registry default would clamp C&W
    // into the same eps ball as the others.
    attack::AttackConfig cw_cfg = acfg;
    cw_cfg.iterations = 60;
    cw_cfg.params = {{"binary_search_steps", 3.0f}, {"project_linf", 0.0f}};
    auto cw = attack::make("cw", cw_cfg);
    Rng rng(1004);
    evaluate("C&W-L2", cw->perturb(pipeline.classifier(), clean, targets, rng));
    const auto& cw_ref = dynamic_cast<const attack::CarliniWagner&>(*cw);
    std::cout << "C&W: " << cw_ref.last_successes() << "/" << items.size()
              << " succeeded, mean L2 of successes = "
              << Table::fmt(cw_ref.last_mean_l2(), 3) << "\n\n";
  }
  t.print(std::cout);
  std::cout << "\nExpected shape: iterative attacks (PGD/MIM) dominate FGSM at the "
               "same budget; C&W reaches high success with the smallest perceptual "
               "footprint (highest PSNR/SSIM) because it optimizes distortion "
               "directly.\n";
  return 0;
}
