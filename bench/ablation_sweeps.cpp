// Ablations over the design knobs DESIGN.md calls out (smaller scale than
// the table benches so the whole sweep stays cheap):
//   (a) CHR@N cut-off N (the paper fixes N = 100)
//   (b) PGD iteration count (the paper fixes 10)
//   (c) AMR adversarial regularizer weight gamma (the paper fixes 0.1)
//   (d) VBPR visual factor dimension A
#include <iostream>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "data/categories.hpp"
#include "metrics/chr.hpp"
#include "metrics/success.hpp"
#include "recsys/ranker.hpp"
#include "recsys/trainer.hpp"
#include "util/table.hpp"

namespace {
constexpr double kAblationScale = 0.01;
}

int main() {
  using namespace taamr;
  bench::Reporter reporter("ablation_sweeps");

  core::PipelineConfig cfg = bench::experiment_config("Amazon Men").pipeline;
  cfg.scale = kAblationScale;
  core::Pipeline pipeline(cfg);
  pipeline.prepare();
  const auto& ds = pipeline.dataset();
  auto vbpr = pipeline.train_vbpr();

  // Shared PGD eps=8 attack on the similar scenario.
  const auto batch = pipeline.attack_category(data::kSock, data::kRunningShoe,
                                              "pgd", 8.0f);
  const Tensor attacked_features =
      pipeline.features_with_attack(batch.items, batch.attacked_images);

  // --- (a) CHR@N vs N ------------------------------------------------------
  {
    Table t("Ablation (a): CHR@N of Sock before/after PGD eps=8 vs cut-off N");
    t.header({"N", "CHR before (%)", "CHR after (%)", "lift"});
    for (std::int64_t n : {20, 50, 100, 200}) {
      const auto before = recsys::top_n_lists(*vbpr, ds, n);
      const double chr_before = metrics::category_hit_ratio(before, ds, data::kSock, n);
      const auto after = pipeline.lists_under_attack(*vbpr, attacked_features, n);
      const double chr_after = metrics::category_hit_ratio(after, ds, data::kSock, n);
      reporter.add_metric("ablation_chr_after", {{"sweep", "topn"}, {"n", std::to_string(n)}},
                          chr_after);
      reporter.add_examples(1.0);
      t.row({std::to_string(n), Table::fmt(chr_before * 100.0, 3),
             Table::fmt(chr_after * 100.0, 3),
             Table::fmt(chr_before > 0 ? chr_after / chr_before : 0.0, 2) + "x"});
    }
    t.print(std::cout);
    std::cout << "\n";
  }

  // --- (b) PGD iterations ---------------------------------------------------
  {
    Table t("Ablation (b): targeted success of PGD eps=8 vs iteration count");
    t.header({"iterations", "Sock -> Running Shoe", "Sock -> Analog Clock"});
    for (std::int64_t iters : {1, 5, 10, 20, 40}) {
      std::vector<std::string> row = {std::to_string(iters)};
      for (std::int32_t target : {data::kRunningShoe, data::kAnalogClock}) {
        attack::AttackConfig acfg;
        acfg.epsilon = attack::epsilon_from_255(8.0f);
        acfg.iterations = iters;
        auto attacker = attack::make("pgd", acfg);
        const auto items = ds.items_of_category(data::kSock);
        const Tensor clean = data::gather_images(pipeline.catalog(), items);
        const std::vector<std::int64_t> targets(items.size(), target);
        Rng rng(1234 + static_cast<std::uint64_t>(iters));
        const Tensor adv = attacker->perturb(pipeline.classifier(), clean, targets, rng);
        const double sr =
            metrics::attack_success(pipeline.classifier(), adv, target).success_rate;
        reporter.add_metric("ablation_success_rate",
                            {{"sweep", "pgd_iters"},
                             {"iters", std::to_string(iters)},
                             {"target", data::category_name(target)}},
                            sr);
        reporter.add_examples(1.0);
        row.push_back(Table::pct(sr, 1));
      }
      t.row(row);
    }
    t.print(std::cout);
    std::cout << "\n";
  }

  // --- (c) AMR gamma --------------------------------------------------------
  {
    Table t("Ablation (c): AMR robustness vs adversarial regularizer gamma "
            "(CHR of Sock after PGD eps=8, lower lift = more robust)");
    t.header({"gamma", "AUC", "CHR before (%)", "CHR after (%)", "lift"});
    for (float gamma : {0.0f, 0.1f, 0.5f, 1.0f}) {
      core::PipelineConfig acfg = cfg;
      acfg.amr_adversarial.gamma = gamma;
      core::Pipeline apipe(acfg);
      apipe.prepare();  // cached CNN -> cheap
      auto amr = apipe.train_amr();
      Rng ev(99);
      const double auc = recsys::sampled_auc(*amr, ds, ev, 30);
      const auto before = recsys::top_n_lists(*amr, ds, 100);
      const double chr_before =
          metrics::category_hit_ratio(before, ds, data::kSock, 100);
      const auto after = apipe.lists_under_attack(*amr, attacked_features, 100);
      const double chr_after = metrics::category_hit_ratio(after, ds, data::kSock, 100);
      reporter.add_metric("ablation_chr_after",
                          {{"sweep", "amr_gamma"}, {"gamma", Table::fmt(gamma, 1)}},
                          chr_after);
      reporter.add_examples(1.0);
      t.row({Table::fmt(gamma, 1), Table::fmt(auc, 3), Table::fmt(chr_before * 100.0, 3),
             Table::fmt(chr_after * 100.0, 3),
             Table::fmt(chr_before > 0 ? chr_after / chr_before : 0.0, 2) + "x"});
    }
    t.print(std::cout);
    std::cout << "\n";
  }

  // --- (d) VBPR visual dimension A -----------------------------------------
  {
    Table t("Ablation (d): VBPR quality and attack lift vs visual factors A");
    t.header({"A", "AUC", "CHR before (%)", "CHR after (%)"});
    for (std::int64_t a : {4, 8, 16, 32}) {
      core::PipelineConfig vcfg = cfg;
      vcfg.vbpr.visual_factors = a;
      core::Pipeline vpipe(vcfg);
      vpipe.prepare();
      auto model = vpipe.train_vbpr();
      Rng ev(77);
      const double auc = recsys::sampled_auc(*model, ds, ev, 30);
      const auto before = recsys::top_n_lists(*model, ds, 100);
      const double chr_before =
          metrics::category_hit_ratio(before, ds, data::kSock, 100);
      const auto after = vpipe.lists_under_attack(*model, attacked_features, 100);
      const double chr_after = metrics::category_hit_ratio(after, ds, data::kSock, 100);
      reporter.add_metric("ablation_chr_after",
                          {{"sweep", "visual_factors"}, {"a", std::to_string(a)}},
                          chr_after);
      reporter.add_metric("ablation_auc",
                          {{"sweep", "visual_factors"}, {"a", std::to_string(a)}}, auc);
      reporter.add_examples(1.0);
      t.row({std::to_string(a), Table::fmt(auc, 3), Table::fmt(chr_before * 100.0, 3),
             Table::fmt(chr_after * 100.0, 3)});
    }
    t.print(std::cout);
  }
  return 0;
}
