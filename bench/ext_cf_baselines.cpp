// Extension bench: how does TAaMR affect recommenders that do NOT look at
// images? MostPop, ItemKNN and BPR-MF are structurally immune (their
// scores never touch f_e), which bounds the attack surface to the
// multimedia pathway — a control the paper implies but does not print.
#include <iostream>

#include "bench_common.hpp"
#include "core/pipeline.hpp"
#include "data/categories.hpp"
#include "metrics/chr.hpp"
#include "metrics/ranking.hpp"
#include "recsys/bpr_mf.hpp"
#include "recsys/item_knn.hpp"
#include "recsys/mostpop.hpp"
#include "recsys/ranker.hpp"
#include "recsys/trainer.hpp"
#include "util/table.hpp"

int main() {
  using namespace taamr;
  bench::Reporter reporter("ext_cf_baselines");

  const core::PipelineConfig cfg = core::experiment_config("Amazon Men").pipeline;
  core::Pipeline pipeline(cfg);
  pipeline.prepare();
  const auto& ds = pipeline.dataset();

  // Victim + three image-blind baselines.
  auto vbpr = pipeline.train_vbpr();
  recsys::MostPop mostpop(ds);
  recsys::ItemKnn knn(ds);
  Rng mf_rng(77);
  recsys::BprMfConfig mf_cfg;
  mf_cfg.epochs = 120;
  recsys::BprMf bpr(ds, mf_cfg, mf_rng);
  bpr.fit(ds, mf_rng);

  const auto batch = pipeline.attack_category(data::kSock, data::kRunningShoe,
                                              "pgd", 16.0f);
  const Tensor attacked = pipeline.classifier().features(batch.attacked_images);
  const recsys::Ranking vbpr_clean = recsys::rank_all_users(
      *vbpr, ds, 100 + static_cast<std::int64_t>(batch.items.size()));

  Table t("CHR@100 of Sock and HR@100, clean vs after PGD eps=16 "
          "(image-blind models cannot move)");
  t.header({"Model", "AUC", "HR@100", "CHR before (%)", "CHR after (%)"});

  Rng ev(88);
  auto add_row = [&](const std::string& name, recsys::Recommender& model,
                     bool uses_images) {
    const double auc = recsys::sampled_auc(model, ds, ev, 30);
    const auto before = recsys::top_n_lists(model, ds, 100);
    const double hr = metrics::hit_ratio_at_n(before, ds);
    const double chr_before =
        metrics::category_hit_ratio(before, ds, data::kSock, 100);
    double chr_after = chr_before;
    if (uses_images) {
      const auto after =
          pipeline.lists_under_attack(*vbpr, vbpr_clean, batch.items, attacked, 100);
      chr_after = metrics::category_hit_ratio(after, ds, data::kSock, 100);
    }
    reporter.add_metric("auc", {{"model", name}}, auc);
    reporter.add_metric("hr", {{"model", name}}, hr);
    reporter.add_metric("chr_after_source", {{"model", name}}, chr_after);
    reporter.add_examples(1.0);
    t.row({name, Table::fmt(auc, 3), Table::fmt(hr, 3),
           Table::fmt(chr_before * 100, 3),
           uses_images ? Table::fmt(chr_after * 100, 3) : "(immune)"});
  };
  add_row("VBPR", *vbpr, /*uses_images=*/true);
  add_row("BPR-MF", bpr, false);
  add_row("ItemKNN", knn, false);
  add_row("MostPop", mostpop, false);
  t.print(std::cout);
  std::cout << "\nReading: the multimedia pathway is both what makes VBPR's "
               "ranking quality competitive AND the only door TAaMR can walk "
               "through — purely collaborative models trade accuracy on cold "
               "items for structural immunity.\n";
  return 0;
}
