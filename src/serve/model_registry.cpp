#include "serve/model_registry.hpp"

#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "recsys/bpr_mf.hpp"
#include "recsys/vbpr.hpp"

namespace taamr::serve {

ModelRegistry::ModelRegistry(const data::ImplicitDataset& dataset) : dataset_(dataset) {}

void ModelRegistry::register_model(const std::string& name,
                                   std::shared_ptr<const recsys::Recommender> model,
                                   bool visual) {
  if (!model) throw std::invalid_argument("ModelRegistry: null model for " + name);
  if (model->num_users() != dataset_.num_users ||
      model->num_items() != dataset_.num_items) {
    throw std::invalid_argument("ModelRegistry: model '" + name +
                                "' does not match the serving dataset");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = models_[name];
  e.model = std::move(model);
  ++e.version;
  e.visual = visual;
  obs::MetricsRegistry::global()
      .counter("serve_model_swaps_total", {{"model", name}})
      .increment();
}

void ModelRegistry::swap(const std::string& name,
                         std::shared_ptr<const recsys::Recommender> model) {
  if (!model) throw std::invalid_argument("ModelRegistry: null model for " + name);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = models_.find(name);
  if (it == models_.end()) {
    throw std::runtime_error("ModelRegistry: unknown model '" + name + "'");
  }
  it->second.model = std::move(model);
  ++it->second.version;
  obs::MetricsRegistry::global()
      .counter("serve_model_swaps_total", {{"model", name}})
      .increment();
}

void ModelRegistry::swap_features(const std::string& name,
                                  std::shared_ptr<const recsys::Recommender> model,
                                  std::uint64_t feature_epoch) {
  if (!model) throw std::invalid_argument("ModelRegistry: null model for " + name);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = models_.find(name);
  if (it == models_.end()) {
    throw std::runtime_error("ModelRegistry: unknown model '" + name + "'");
  }
  it->second.model = std::move(model);
  it->second.feature_epoch = feature_epoch;
}

ModelRegistry::Snapshot ModelRegistry::get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = models_.find(name);
  if (it == models_.end()) {
    std::string known;
    for (const auto& [n, _] : models_) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::runtime_error("ModelRegistry: unknown model '" + name +
                             "' (registered: " + (known.empty() ? "none" : known) + ")");
  }
  return {it->second.model, it->second.version, it->second.feature_epoch,
          it->second.visual};
}

bool ModelRegistry::has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return models_.count(name) != 0;
}

std::vector<std::string> ModelRegistry::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(models_.size());
  for (const auto& [name, _] : models_) out.push_back(name);
  return out;
}

void ModelRegistry::load_vbpr(const std::string& name, const std::string& path) {
  TAAMR_TRACE_SPAN("serve/model_load");
  auto model = std::make_shared<recsys::Vbpr>(recsys::Vbpr::load_file(path, dataset_));
  register_model(name, std::move(model), /*visual=*/true);
}

void ModelRegistry::load_bpr_mf(const std::string& name, const std::string& path) {
  TAAMR_TRACE_SPAN("serve/model_load");
  auto model = std::make_shared<recsys::BprMf>(recsys::BprMf::load_file(path, dataset_));
  register_model(name, std::move(model), /*visual=*/false);
}

}  // namespace taamr::serve
