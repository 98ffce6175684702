#include "recsys/bpr_mf.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "util/io.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace taamr::recsys {

namespace {
inline float sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }
}

BprMf::BprMf(const data::ImplicitDataset& dataset, BprMfConfig config, Rng& rng)
    : config_(config),
      user_factors_({dataset.num_users, config.factors}),
      item_factors_({dataset.num_items, config.factors}),
      item_bias_({dataset.num_items}),
      sampler_(dataset) {
  for (float& v : user_factors_.storage()) v = rng.gaussian_f(0.0f, config.init_stddev);
  for (float& v : item_factors_.storage()) v = rng.gaussian_f(0.0f, config.init_stddev);
}

void BprMf::score_users(std::span<const std::int64_t> users,
                        std::span<float> out) const {
  check_score_users(users, out, "BprMf::score_users");
  const std::int64_t k = config_.factors, items = num_items();
  for (std::size_t r = 0; r < users.size(); ++r) {
    const float* p = user_factors_.data() + users[r] * k;
    float* row = out.data() + static_cast<std::int64_t>(r) * items;
    for (std::int64_t i = 0; i < items; ++i) {
      const float* q = item_factors_.data() + i * k;
      float s = item_bias_[i];
      for (std::int64_t f = 0; f < k; ++f) s += p[f] * q[f];
      row[i] = s;
    }
  }
}

float BprMf::train_epoch(const data::ImplicitDataset& dataset, Rng& rng) {
  const std::int64_t steps = dataset.num_train_feedback();
  const std::int64_t k = config_.factors;
  const float lr = config_.learning_rate;
  const float reg = config_.reg_factors;
  const float reg_b = config_.reg_bias;
  double loss_sum = 0.0;

  for (std::int64_t step = 0; step < steps; ++step) {
    const Triplet t = sampler_.sample(rng);
    float* p = user_factors_.data() + t.user * k;
    float* qi = item_factors_.data() + t.pos_item * k;
    float* qj = item_factors_.data() + t.neg_item * k;

    float x = item_bias_[t.pos_item] - item_bias_[t.neg_item];
    for (std::int64_t f = 0; f < k; ++f) x += p[f] * (qi[f] - qj[f]);
    const float g = sigmoid(-x);  // d(-ln sigma(x))/dx = -sigma(-x)
    loss_sum += -std::log(std::max(sigmoid(x), 1e-12f));

    for (std::int64_t f = 0; f < k; ++f) {
      const float pu = p[f], qif = qi[f], qjf = qj[f];
      p[f] += lr * (g * (qif - qjf) - reg * pu);
      qi[f] += lr * (g * pu - reg * qif);
      qj[f] += lr * (-g * pu - reg * qjf);
    }
    item_bias_[t.pos_item] += lr * (g - reg_b * item_bias_[t.pos_item]);
    item_bias_[t.neg_item] += lr * (-g - reg_b * item_bias_[t.neg_item]);
  }
  return static_cast<float>(loss_sum / static_cast<double>(steps));
}

namespace {
constexpr std::uint32_t kBprMagic = 0x54414d42;  // "TAMB"
constexpr std::uint32_t kBprVersion = 1;
}  // namespace

BprMf::BprMf(const data::ImplicitDataset& dataset, BprMfConfig config, LoadTag)
    : config_(config), sampler_(dataset) {}

void BprMf::save(std::ostream& os) const {
  io::write_magic(os, kBprMagic, kBprVersion);
  io::write_u64(os, static_cast<std::uint64_t>(config_.factors));
  io::write_f32(os, config_.learning_rate);
  io::write_f32(os, config_.reg_factors);
  io::write_f32(os, config_.reg_bias);
  for (const Tensor* t : {&user_factors_, &item_factors_, &item_bias_}) {
    write_tensor(os, *t);
  }
}

BprMf BprMf::load(std::istream& is, const data::ImplicitDataset& dataset) {
  try {
    const std::uint32_t version = io::read_magic(is, kBprMagic);
    if (version != kBprVersion) {
      throw std::runtime_error("BprMf::load: unsupported version " +
                               std::to_string(version));
    }
    BprMfConfig config;
    config.factors = static_cast<std::int64_t>(io::read_u64(is));
    config.learning_rate = io::read_f32(is);
    config.reg_factors = io::read_f32(is);
    config.reg_bias = io::read_f32(is);
    BprMf model(dataset, config, LoadTag{});
    for (Tensor* t : {&model.user_factors_, &model.item_factors_, &model.item_bias_}) {
      *t = read_tensor(is);
    }
    if (model.user_factors_.ndim() != 2 ||
        model.user_factors_.dim(0) != dataset.num_users ||
        model.item_factors_.ndim() != 2 ||
        model.item_factors_.dim(0) != dataset.num_items ||
        model.item_factors_.dim(1) != config.factors ||
        model.item_bias_.numel() != dataset.num_items) {
      throw std::runtime_error("BprMf::load: checkpoint does not match the dataset");
    }
    return model;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    if (what.rfind("BprMf::load", 0) == 0) throw;
    throw std::runtime_error("BprMf::load: corrupt or truncated checkpoint (" + what + ")");
  }
}

void BprMf::save_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("BprMf::save_file: cannot open " + path);
  save(os);
}

BprMf BprMf::load_file(const std::string& path, const data::ImplicitDataset& dataset) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("BprMf::load_file: cannot open " + path);
  return load(is, dataset);
}

void BprMf::fit(const data::ImplicitDataset& dataset, Rng& rng, bool verbose) {
  auto& loss_hist = obs::MetricsRegistry::global().histogram(
      "bpr_mf_epoch_loss", {}, obs::exponential_bounds(1e-3, 2.0, 20));
  for (std::int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
    TAAMR_TRACE_SPAN("recsys/bpr_mf/epoch");
    const float loss = train_epoch(dataset, rng);
    loss_hist.observe(static_cast<double>(loss));
    if (verbose && (epoch + 1) % 20 == 0) {
      log_info() << "bpr-mf epoch " << (epoch + 1) << "/" << config_.epochs
                 << " loss=" << loss;
    }
  }
}

}  // namespace taamr::recsys
