#include "recsys/vbpr.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "util/io.hpp"

#include "obs/trace.hpp"
#include "tensor/cost.hpp"
#include "tensor/ops.hpp"
#include "util/logging.hpp"

namespace taamr::recsys {

namespace {
inline float sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

Tensor transposed_2d(const Tensor& t) {
  const std::int64_t r = t.dim(0), c = t.dim(1);
  Tensor out({c, r});
  for (std::int64_t i = 0; i < r; ++i) {
    for (std::int64_t j = 0; j < c; ++j) out.at(j, i) = t.at(i, j);
  }
  return out;
}
}

FeatureTransform FeatureTransform::fit(const Tensor& raw_features) {
  if (raw_features.ndim() != 2 || raw_features.dim(0) == 0) {
    throw std::invalid_argument("FeatureTransform::fit: expected non-empty [I, D]");
  }
  const std::int64_t n = raw_features.dim(0), d = raw_features.dim(1);
  FeatureTransform t;
  t.mean = Tensor({d});
  for (std::int64_t j = 0; j < d; ++j) {
    double acc = 0.0;
    for (std::int64_t i = 0; i < n; ++i) acc += raw_features.at(i, j);
    t.mean[j] = static_cast<float>(acc / static_cast<double>(n));
  }
  double var = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < d; ++j) {
      const double dev = raw_features.at(i, j) - t.mean[j];
      var += dev * dev;
    }
  }
  var /= static_cast<double>(n * d);
  const double stddev = std::sqrt(var);
  t.inv_scale = stddev > 1e-8 ? static_cast<float>(1.0 / stddev) : 1.0f;
  return t;
}

Tensor FeatureTransform::apply(const Tensor& raw_features) const {
  if (raw_features.ndim() != 2 || raw_features.dim(1) != mean.dim(0)) {
    throw std::invalid_argument("FeatureTransform::apply: feature dim mismatch");
  }
  Tensor out = raw_features;
  const std::int64_t n = out.dim(0), d = out.dim(1);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < d; ++j) {
      out.at(i, j) = (out.at(i, j) - mean[j]) * inv_scale;
    }
  }
  return out;
}

Vbpr::Vbpr(const data::ImplicitDataset& dataset, const Tensor& raw_features,
           VbprConfig config, Rng& rng)
    : config_(config),
      transform_(FeatureTransform::fit(raw_features)),
      features_(transform_.apply(raw_features)),
      user_factors_({dataset.num_users, config.mf_factors}),
      item_factors_({dataset.num_items, config.mf_factors}),
      item_bias_({dataset.num_items}),
      user_visual_({dataset.num_users, config.visual_factors}),
      embedding_({config.visual_factors, raw_features.dim(1)}),
      visual_bias_({raw_features.dim(1)}),
      sampler_(dataset) {
  if (raw_features.dim(0) != dataset.num_items) {
    throw std::invalid_argument("Vbpr: features row count must equal num_items");
  }
  for (float& v : user_factors_.storage()) v = rng.gaussian_f(0.0f, config.init_stddev);
  for (float& v : item_factors_.storage()) v = rng.gaussian_f(0.0f, config.init_stddev);
  for (float& v : user_visual_.storage()) v = rng.gaussian_f(0.0f, config.init_stddev);
  for (float& v : embedding_.storage()) v = rng.gaussian_f(0.0f, config.init_stddev);
  rebuild_caches();
}

void Vbpr::rebuild_caches() {
  // Theta^T = E F^T: column i is theta_i = E f_i, [A, D] x [I, D]^T -> [A, I].
  theta_cache_t_ =
      ops::matmul(embedding_, features_, /*trans_a=*/false, /*trans_b=*/true);
  visual_bias_cache_ = ops::matvec(features_, visual_bias_);
  // score_users' other right-hand side, transposed once so every ranking
  // pass runs plain NN GEMMs without re-materializing Q^T.
  item_factors_t_ = transposed_2d(item_factors_);
  caches_fresh_ = true;
}

void Vbpr::set_item_features(const Tensor& raw_features) {
  if (raw_features.ndim() != 2 || raw_features.dim(0) != num_items() ||
      raw_features.dim(1) != feature_dim()) {
    throw std::invalid_argument("Vbpr::set_item_features: shape mismatch");
  }
  features_ = transform_.apply(raw_features);
  rebuild_caches();
}

void Vbpr::score_users(std::span<const std::int64_t> users,
                       std::span<float> out) const {
  if (!caches_fresh_) {
    throw std::logic_error(
        "Vbpr: scoring caches are stale (call fit/set_item_features first)");
  }
  check_score_users(users, out, "Vbpr::score_users");
  score_block(users, item_factors_t_, theta_cache_t_, item_bias_, visual_bias_cache_, out);
}

void Vbpr::score_items(std::span<const std::int64_t> users,
                       std::span<const std::int32_t> items, const Tensor& raw_features,
                       std::span<float> out) const {
  if (!caches_fresh_) {
    throw std::logic_error(
        "Vbpr: scoring caches are stale (call fit/set_item_features first)");
  }
  const std::int64_t m = static_cast<std::int64_t>(items.size());
  if (raw_features.ndim() != 2 || raw_features.dim(0) != m ||
      raw_features.dim(1) != feature_dim()) {
    throw std::invalid_argument("Vbpr::score_items: expected [items, D] features");
  }
  if (out.size() != users.size() * items.size()) {
    throw std::invalid_argument("Vbpr::score_items: out must be [users, items]");
  }
  for (const std::int64_t u : users) {
    if (u < 0 || u >= num_users()) {
      throw std::invalid_argument("Vbpr::score_items: user out of range");
    }
  }
  for (const std::int32_t i : items) {
    if (i < 0 || i >= num_items()) {
      throw std::invalid_argument("Vbpr::score_items: item out of range");
    }
  }
  if (users.empty() || items.empty()) return;
  // The item-side operands rebuild_caches would hold for these items: Q^T
  // columns gathered, Theta^T columns and beta.f_i from the standardized
  // rows. Each is per item, so they match the full caches' columns.
  const Tensor f = transform_.apply(raw_features);
  const std::int64_t k = config_.mf_factors;
  Tensor q_t({k, m});
  Tensor bias({m});
  for (std::int64_t j = 0; j < m; ++j) {
    const std::int64_t item = items[static_cast<std::size_t>(j)];
    for (std::int64_t p = 0; p < k; ++p) q_t.at(p, j) = item_factors_t_.at(p, item);
    bias[j] = item_bias_[item];
  }
  score_block(users, q_t, ops::matmul(embedding_, f, /*trans_a=*/false, /*trans_b=*/true),
              bias, ops::matvec(f, visual_bias_), out);
}

void Vbpr::score_block(std::span<const std::int64_t> users, const Tensor& q_t,
                       const Tensor& theta_t, const Tensor& item_bias,
                       const Tensor& visual_bias, std::span<float> out) const {
  if (users.empty()) return;
  const std::int64_t items = q_t.dim(1);
  const std::int64_t rows = static_cast<std::int64_t>(users.size());
  const std::int64_t k = config_.mf_factors, a = config_.visual_factors;
  Tensor p_block({rows, k});
  Tensor a_block({rows, a});
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int64_t u = users[static_cast<std::size_t>(r)];
    std::memcpy(p_block.data() + r * k, user_factors_.data() + u * k,
                static_cast<std::size_t>(k) * sizeof(float));
    std::memcpy(a_block.data() + r * a, user_visual_.data() + u * a,
                static_cast<std::size_t>(a) * sizeof(float));
  }
  Tensor s = ops::matmul(p_block, q_t);        // [U_b, J]
  ops::matmul_accumulate(s, a_block, theta_t);  // += alpha Theta^T
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* srow = s.data() + r * items;
    float* orow = out.data() + r * items;
    for (std::int64_t i = 0; i < items; ++i) {
      orow[i] = srow[i] + item_bias[i] + visual_bias[i];
    }
  }
  // The GEMMs book themselves under the gemm family; the bias broadcast is
  // the remaining per-score work.
  cost::add(cost::Kernel::kRecsysScore,
            static_cast<double>(rows) * static_cast<double>(items) * 2.0,
            static_cast<double>(rows) * static_cast<double>(items) * 12.0);
}

float Vbpr::train_epoch(const data::ImplicitDataset& dataset, Rng& rng,
                        const std::optional<AdversarialOptions>& adversarial) {
  caches_fresh_ = false;
  const std::int64_t steps = dataset.num_train_feedback();
  const std::int64_t k = config_.mf_factors;
  const std::int64_t a = config_.visual_factors;
  const std::int64_t d = feature_dim();
  const float lr = config_.learning_rate;
  const float reg = config_.reg_factors;
  const float reg_b = config_.reg_bias;
  const float reg_v = config_.reg_visual;
  double loss_sum = 0.0;

  std::vector<float> theta_i(static_cast<std::size_t>(a)),
      theta_j(static_cast<std::size_t>(a)), dir(static_cast<std::size_t>(d));

  for (std::int64_t step = 0; step < steps; ++step) {
    const Triplet t = sampler_.sample(rng);
    float* p = user_factors_.data() + t.user * k;
    float* qi = item_factors_.data() + t.pos_item * k;
    float* qj = item_factors_.data() + t.neg_item * k;
    float* alpha = user_visual_.data() + t.user * a;
    const float* fi = features_.data() + t.pos_item * d;
    const float* fj = features_.data() + t.neg_item * d;

    // theta = E f for both items (E changes every step; no cache).
    for (std::int64_t r = 0; r < a; ++r) {
      const float* erow = embedding_.data() + r * d;
      float acc_i = 0.0f, acc_j = 0.0f;
      for (std::int64_t c = 0; c < d; ++c) {
        acc_i += erow[c] * fi[c];
        acc_j += erow[c] * fj[c];
      }
      theta_i[static_cast<std::size_t>(r)] = acc_i;
      theta_j[static_cast<std::size_t>(r)] = acc_j;
    }

    float x = item_bias_[t.pos_item] - item_bias_[t.neg_item];
    for (std::int64_t f = 0; f < k; ++f) x += p[f] * (qi[f] - qj[f]);
    for (std::int64_t f = 0; f < a; ++f) {
      x += alpha[f] * (theta_i[static_cast<std::size_t>(f)] -
                       theta_j[static_cast<std::size_t>(f)]);
    }
    float dvis = 0.0f;
    for (std::int64_t c = 0; c < d; ++c) dvis += visual_bias_[c] * (fi[c] - fj[c]);
    x += dvis;

    const float g = sigmoid(-x);
    loss_sum += -std::log(std::max(sigmoid(x), 1e-12f));

    // AMR regularizer (Eq. 8-10): perturb features along the loss gradient
    // direction dL/df = -+ g * (E^T alpha + beta), normalized to length eta.
    float g_adv = 0.0f;
    float gamma = 0.0f, eta_norm = 0.0f;
    if (adversarial.has_value()) {
      gamma = adversarial->gamma;
      float norm2 = 0.0f;
      for (std::int64_t c = 0; c < d; ++c) {
        float v = visual_bias_[c];
        for (std::int64_t r = 0; r < a; ++r) {
          v += embedding_.data()[r * d + c] * alpha[r];
        }
        dir[static_cast<std::size_t>(c)] = v;
        norm2 += v * v;
      }
      const float norm = std::sqrt(norm2);
      if (norm > 1e-12f) {
        // Delta_i = -eta * dir/|dir| (lowers s_ui), Delta_j = +eta * dir/|dir|.
        // x_adv = x - 2 * eta * |dir| * ... projected change below.
        eta_norm = adversarial->eta / norm;
        // The visual part of x is dir.(fi - fj). Perturbing fi -> fi - eta*u
        // and fj -> fj + eta*u with u = dir/|dir| changes x by exactly
        // dir.(-eta*u) - dir.(+eta*u) = -2*eta*|dir|.
        const float x_adv = x - 2.0f * adversarial->eta * norm;
        g_adv = sigmoid(-x_adv);
        loss_sum += gamma * -std::log(std::max(sigmoid(x_adv), 1e-12f));
      } else {
        gamma = 0.0f;
      }
    }
    const float g_total = g + gamma * g_adv;

    // Collaborative parameters see g_total (their gradient shape is shared
    // between the clean and adversarial terms).
    for (std::int64_t f = 0; f < k; ++f) {
      const float pu = p[f], qif = qi[f], qjf = qj[f];
      p[f] += lr * (g_total * (qif - qjf) - reg * pu);
      qi[f] += lr * (g_total * pu - reg * qif);
      qj[f] += lr * (-g_total * pu - reg * qjf);
    }
    item_bias_[t.pos_item] += lr * (g_total - reg_b * item_bias_[t.pos_item]);
    item_bias_[t.neg_item] += lr * (-g_total - reg_b * item_bias_[t.neg_item]);

    // alpha: clean term uses theta(f), adversarial term uses theta(f+Delta);
    // theta_adv_i - theta_adv_j = E(fi-fj) - 2*eta*E u.
    for (std::int64_t f = 0; f < a; ++f) {
      const float dtheta = theta_i[static_cast<std::size_t>(f)] -
                           theta_j[static_cast<std::size_t>(f)];
      float update = g * dtheta;
      if (g_adv != 0.0f && gamma != 0.0f) {
        const float* erow = embedding_.data() + f * d;
        float eu = 0.0f;
        for (std::int64_t c = 0; c < d; ++c) {
          eu += erow[c] * dir[static_cast<std::size_t>(c)];
        }
        update += gamma * g_adv * (dtheta - 2.0f * eta_norm * eu);
      }
      alpha[f] += lr * (update - reg * alpha[f]);
    }

    // E and beta: gradient is outer(alpha, df) and df respectively, with
    // df = fi - fj for the clean term and df - 2*eta*u for the adversarial.
    for (std::int64_t c = 0; c < d; ++c) {
      const float df = fi[c] - fj[c];
      float coeff = g * df;
      if (g_adv != 0.0f && gamma != 0.0f) {
        coeff += gamma * g_adv *
                 (df - 2.0f * eta_norm * dir[static_cast<std::size_t>(c)]);
      }
      visual_bias_[c] += lr * (coeff - reg_v * visual_bias_[c]);
      for (std::int64_t r = 0; r < a; ++r) {
        float& e = embedding_.data()[r * d + c];
        e += lr * (coeff * alpha[r] - reg_v * e);
      }
    }
  }
  return static_cast<float>(loss_sum / static_cast<double>(steps));
}

namespace {
constexpr std::uint32_t kVbprMagic = 0x54414d56;  // "TAMV"
constexpr std::uint32_t kVbprVersion = 1;
}  // namespace

Vbpr::Vbpr(const data::ImplicitDataset& dataset, VbprConfig config, LoadTag)
    : config_(config), sampler_(dataset) {}

void Vbpr::save(std::ostream& os) const {
  io::write_magic(os, kVbprMagic, kVbprVersion);
  io::write_u64(os, static_cast<std::uint64_t>(config_.mf_factors));
  io::write_u64(os, static_cast<std::uint64_t>(config_.visual_factors));
  io::write_f32(os, config_.learning_rate);
  io::write_f32(os, config_.reg_factors);
  io::write_f32(os, config_.reg_bias);
  io::write_f32(os, config_.reg_visual);
  write_tensor(os, transform_.mean);
  io::write_f32(os, transform_.inv_scale);
  for (const Tensor* t : {&features_, &user_factors_, &item_factors_, &item_bias_,
                          &user_visual_, &embedding_, &visual_bias_}) {
    write_tensor(os, *t);
  }
}

Vbpr Vbpr::load(std::istream& is, const data::ImplicitDataset& dataset) {
  try {
    const std::uint32_t version = io::read_magic(is, kVbprMagic);
    if (version != kVbprVersion) {
      throw std::runtime_error("Vbpr::load: unsupported version");
    }
    VbprConfig config;
    config.mf_factors = static_cast<std::int64_t>(io::read_u64(is));
    config.visual_factors = static_cast<std::int64_t>(io::read_u64(is));
    config.learning_rate = io::read_f32(is);
    config.reg_factors = io::read_f32(is);
    config.reg_bias = io::read_f32(is);
    config.reg_visual = io::read_f32(is);
    if (config.mf_factors <= 0 || config.mf_factors > (1 << 20) ||
        config.visual_factors <= 0 || config.visual_factors > (1 << 20)) {
      throw std::runtime_error("Vbpr::load: implausible factor counts (corrupt checkpoint?)");
    }
    Vbpr model(dataset, config, LoadTag{});
    model.transform_.mean = read_tensor(is);
    model.transform_.inv_scale = io::read_f32(is);
    for (Tensor* t : {&model.features_, &model.user_factors_, &model.item_factors_,
                      &model.item_bias_, &model.user_visual_, &model.embedding_,
                      &model.visual_bias_}) {
      *t = read_tensor(is);
    }
    if (model.features_.ndim() != 2 || model.features_.dim(0) != dataset.num_items ||
        model.user_factors_.dim(0) != dataset.num_users) {
      throw std::runtime_error("Vbpr::load: checkpoint does not match the dataset");
    }
    model.rebuild_caches();
    return model;
  } catch (const std::runtime_error& e) {
    // Low-level io errors gain checkpoint context; our own pass through.
    const std::string what = e.what();
    if (what.rfind("Vbpr::load", 0) == 0) throw;
    throw std::runtime_error("Vbpr::load: corrupt or truncated checkpoint (" + what + ")");
  }
}

void Vbpr::save_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("Vbpr::save_file: cannot open " + path);
  save(os);
}

Vbpr Vbpr::load_file(const std::string& path, const data::ImplicitDataset& dataset) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("Vbpr::load_file: cannot open " + path);
  return load(is, dataset);
}

void Vbpr::fit(const data::ImplicitDataset& dataset, Rng& rng, bool verbose) {
  for (std::int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
    TAAMR_TRACE_SPAN("recsys/vbpr/epoch");
    const float loss = train_epoch(dataset, rng);
    if (verbose && (epoch + 1) % 20 == 0) {
      log_info() << name() << " epoch " << (epoch + 1) << "/" << config_.epochs
                 << " loss=" << loss;
    }
  }
  rebuild_caches();
}

}  // namespace taamr::recsys
