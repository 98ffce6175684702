#include "attack/attack.hpp"

#include <stdexcept>

#include "attack/carlini_wagner.hpp"
#include "attack/feature_match.hpp"
#include "attack/fgsm.hpp"
#include "attack/mim.hpp"
#include "attack/pgd.hpp"
#include "tensor/simd/dispatch.hpp"

namespace taamr::attack {

void AttackConfig::validate() const {
  if (epsilon <= 0.0f) throw std::invalid_argument("AttackConfig: epsilon must be > 0");
  if (clip_min >= clip_max) throw std::invalid_argument("AttackConfig: clip_min >= clip_max");
  if (iterations <= 0) throw std::invalid_argument("AttackConfig: iterations must be > 0");
}

Attack::Attack(AttackConfig config) : config_(std::move(config)) { config_.validate(); }

Attack::~Attack() = default;

void Attack::project(Tensor& candidate, const Tensor& original) const {
  check_same_shape(candidate, original, "Attack::project");
  simd::active().project_linf(candidate.data(), original.data(), config_.epsilon,
                              config_.clip_min, config_.clip_max,
                              candidate.numel());
}

// ---- registry ---------------------------------------------------------------

namespace {

struct Entry {
  const char* key;
  const char* display;
  std::unique_ptr<Attack> (*factory)(const AttackConfig&);
};

template <typename A>
std::unique_ptr<Attack> construct(const AttackConfig& c) {
  return std::make_unique<A>(c);
}

// The paper's C&W is unconstrained-L2; the registry contract promises an
// l_inf ball, so the factory turns the final projection on unless the
// caller set "project_linf" explicitly (0 restores the paper's behavior, as
// does constructing CarliniWagner directly).
std::unique_ptr<Attack> construct_cw(const AttackConfig& c) {
  AttackConfig cfg = c;
  cfg.params.emplace("project_linf", 1.0f);
  return std::make_unique<CarliniWagner>(cfg);
}

// Sorted by key.
constexpr Entry kAttacks[] = {
    {"cw", "C&W-L2", construct_cw},
    {"feature_match", "FeatureMatch", construct<FeatureMatch>},
    {"fgsm", "FGSM", construct<Fgsm>},
    {"mim", "MIM", construct<Mim>},
    {"pgd", "PGD", construct<Pgd>},
};

const Entry& lookup(const std::string& key, const char* caller) {
  for (const Entry& e : kAttacks) {
    if (key == e.key) return e;
  }
  std::string known;
  for (const Entry& e : kAttacks) {
    if (!known.empty()) known += ", ";
    known += e.key;
  }
  throw std::invalid_argument(std::string(caller) + ": unknown attack '" + key +
                              "' (registered: " + known + ")");
}

}  // namespace

std::unique_ptr<Attack> make(const std::string& key, AttackConfig config) {
  return lookup(key, "attack::make").factory(config);
}

std::vector<std::string> registered() {
  std::vector<std::string> keys;
  for (const Entry& e : kAttacks) keys.emplace_back(e.key);
  return keys;
}

std::string display_name(const std::string& key) {
  return lookup(key, "attack::display_name").display;
}

}  // namespace taamr::attack
