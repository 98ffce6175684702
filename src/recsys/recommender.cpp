#include "recsys/recommender.hpp"

#include <stdexcept>

namespace taamr::recsys {

Recommender::~Recommender() = default;

void Recommender::check_score_users(std::span<const std::int64_t> users,
                                    std::span<const float> out,
                                    const char* who) const {
  if (out.size() != users.size() * static_cast<std::size_t>(num_items())) {
    throw std::invalid_argument(std::string(who) + ": bad output size");
  }
  for (const std::int64_t u : users) {
    if (u < 0 || u >= num_users()) {
      throw std::invalid_argument(std::string(who) + ": user out of range");
    }
  }
}

}  // namespace taamr::recsys
