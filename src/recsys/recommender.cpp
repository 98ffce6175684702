#include "recsys/recommender.hpp"

#include <stdexcept>

namespace taamr::recsys {

Recommender::~Recommender() = default;

void Recommender::score_users(std::span<const std::int64_t> users,
                              std::span<float> out) const {
  const std::int64_t items = num_items();
  if (out.size() != users.size() * static_cast<std::size_t>(items)) {
    throw std::invalid_argument("score_users: bad output size");
  }
  for (std::size_t r = 0; r < users.size(); ++r) {
    if (users[r] < 0 || users[r] >= num_users()) {
      throw std::invalid_argument("score_users: user out of range");
    }
    score_all(users[r], out.subspan(r * static_cast<std::size_t>(items),
                                    static_cast<std::size_t>(items)));
  }
}

}  // namespace taamr::recsys
