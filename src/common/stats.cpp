#include "common/stats.hpp"

namespace aeep {

void TimeWeightedLevel::update(Cycle now, double level) {
  assert(now >= last_);
  weighted_sum_ += level_ * static_cast<double>(now - last_);
  last_ = now;
  level_ = level;
}

double TimeWeightedLevel::average() const {
  const Cycle span = last_ - start_;
  if (span == 0) return level_;
  return weighted_sum_ / static_cast<double>(span);
}

void TimeWeightedLevel::reset(Cycle now, double level) {
  start_ = last_ = now;
  level_ = level;
  weighted_sum_ = 0.0;
}

}  // namespace aeep
