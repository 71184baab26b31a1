// Time-weighted statistics over simulated cycles.
#pragma once

#include <cassert>

#include "common/types.hpp"

namespace aeep {

/// Integrates a piecewise-constant level over simulated time. Used for the
/// paper's "dirty cache lines per cycle" metric: the level is the current
/// dirty-line count, updated whenever it changes, and the reported value is
/// the cycle-weighted average level.
class TimeWeightedLevel {
 public:
  /// Record that the level became `level` at cycle `now`. Cycles since the
  /// previous update are charged to the previous level.
  void update(Cycle now, double level);

  /// Average level over [start, now]. Call update(now, current) first to
  /// flush the final segment.
  double average() const;

  double current() const { return level_; }
  Cycle elapsed() const { return last_ - start_; }
  void reset(Cycle now, double level);

 private:
  Cycle start_ = 0;
  Cycle last_ = 0;
  double level_ = 0.0;
  double weighted_sum_ = 0.0;
};

}  // namespace aeep
