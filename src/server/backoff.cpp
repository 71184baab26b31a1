#include "server/backoff.hpp"

#include <chrono>
#include <thread>

namespace aeep::server {

Backoff::Backoff(BackoffPolicy policy, u64 seed)
    : policy_(policy), rng_(seed) {
  if (policy_.base_ms == 0) policy_.base_ms = 1;
  if (policy_.max_ms < policy_.base_ms) policy_.max_ms = policy_.base_ms;
  if (policy_.multiplier < 1.0) policy_.multiplier = 1.0;
  if (policy_.jitter < 0.0) policy_.jitter = 0.0;
  if (policy_.jitter > 1.0) policy_.jitter = 1.0;
}

u64 Backoff::next_delay_ms() {
  double ceiling = static_cast<double>(policy_.base_ms);
  for (unsigned i = 0; i < attempt_; ++i) {
    ceiling *= policy_.multiplier;
    if (ceiling >= static_cast<double>(policy_.max_ms)) break;
  }
  if (ceiling > static_cast<double>(policy_.max_ms))
    ceiling = static_cast<double>(policy_.max_ms);
  ++attempt_;
  const double jittered =
      ceiling * (1.0 - policy_.jitter * rng_.next_double());
  const double floored = jittered < 1.0 ? 1.0 : jittered;
  return static_cast<u64>(floored);
}

void backoff_sleep(Backoff& backoff) {
  // Blocking here is the point: the retry schedule's cool-off.
  // aeep-lint: allow(sleep-in-src)
  std::this_thread::sleep_for(
      std::chrono::milliseconds(backoff.next_delay_ms()));
}

}  // namespace aeep::server
