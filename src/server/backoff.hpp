// Jittered exponential backoff — the retry clock of aeep_client --retries.
// Delays grow geometrically up to a cap, and a seeded jitter fraction
// decorrelates the retriers so a crowd of clients bounced by the same
// recovering server does not reconverge on it in lockstep (the
// thundering-herd failure mode). All randomness flows from a
// Xorshift64Star seed, so a given retry schedule is exactly reproducible.
#pragma once

#include "common/rng.hpp"
#include "common/types.hpp"

namespace aeep::server {

/// Shape of a retry schedule. With the defaults the deterministic ceiling
/// per attempt is 50, 100, 200, 400, ... capped at 5000 ms; the jitter
/// fraction then scales each delay uniformly into [ceiling * (1 - jitter),
/// ceiling], so jitter = 0 is fully deterministic.
struct BackoffPolicy {
  u64 base_ms = 50;
  u64 max_ms = 5'000;
  double multiplier = 2.0;
  double jitter = 0.5;  ///< fraction of each delay that is randomised
};

class Backoff {
 public:
  Backoff(BackoffPolicy policy, u64 seed);

  /// Delay before the next retry; each call advances the schedule.
  u64 next_delay_ms();

  /// Back to attempt zero (call after a success).
  void reset() { attempt_ = 0; }

  /// Retries taken since construction / the last reset().
  unsigned attempt() const { return attempt_; }

 private:
  BackoffPolicy policy_;
  Xorshift64Star rng_;
  unsigned attempt_ = 0;
};

/// next_delay_ms() + actually sleeping it. Split out so tests can check the
/// schedule without waiting through it.
void backoff_sleep(Backoff& backoff);

}  // namespace aeep::server
