// Job-level view of the result store: content-addressed caching of whole
// sweep cells.
//
// A SweepJob's digest (store/digest.hpp) keys a payload holding both the
// canonical metrics object (sim/result_json.hpp — what the wire protocol
// and bench reporters emit) and the full RunResult codec document
// (store/result_codec.hpp). Every consumer (the benches, aeep_served)
// reads the full document back; a payload without one reads as a miss,
// never as a fabricated RunResult.
#pragma once

#include <optional>
#include <vector>

#include "common/json.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "sim/sweep.hpp"
#include "store/result_store.hpp"

namespace aeep::store {

/// Counter snapshot (SweepCache::stats / reset_stats). Uncacheable jobs
/// (capture runs, unreadable traces) count separately from misses so a
/// "why is my hit rate low" investigation can tell the two apart.
struct SweepCacheStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 uncacheable = 0;
  u64 inserts = 0;
};

class SweepCache {
 public:
  /// Opens (or creates) the store under `config.dir`. Throws
  /// trace::TraceError when the directory's segment is not a store segment.
  explicit SweepCache(StoreConfig config);

  /// Full RunResult for `job`, or nullopt on miss / uncacheable job.
  /// Counts exactly one of hit, miss (absent, stale version, missing or
  /// undecodable "full" document) or uncacheable.
  std::optional<sim::RunResult> lookup_result(const sim::SweepJob& job)
      AEEP_EXCLUDES(mutex_);

  /// Store a completed cell: both the metrics rendering and the full codec
  /// document. No-op (counted uncacheable) for uncacheable jobs.
  void insert(const sim::SweepJob& job, const sim::RunResult& result)
      AEEP_EXCLUDES(mutex_);

  SweepCacheStats stats() const AEEP_EXCLUDES(mutex_);
  void reset_stats() AEEP_EXCLUDES(mutex_);

  /// The backing store, for maintenance surfaces (aeep_store info/gc).
  ResultStore& result_store() { return store_; }

 private:
  ResultStore store_;
  mutable aeep::Mutex mutex_;
  SweepCacheStats stats_ AEEP_GUARDED_BY(mutex_){};
};

/// SweepRunner::run with a cache in front: cells already in `cache` are
/// served without touching the runner's pool; the rest run as one
/// (smaller) grid, and each one that succeeds is inserted. A failed cell
/// comes back as a failed outcome and is never inserted. `cache ==
/// nullptr` degrades to a plain `runner.run(grid, progress)`.
///
/// Progress events fire for every cell — hits first, in grid order — and
/// `completed` stays strictly increasing 1..N across the hit and miss
/// phases, so existing status-line callbacks work unchanged. Outcomes are
/// indexed like `grid`; a cached cell reports wall_seconds 0.0 and is
/// byte-identical to the run that produced it (the codec round-trips every
/// RunResult field). Pass the outcomes to sim::results_or_throw when any
/// failed cell is fatal.
std::vector<sim::SweepOutcome> run_grid_cached(
    const sim::SweepRunner& runner, const std::vector<sim::SweepJob>& grid,
    SweepCache* cache, const sim::SweepRunner::ProgressFn& progress = nullptr);

}  // namespace aeep::store
