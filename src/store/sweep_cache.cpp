#include "store/sweep_cache.hpp"

#include <utility>

#include "metrics/registry.hpp"
#include "metrics/timer.hpp"
#include "sim/result_json.hpp"
#include "store/result_codec.hpp"

namespace aeep::store {

namespace {
constexpr u64 kPayloadVersion = 1;

// Store-level telemetry, shared by every SweepCache in the process (the
// served cache and a fabric coordinator's cache count into one place).
metrics::Histogram& lookup_us_hist() {
  static metrics::Histogram& h =
      metrics::Registry::instance().histogram("store.lookup_us");
  return h;
}
metrics::Histogram& insert_us_hist() {
  static metrics::Histogram& h =
      metrics::Registry::instance().histogram("store.insert_us");
  return h;
}
metrics::Counter& hits_counter() {
  static metrics::Counter& c =
      metrics::Registry::instance().counter("store.hits");
  return c;
}
metrics::Counter& misses_counter() {
  static metrics::Counter& c =
      metrics::Registry::instance().counter("store.misses");
  return c;
}

std::optional<JsonValue> metrics_object(const JsonValue& metrics) {
  if (!metrics.is_object()) return std::nullopt;
  return metrics;
}
}  // namespace

SweepCache::SweepCache(StoreConfig config) : store_(std::move(config)) {}

template <typename T>
std::optional<T> SweepCache::lookup(
    const sim::SweepJob& job, const char* field,
    std::optional<T> (*decode)(const JsonValue&)) {
  const metrics::ScopedTimer span(lookup_us_hist());
  const std::optional<Digest> key = job_digest(job);
  if (!key) {
    const MutexLock lock(mutex_);
    ++stats_.uncacheable;
    return std::nullopt;
  }
  const std::optional<JsonValue> payload = store_.lookup(*key);
  const JsonValue* doc = payload && payload->get_u64("v") == kPayloadVersion
                             ? payload->find(field)
                             : nullptr;
  std::optional<T> out = doc ? decode(*doc) : std::nullopt;
  const MutexLock lock(mutex_);
  if (out) {
    ++stats_.hits;
    hits_counter().increment();
  } else {
    ++stats_.misses;
    misses_counter().increment();
  }
  return out;
}

std::optional<sim::RunResult> SweepCache::lookup_result(
    const sim::SweepJob& job) {
  return lookup(job, "full", &run_result_from_json);
}

std::optional<JsonValue> SweepCache::lookup_metrics(const sim::SweepJob& job) {
  return lookup(job, "metrics", &metrics_object);
}

void SweepCache::insert_payload(const sim::SweepJob& job, JsonValue metrics,
                                const sim::RunResult* full) {
  const metrics::ScopedTimer span(insert_us_hist());
  const std::optional<Digest> key = job_digest(job);
  if (!key) {
    const MutexLock lock(mutex_);
    ++stats_.uncacheable;
    return;
  }
  JsonValue payload = JsonValue::object();
  payload.set("v", JsonValue::number(kPayloadVersion));
  payload.set("benchmark", JsonValue::string(job.benchmark));
  payload.set("metrics", std::move(metrics));
  if (full) payload.set("full", run_result_to_json(*full));
  store_.insert(*key, payload);
  const MutexLock lock(mutex_);
  ++stats_.inserts;
}

void SweepCache::insert(const sim::SweepJob& job, const sim::RunResult& result) {
  insert_payload(job, sim::run_result_json(result), &result);
}

void SweepCache::insert_metrics(const sim::SweepJob& job,
                                const JsonValue& metrics) {
  insert_payload(job, metrics, nullptr);
}

SweepCacheStats SweepCache::stats() const {
  const MutexLock lock(mutex_);
  return stats_;
}

void SweepCache::reset_stats() {
  const MutexLock lock(mutex_);
  stats_ = SweepCacheStats{};
}

std::vector<sim::SweepOutcome> run_grid_cached(
    const sim::SweepRunner& runner, const std::vector<sim::SweepJob>& grid,
    SweepCache* cache, const sim::SweepRunner::ProgressFn& progress) {
  if (!cache) return runner.run(grid, progress);

  const std::size_t n = grid.size();
  std::vector<sim::SweepOutcome> out(n);
  std::vector<std::size_t> miss_indices;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::optional<sim::RunResult> hit = cache->lookup_result(grid[i]);
    if (!hit) {
      miss_indices.push_back(i);
      continue;
    }
    out[i].result = std::move(*hit);
    ++completed;
    if (progress) progress({completed, n, i, &grid[i], &out[i]});
  }
  if (miss_indices.empty()) return out;

  std::vector<sim::SweepJob> miss_grid;
  miss_grid.reserve(miss_indices.size());
  for (const std::size_t i : miss_indices) miss_grid.push_back(grid[i]);

  // Re-base the runner's progress events onto the full grid: completed
  // continues from the hit count, job_index maps back to the caller's grid.
  sim::SweepRunner::ProgressFn wrapped;
  if (progress) {
    const std::size_t hits = completed;
    wrapped = [&, hits](const sim::SweepProgress& p) {
      sim::SweepProgress q = p;
      q.completed = hits + p.completed;
      q.total = n;
      q.job_index = miss_indices[p.job_index];
      progress(q);
    };
  }

  std::vector<sim::SweepOutcome> miss_outcomes =
      runner.run(miss_grid, wrapped);
  for (std::size_t k = 0; k < miss_indices.size(); ++k) {
    const std::size_t i = miss_indices[k];
    out[i] = std::move(miss_outcomes[k]);
    if (out[i].ok()) cache->insert(grid[i], out[i].result);
  }
  return out;
}

}  // namespace aeep::store
