// aeep_coord — fan a sweep grid over a fleet of aeep_served workers.
//
//   aeep_coord --workers=127.0.0.1:7501,127.0.0.1:7502,7503 [grid flags]
//   aeep_coord --local                 — same grid on a local SweepRunner
//
// The grid is suite benchmarks × the three protection schemes, identical
// to what the figure benches sweep. Cells are dispatched in batches with
// health probes, jittered-backoff retries, speculative re-dispatch of
// stragglers, permanent retirement of flapping workers, and local
// fallback when the fleet dies — see src/fabric/coordinator.hpp. Because
// every cell is seeded and both paths render metrics through
// sim::run_result_json, `--json` output from a chaotic fleet run and from
// `--local` must have byte-identical cells — that equivalence is the CI
// chaos gate.
//
// Grid flags: --suite=all|fp|int|smoke --instructions --warmup --seed
//             --frontend=exec|trace --trace-dir (local fallback only)
// Fleet flags: --workers=HOST:PORT[,...] --retire-after --max-attempts
//   --batch-size --call-timeout-ms --job-wait-ms --straggler-factor
//   --straggler-min-ms --min-fleet --no-local-fallback --backoff-base-ms
//   --probe-timeout-ms --local-jobs
// Store: --store=DIR consults the content-addressed result store before
//   running (both modes); a cell whose digest hits is served from cache
//   with zero simulation work, and computed cells are inserted for the
//   next run. The reporter config records store_hits/store_misses — the
//   CI store-smoke gate asserts a repeated sweep is 100% hits.
// Output: --json=FILE (bench schema v1, cells in grid order),
//   --retirement-log=FILE (one JSON object per retired worker).
// Exit codes: 0 every cell computed, 2 usage, 1 any cell failed.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "fabric/coordinator.hpp"
#include "json_reporter.hpp"
#include "sim/result_json.hpp"
#include "store/sweep_cache.hpp"

using namespace aeep;

namespace {

std::vector<fabric::WorkerEndpoint> parse_workers(const std::string& list) {
  std::vector<fabric::WorkerEndpoint> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string item =
        list.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (!item.empty()) out.push_back(fabric::parse_endpoint(item));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// The sweep every aeep_coord invocation runs: suite benchmarks × the three
/// protection schemes, tagged by scheme label.
std::vector<sim::SweepJob> build_grid(const bench::CommonOptions& o) {
  const protect::SchemeKind schemes[] = {
      protect::SchemeKind::kUniformEcc,
      protect::SchemeKind::kNonUniform,
      protect::SchemeKind::kSharedEccArray,
  };
  std::vector<sim::SweepJob> grid;
  for (const auto& benchmark : bench::suite_benchmarks(o.suite)) {
    for (const auto scheme : schemes) {
      sim::SweepJob job;
      job.benchmark = benchmark;
      job.tag = protect::to_string(scheme);
      job.options.scheme = scheme;
      job.options.instructions = o.instructions;
      job.options.warmup_instructions = o.warmup;
      job.options.seed = o.seed;
      bench::apply_frontend(job.options, o);
      grid.push_back(std::move(job));
    }
  }
  return grid;
}

bool write_retirement_log(const std::string& path,
                          const std::vector<fabric::RetirementRecord>& log) {
  if (path.empty()) return true;
  // Line-oriented report, overwritten whole each run — not store data.
  std::FILE* f = std::fopen(path.c_str(), "w");  // aeep-lint: allow(raw-fs-call)
  if (!f) {
    std::fprintf(stderr, "aeep_coord: cannot write %s\n", path.c_str());
    return false;
  }
  for (const auto& rec : log) {
    JsonValue j = JsonValue::object();
    j.set("worker", JsonValue::string(rec.worker));
    j.set("reason", JsonValue::string(rec.reason));
    j.set("consecutive_failures",
          JsonValue::number(u64{rec.consecutive_failures}));
    j.set("t_ms", JsonValue::number(rec.t_ms));
    const std::string line = j.dump(0) + "\n";
    std::fputs(line.c_str(), f);
  }
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  const bench::CommonOptions o = bench::parse_common(args);
  const bool local_only = args.get_bool("local", false);
  const std::string workers_list = args.get("workers", "");
  const std::string retirement_log_path = args.get("retirement-log", "");

  fabric::FabricConfig cfg;
  cfg.seed = o.seed;
  cfg.backoff.base_ms = args.get_u64("backoff-base-ms", cfg.backoff.base_ms);
  cfg.retire_after = static_cast<unsigned>(
      args.get_u64("retire-after", cfg.retire_after));
  cfg.max_attempts = static_cast<unsigned>(
      args.get_u64("max-attempts", cfg.max_attempts));
  cfg.batch_size = static_cast<std::size_t>(
      args.get_u64("batch-size", cfg.batch_size));
  cfg.call_timeout_ms = args.get_u64("call-timeout-ms", cfg.call_timeout_ms);
  cfg.job_wait_ms = args.get_u64("job-wait-ms", cfg.job_wait_ms);
  cfg.straggler_factor =
      args.get_double("straggler-factor", cfg.straggler_factor);
  cfg.straggler_min_ms =
      args.get_u64("straggler-min-ms", cfg.straggler_min_ms);
  cfg.min_fleet = static_cast<std::size_t>(
      args.get_u64("min-fleet", cfg.min_fleet));
  cfg.allow_local_fallback = !args.get_bool("no-local-fallback", false);
  cfg.probe_timeout_ms =
      args.get_u64("probe-timeout-ms", cfg.probe_timeout_ms);
  cfg.local_jobs = static_cast<unsigned>(args.get_u64("local-jobs", o.jobs));
  const std::string store_dir = args.get("store", "");
  cfg.token = args.get("token", "");
  cfg.store_dir = store_dir;
  bench::reject_unknown_flags(args);

  if (!local_only && workers_list.empty()) {
    std::fprintf(stderr,
                 "aeep_coord: need --workers=HOST:PORT[,...] or --local\n");
    return 2;
  }

  try {
    if (!local_only) cfg.workers = parse_workers(workers_list);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aeep_coord: %s\n", e.what());
    return 2;
  }

  const std::vector<sim::SweepJob> grid = build_grid(o);
  std::fprintf(stderr, "aeep_coord: %zu cells, %zu worker(s)%s\n",
               grid.size(), cfg.workers.size(),
               local_only ? " (local baseline)" : "");

  bench::JsonReporter reporter("coord_sweep", o,
                               static_cast<unsigned>(cfg.workers.size()));
  reporter.set_config("mode",
                      JsonValue::string(local_only ? "local" : "fabric"));

  bool any_failed = false;
  if (local_only) {
    std::unique_ptr<store::SweepCache> cache;
    if (!store_dir.empty()) {
      try {
        cache = std::make_unique<store::SweepCache>(
            store::StoreConfig{store_dir, 4096});
      } catch (const std::exception& e) {
        std::fprintf(stderr, "aeep_coord: cannot open store: %s\n", e.what());
        return 1;
      }
    }

    // Serve what the store already knows, then run only the misses; a
    // cached cell renders through the same sim::run_result_json as a
    // fresh one, so a warm re-run's --json cells are byte-identical.
    const std::vector<sim::SweepOutcome> outcomes = store::run_grid_cached(
        sim::SweepRunner(o.jobs), grid, cache.get(), sim::stderr_progress());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (!outcomes[i].ok()) {
        any_failed = true;
        std::fprintf(stderr, "aeep_coord: cell %s:%s failed: %s\n",
                     grid[i].benchmark.c_str(), grid[i].tag.c_str(),
                     outcomes[i].error.c_str());
        continue;
      }
      reporter.add_cell(grid[i].benchmark, grid[i].tag,
                        sim::run_result_json(outcomes[i].result));
    }
    if (cache) {
      const u64 hits = cache->stats().hits;
      const u64 misses = u64{grid.size()} - hits;
      reporter.set_config("store_hits", JsonValue::number(hits));
      reporter.set_config("store_misses", JsonValue::number(misses));
      std::fprintf(stderr, "aeep_coord: store hits=%llu misses=%llu (%s)\n",
                   static_cast<unsigned long long>(hits),
                   static_cast<unsigned long long>(misses), store_dir.c_str());
    }
  } else {
    std::unique_ptr<fabric::Coordinator> coord;
    try {
      coord = std::make_unique<fabric::Coordinator>(std::move(cfg));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "aeep_coord: cannot open store: %s\n", e.what());
      return 1;
    }
    const auto outcomes =
        coord->run(grid, [](const fabric::FabricProgress& p) {
          std::fprintf(stderr, "[%zu/%zu] %s:%s <- %s%s\n", p.completed,
                       p.total, p.job->benchmark.c_str(), p.job->tag.c_str(),
                       p.outcome->ok() ? p.outcome->worker.c_str()
                                       : "FAILED",
                       p.outcome->speculative ? " (speculative)" : "");
        });
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (!outcomes[i].ok()) {
        any_failed = true;
        std::fprintf(stderr, "aeep_coord: cell %s:%s failed: %s\n",
                     grid[i].benchmark.c_str(), grid[i].tag.c_str(),
                     outcomes[i].error.c_str());
        continue;
      }
      reporter.add_cell(grid[i].benchmark, grid[i].tag, outcomes[i].metrics);
    }

    const fabric::FabricStats s = coord->stats();
    std::fprintf(stderr,
                 "aeep_coord: remote=%llu local=%llu cached=%llu "
                 "retries=%llu speculative=%llu duplicates=%llu "
                 "worker_failures=%llu busy_backoffs=%llu\n",
                 static_cast<unsigned long long>(s.jobs_remote),
                 static_cast<unsigned long long>(s.jobs_local),
                 static_cast<unsigned long long>(s.jobs_cached),
                 static_cast<unsigned long long>(s.retries),
                 static_cast<unsigned long long>(s.speculative_dispatches),
                 static_cast<unsigned long long>(s.duplicates_discarded),
                 static_cast<unsigned long long>(s.worker_failures),
                 static_cast<unsigned long long>(s.busy_backoffs));
    if (!store_dir.empty()) {
      reporter.set_config("store_hits", JsonValue::number(s.jobs_cached));
      reporter.set_config("store_misses",
                          JsonValue::number(u64{grid.size()} - s.jobs_cached));
    }
    const auto retirement_log = coord->registry().retirement_log();
    for (const auto& rec : retirement_log)
      std::fprintf(stderr, "aeep_coord: retired %s after %u failure(s): %s\n",
                   rec.worker.c_str(), rec.consecutive_failures,
                   rec.reason.c_str());
    if (!write_retirement_log(retirement_log_path, retirement_log)) return 1;
  }

  if (!reporter.write(o.json_path)) return 1;
  if (any_failed) {
    std::fprintf(stderr, "aeep_coord: some cells failed\n");
    return 1;
  }
  std::fprintf(stderr, "aeep_coord: all %zu cells computed\n", grid.size());
  return 0;
}
