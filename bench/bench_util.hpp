// Shared helpers for the figure-regeneration benches: common CLI options,
// run headers, and the cleaning-interval ladder the paper sweeps.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"
#include "store/sweep_cache.hpp"

namespace aeep::bench {

struct CommonOptions {
  u64 instructions = 2'000'000;
  u64 warmup = 2'000'000;
  u64 seed = 42;
  std::string suite = "all";      ///< all | fp | int | smoke
  unsigned jobs = 0;              ///< sweep workers; 0 = hardware concurrency
  std::string json_path;          ///< --json=<path>: machine-readable results
  std::string frontend = "exec";  ///< exec | trace (see --trace-dir)
  std::string trace_dir;          ///< frontend=trace: <dir>/<benchmark>.aeept
  std::string store_dir;          ///< --store=DIR: result-store cache
};

inline CommonOptions parse_common(const CliArgs& args) {
  CommonOptions o;
  o.instructions = args.get_u64("instructions", o.instructions);
  o.warmup = args.get_u64("warmup", o.warmup);
  o.seed = args.get_u64("seed", o.seed);
  o.suite = args.get("suite", o.suite);
  o.jobs = static_cast<unsigned>(args.get_u64("jobs", o.jobs));
  o.json_path = args.get("json", o.json_path);
  o.frontend = args.get("frontend", o.frontend);
  o.trace_dir = args.get("trace-dir", o.trace_dir);
  o.store_dir = args.get("store", o.store_dir);
  if (o.frontend != "exec" && o.frontend != "trace") {
    std::fprintf(stderr, "unknown --frontend=%s (exec | trace)\n",
                 o.frontend.c_str());
    std::exit(2);
  }
  if (o.frontend == "trace" && o.trace_dir.empty()) {
    std::fprintf(stderr,
                 "--frontend=trace needs --trace-dir=DIR with one "
                 "<benchmark>.aeept per benchmark (see: aeep_trace capture)\n");
    std::exit(2);
  }
  return o;
}

/// Copy the frontend selection into a sweep cell's options.
inline void apply_frontend(sim::ExperimentOptions& eo, const CommonOptions& o) {
  if (o.frontend == "trace") {
    eo.frontend = sim::Frontend::kTrace;
    eo.trace_dir = o.trace_dir;
  }
}

/// For benches whose metrics only exist execution-driven (core IPC, online
/// strike campaigns): refuse --frontend=trace with a clear reason.
inline void require_exec_frontend(const CommonOptions& o, const char* why) {
  if (o.frontend != "exec") {
    std::fprintf(stderr, "--frontend=trace is not supported here: %s\n", why);
    std::exit(2);
  }
}

/// Worker count a bench should hand to SweepRunner: --jobs when given,
/// otherwise one per hardware thread.
inline unsigned resolve_jobs(const CommonOptions& o) {
  return o.jobs == 0 ? sim::SweepRunner::default_jobs() : o.jobs;
}

/// The one sweep entry point the figure benches share: run_or_throw with
/// the --store result cache in front when one was requested. Cached cells
/// round-trip every RunResult field, so a warm re-run's tables and --json
/// cells are byte-identical to the run that populated the store.
inline std::vector<sim::RunResult> run_sweep(
    const CommonOptions& o, const std::vector<sim::SweepJob>& grid,
    std::vector<double>* wall_seconds = nullptr) {
  const sim::SweepRunner runner(resolve_jobs(o));
  if (o.store_dir.empty())
    return runner.run_or_throw(grid, sim::stderr_progress(), wall_seconds);
  std::unique_ptr<store::SweepCache> cache;
  try {
    cache = std::make_unique<store::SweepCache>(
        store::StoreConfig{o.store_dir, 4096});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot open --store=%s: %s\n", o.store_dir.c_str(),
                 e.what());
    std::exit(1);
  }
  std::vector<sim::SweepOutcome> outcomes = store::run_grid_cached(
      runner, grid, cache.get(), sim::stderr_progress());
  const store::SweepCacheStats s = cache->stats();
  std::fprintf(stderr, "store: hits=%llu misses=%llu inserts=%llu (%s)\n",
               static_cast<unsigned long long>(s.hits),
               static_cast<unsigned long long>(s.misses),
               static_cast<unsigned long long>(s.inserts),
               o.store_dir.c_str());
  return sim::results_or_throw(grid, std::move(outcomes), wall_seconds);
}

inline std::vector<std::string> suite_benchmarks(const std::string& suite) {
  if (suite == "fp") return sim::fp_benchmarks();
  if (suite == "int") return sim::int_benchmarks();
  if (suite == "smoke") return sim::smoke_benchmarks();
  if (suite != "all") {
    std::fprintf(stderr, "unknown --suite=%s (all | fp | int | smoke)\n",
                 suite.c_str());
    std::exit(2);
  }
  return sim::all_benchmarks();
}

inline void reject_unknown_flags(const CliArgs& args) {
  const auto unused = args.unused();
  if (!unused.empty()) {
    std::fprintf(stderr, "unknown flag(s):");
    for (const auto& k : unused) std::fprintf(stderr, " --%s", k.c_str());
    std::fprintf(stderr, "\naccepted flags:");
    for (const auto& k : args.queried()) std::fprintf(stderr, " --%s", k.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
}

inline void print_header(const char* experiment, const CommonOptions& o) {
  std::printf("=== %s ===\n", experiment);
  std::printf("machine: Table-1 four-issue OoO, 1MB 4-way 64B write-back L2\n");
  std::printf("run: %llu committed micro-ops after %llu warm-up, seed %llu\n",
              static_cast<unsigned long long>(o.instructions),
              static_cast<unsigned long long>(o.warmup),
              static_cast<unsigned long long>(o.seed));
  std::printf("frontend: %s%s%s\n", o.frontend.c_str(),
              o.trace_dir.empty() ? "" : ", traces from ",
              o.trace_dir.c_str());
  std::printf("sweep workers: %u\n\n", resolve_jobs(o));
}

/// The paper's cleaning-interval ladder: 64K to 4M cycles, x4 steps.
inline std::vector<u64> cleaning_intervals() {
  return {u64{64} << 10, u64{256} << 10, u64{1} << 20, u64{4} << 20};
}

inline std::string interval_label(u64 interval) {
  if (interval == 0) return "org";
  if (interval >= (u64{1} << 20) && interval % (u64{1} << 20) == 0)
    return std::to_string(interval >> 20) + "M";
  return std::to_string(interval >> 10) + "K";
}

}  // namespace aeep::bench
