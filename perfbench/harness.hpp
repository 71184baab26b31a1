// The benchmark's own harness around the simulator's public API.
//
// Untraced passes call the production entry points (sim::SweepRunner with
// one worker, sim::run_benchmark). Traced passes call the layers one by one
// from here, timing every call that crosses a module boundary:
//   workload  UopSource::next            (TimedSource decorator)
//   hier      MemoryInterface::fetch/load/store/tick (TimedMemory decorator)
//   cpu       OutOfOrderCore::run minus the two above
//   replay    trace::ReplayDriver::run
//   trace     a decode-only trace::TraceReader pass over the same file
// Nothing inside src/ is instrumented. Every traced result is checked
// against the same goldens as the untraced ones, which is what shows that
// this harness is the production path and the decorators are transparent.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace aeep::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One simulation cell: a benchmark, its options and a tag naming the
/// configuration ("nonuniform/64K", "shared/org", "uniform@8e+09", ...).
struct Cell {
  std::string benchmark;
  sim::ExperimentOptions options{};
  std::string tag;

  /// Golden-file key.
  std::string key() const { return benchmark + " " + tag; }
};

/// Host time and call counts of the layers one traced pass crossed, summed
/// over its cells. Times are nanoseconds of Clock.
struct LayerTimes {
  u64 next_calls = 0, fetch_calls = 0, load_calls = 0, store_calls = 0,
      tick_calls = 0;
  i64 next_ns = 0, fetch_ns = 0, load_ns = 0, store_ns = 0, tick_ns = 0;
  i64 run_ns = 0;  ///< inside OutOfOrderCore::run, children included
  u64 store_rejected = 0;
  u64 quiet_ticks = 0;  ///< ticks followed by no other call before the next
  u64 cycles = 0;       ///< simulated core cycles, warm-up included
  u64 cleaning_inspections = 0;
  u64 silent_words_elided = 0;

  i64 hier_ns() const { return fetch_ns + load_ns + store_ns + tick_ns; }
  i64 cpu_self_ns() const { return run_ns - next_ns - hier_ns(); }
};

/// Execution-driven run of one cell through decorated layers. Mirrors
/// sim::System::run step for step; the goldens prove it returns the same
/// RunResult.
sim::RunResult run_exec_traced(const Cell& cell, LayerTimes& acc);

/// Trace-driven run of one cell through trace::ReplayDriver, timed.
/// Fills benchmark/floating_point the way sim::run_benchmark does.
sim::RunResult run_replay_timed(const Cell& cell, double& replay_s);

/// Decode every event of a trace file and nothing else.
struct DecodeStats {
  double seconds = 0.0;
  u64 events = 0;
  u64 bytes = 0;
};
void decode_only(const std::string& path, DecodeStats& acc);

/// Capture one trace per benchmark into `dir` at the default protection
/// configuration (uniform ECC, no cleaning), the way aeep_trace capture and
/// server_throughput do.
void capture_traces(const std::string& dir,
                    const std::vector<std::string>& benchmarks,
                    u64 instructions, u64 warmup, u64 seed);

}  // namespace aeep::perfbench
