// The four benchmark workloads and what one measured pass of each reports.
//
// A run repeats (set-up, pass) until its time is spent. Set-up is whatever
// must exist before the first job can start (goldens parsed, grid built,
// traces captured, store opened, server started); the pass is the work a
// user waits for. Every pass checks every simulated output against the
// committed goldens.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "goldens.hpp"
#include "harness.hpp"

namespace aeep::perfbench {

/// Simulation length of every cell. The 1 MB L2 starts cold at this length
/// (5K warm-up micro-ops); fault_campaign runs with no warm-up at all.
inline constexpr u64 kInstructions = 50'000;
inline constexpr u64 kWarmup = 5'000;

/// served_mix: submits of each distinct job after its first (store hits).
inline constexpr unsigned kServedRepeats = 3;

struct PassRecord {
  bool traced = false;
  double setup_s = 0.0;
  double wall_s = 0.0;
  u64 attempted = 0;
  u64 failed = 0;
  u64 jobs = 0;  ///< grid cells run or server jobs answered
  u64 uops = 0;  ///< simulated committed micro-ops those jobs delivered
  /// Grids: host ms of each cell, indexed like the grid. served_mix:
  /// client submit->result ms of each job.
  std::vector<double> job_ms;
  /// Grids, untraced: the sweep engine's own per-cell walls (ms).
  std::vector<double> sweep_cell_ms;
  /// Traced passes: per-layer values this workload measures, by metric
  /// name. Names it does not fill report 0 (layer not on its path).
  std::map<std::string, double> layers;
};

struct RunContext {
  std::string goldens_dir;
  std::string work_dir;  ///< working space for traces and stores
  u64 sim_seed = 42;     ///< golden seed the simulations run under
  u64 order_seed = 0;    ///< permutes the order jobs are issued in
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Timed as set-up.
  virtual void setup() = 0;
  /// Timed as the measured phase; fills everything but setup_s/wall_s.
  virtual void pass(bool traced, PassRecord& rec) = 0;
  /// Untimed; releases what setup() created.
  virtual void teardown() {}
  /// True when PassRecord::job_ms is indexed by grid cell.
  virtual bool per_cell_jobs() const { return true; }
};

std::unique_ptr<Workload> make_grid_workload(const std::string& name,
                                             const RunContext& ctx);
std::unique_ptr<Workload> make_served_mix(const RunContext& ctx);

// --- shared by the workloads and the golden writer ------------------------

/// The smoke benchmarks (gzip, mcf INT; swim, art FP).
std::vector<std::string> benchmarks();

/// exec_grid / trace_grid: benchmarks x {64K,256K,1M,4M,org} x
/// {non-uniform, shared-ECC}, codes off. `trace_dir` non-empty selects the
/// trace frontend.
std::vector<Cell> figure_grid(u64 seed, const std::string& trace_dir);

/// fault_campaign: the online_recovery grid for gzip and mcf.
std::vector<Cell> fault_grid(u64 seed);

/// Seeded Fisher-Yates permutation of 0..n-1.
std::vector<std::size_t> permutation(std::size_t n, u64 seed);

/// Sum the pinned work counts of `r` into `layers` (l2.accesses, ...).
void add_work_counts(std::map<std::string, double>& layers,
                     const sim::RunResult& r);

/// Largest relative error of wb_total, avg_dirty_fraction and
/// bus_bytes_written of replayed cells against the exec_grid goldens;
/// `worst` names the cell and metric.
double replay_error(const std::vector<Cell>& cells,
                    const std::vector<sim::RunResult>& results,
                    const Goldens& exec, std::string& worst);

}  // namespace aeep::perfbench
