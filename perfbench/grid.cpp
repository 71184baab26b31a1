// exec_grid, trace_grid and fault_campaign: serial sweeps of fixed grids.
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common/rng.hpp"
#include "sim/sweep.hpp"
#include "workloads.hpp"

namespace aeep::perfbench {

namespace {

std::string interval_label(u64 interval) {
  if (interval == 0) return "org";
  if (interval % (u64{1} << 20) == 0)
    return std::to_string(interval >> 20) + "M";
  return std::to_string(interval >> 10) + "K";
}

std::string rate_label(double scale) {
  if (scale <= 0.0) return "off";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0e", scale);
  return buf;
}

class GridWorkload final : public Workload {
 public:
  GridWorkload(std::string name, RunContext ctx)
      : name_(std::move(name)), ctx_(std::move(ctx)) {}

  void setup() override {
    goldens_ = load_goldens(golden_path(ctx_.goldens_dir, name_, ctx_.sim_seed));
    if (name_ == "fault_campaign") {
      cells_ = fault_grid(ctx_.sim_seed);
    } else {
      std::string trace_dir;
      if (name_ == "trace_grid") {
        exec_goldens_ = load_goldens(
            golden_path(ctx_.goldens_dir, "exec_grid", ctx_.sim_seed));
        trace_dir = ctx_.work_dir + "/traces";
        capture_traces(trace_dir, benchmarks(), kInstructions, kWarmup,
                       ctx_.sim_seed);
      }
      cells_ = figure_grid(ctx_.sim_seed, trace_dir);
    }
    order_ = permutation(cells_.size(), ctx_.order_seed);
    jobs_.clear();
    for (const std::size_t i : order_)
      jobs_.push_back({cells_[i].benchmark, cells_[i].options, cells_[i].tag});
  }

  void teardown() override {
    if (name_ == "trace_grid")
      std::filesystem::remove_all(ctx_.work_dir + "/traces");
  }

  void pass(bool traced, PassRecord& rec) override {
    const std::size_t n = cells_.size();
    std::vector<sim::RunResult> results(n);
    std::vector<bool> ok(n, true);
    rec.job_ms.assign(n, 0.0);

    if (!traced) {
      // The production path: one sweep worker, which runs the grid inline.
      const sim::SweepRunner runner(1);
      auto last = Clock::now();
      const auto t0 = last;
      const auto outcomes = runner.run(jobs_, [&](const sim::SweepProgress& p) {
        const auto now = Clock::now();
        rec.job_ms[order_[p.job_index]] =
            std::chrono::duration<double, std::milli>(now - last).count();
        last = now;
      });
      rec.wall_s = seconds_since(t0);
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = order_[k];
        rec.sweep_cell_ms.push_back(outcomes[k].wall_seconds * 1e3);
        if (!outcomes[k].ok()) {
          std::fprintf(stderr, "FAIL %s: %s\n", cells_[i].key().c_str(),
                       outcomes[k].error.c_str());
          ok[i] = false;
        }
        results[i] = outcomes[k].result;
      }
    } else {
      LayerTimes lt;
      double replay_s = 0.0;
      const auto t0 = Clock::now();
      for (const std::size_t i : order_) {
        const auto c0 = Clock::now();
        try {
          results[i] = name_ == "trace_grid"
                           ? run_replay_timed(cells_[i], replay_s)
                           : run_exec_traced(cells_[i], lt);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "FAIL %s: %s\n", cells_[i].key().c_str(),
                       e.what());
          ok[i] = false;
        }
        rec.job_ms[i] = std::chrono::duration<double, std::milli>(
                            Clock::now() - c0)
                            .count();
      }
      rec.wall_s = seconds_since(t0);
      fill_layers(lt, replay_s, results, rec.layers);
    }

    for (std::size_t i = 0; i < n; ++i) {
      ++rec.attempted;
      ++rec.jobs;
      rec.uops += results[i].core.committed;
      if (!ok[i]) {
        ++rec.failed;
        continue;
      }
      const auto g = goldens_.cells.find(cells_[i].key());
      const std::string diff =
          g == goldens_.cells.end() ? "no golden for this cell"
                                    : result_diff(g->second, results[i]);
      if (!diff.empty()) {
        ++rec.failed;
        std::fprintf(stderr, "GOLDEN MISMATCH %s: %s\n",
                     cells_[i].key().c_str(), diff.c_str());
      }
    }
    if (name_ == "trace_grid") {
      std::string worst;
      const double err = replay_error(cells_, results, exec_goldens_, worst);
      if (traced) rec.layers["replay.err_max"] = err;
      if (worst != last_worst_) {
        std::fprintf(stderr, "replay_err %.6f worst at %s\n", err,
                     worst.c_str());
        last_worst_ = worst;
      }
    }
  }

 private:
  void fill_layers(const LayerTimes& lt, double replay_s,
                   const std::vector<sim::RunResult>& results,
                   std::map<std::string, double>& m) const {
    u64 wb_cleaning = 0;
    for (const auto& r : results) {
      add_work_counts(m, r);
      wb_cleaning += r.wb_cleaning;
    }
    if (name_ == "trace_grid") {
      DecodeStats d;
      for (const Cell& c : cells_)
        decode_only(sim::trace_path_for(c.benchmark, c.options), d);
      m["replay.s"] = replay_s;
      m["trace.decode_s"] = d.seconds;
      m["trace.events"] = static_cast<double>(d.events);
      m["trace.bytes"] = static_cast<double>(d.bytes);
      m["trace.ns_per_event"] =
          d.events ? d.seconds * 1e9 / static_cast<double>(d.events) : 0.0;
      m["replay.decode_share"] = replay_s > 0.0 ? d.seconds / replay_s : 0.0;
      return;
    }
    const auto s = [](i64 ns) { return static_cast<double>(ns) * 1e-9; };
    const auto d = [](u64 v) { return static_cast<double>(v); };
    m["workload.next_calls"] = d(lt.next_calls);
    m["workload.next_s"] = s(lt.next_ns);
    m["cpu.self_s"] = s(lt.cpu_self_ns());
    m["cpu.cycles"] = d(lt.cycles);
    m["cpu.ns_per_cycle"] =
        lt.cycles ? static_cast<double>(lt.cpu_self_ns()) / d(lt.cycles) : 0.0;
    m["cpu.quiet_cycle_frac"] =
        lt.tick_calls ? d(lt.quiet_ticks) / d(lt.tick_calls) : 0.0;
    m["hier.fetch_calls"] = d(lt.fetch_calls);
    m["hier.load_calls"] = d(lt.load_calls);
    m["hier.store_calls"] = d(lt.store_calls);
    m["hier.tick_calls"] = d(lt.tick_calls);
    m["hier.fetch_s"] = s(lt.fetch_ns);
    m["hier.load_s"] = s(lt.load_ns);
    m["hier.store_s"] = s(lt.store_ns);
    m["hier.tick_s"] = s(lt.tick_ns);
    m["hier.store_rejected"] = d(lt.store_rejected);
    const u64 accesses = lt.fetch_calls + lt.load_calls + lt.store_calls;
    m["hier.ticks_per_access"] = accesses ? d(lt.tick_calls) / d(accesses) : 0.0;
    m["l2.cleaning_inspections"] = d(lt.cleaning_inspections);
    m["l2.clean_yield"] = lt.cleaning_inspections
                              ? d(wb_cleaning) / d(lt.cleaning_inspections)
                              : 0.0;
    m["l2.silent_words_elided"] = d(lt.silent_words_elided);
  }

  std::string name_;
  RunContext ctx_;
  Goldens goldens_;
  Goldens exec_goldens_;
  std::vector<Cell> cells_;
  std::vector<std::size_t> order_;  ///< issue order: order_[k] = cell index
  std::vector<sim::SweepJob> jobs_;  ///< cells_ in issue order
  std::string last_worst_;
};

}  // namespace

std::vector<std::string> benchmarks() { return sim::smoke_benchmarks(); }

std::vector<Cell> figure_grid(u64 seed, const std::string& trace_dir) {
  const std::vector<u64> intervals = {u64{64} << 10, u64{256} << 10,
                                      u64{1} << 20, u64{4} << 20, 0};
  const std::vector<std::pair<protect::SchemeKind, const char*>> schemes = {
      {protect::SchemeKind::kNonUniform, "nonuniform"},  // Figs. 3/4
      {protect::SchemeKind::kSharedEccArray, "shared"},  // Figs. 7/8
  };
  std::vector<Cell> grid;
  for (const auto& [scheme, scheme_name] : schemes) {
    for (const auto& b : benchmarks()) {
      for (const u64 interval : intervals) {
        sim::ExperimentOptions eo;
        eo.scheme = scheme;
        eo.ecc_entries_per_set = 1;
        eo.cleaning_interval = interval;
        eo.instructions = kInstructions;
        eo.warmup_instructions = kWarmup;
        eo.seed = seed;
        if (!trace_dir.empty()) {
          eo.frontend = sim::Frontend::kTrace;
          eo.trace_dir = trace_dir;
        }
        grid.push_back({b, eo,
                        std::string(scheme_name) + "/" +
                            interval_label(interval)});
      }
    }
  }
  return grid;
}

std::vector<Cell> fault_grid(u64 seed) {
  const std::vector<double> ladder = {0.0, 5e8, 2e9, 8e9};
  const std::vector<std::pair<protect::SchemeKind, const char*>> schemes = {
      {protect::SchemeKind::kUniformEcc, "uniform-ecc"},
      {protect::SchemeKind::kNonUniform, "non-uniform"},
      {protect::SchemeKind::kSharedEccArray, "shared-ecc"},
  };
  std::vector<Cell> grid;
  for (const std::string b : {"gzip", "mcf"}) {
    for (const auto& [scheme, scheme_name] : schemes) {
      for (const double scale : ladder) {
        sim::ExperimentOptions eo;
        eo.scheme = scheme;
        eo.instructions = kInstructions;
        eo.warmup_instructions = 0;  // strike stats accumulate from cycle 0
        eo.seed = seed;
        eo.cleaning_interval = u64{1} << 18;
        eo.strikes_enabled = scale > 0.0;
        eo.strike_rate_scale = scale;
        eo.strike_double_bit_fraction = 0.25;
        eo.retirement_threshold = 8;
        eo.due_policy = protect::DuePolicy::kDropRefetch;
        grid.push_back({b, eo, std::string(scheme_name) + "@" + rate_label(scale)});
      }
    }
  }
  return grid;
}

std::vector<std::size_t> permutation(std::size_t n, u64 seed) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  Xorshift64Star rng(seed);
  for (std::size_t i = n; i > 1; --i)
    std::swap(p[i - 1], p[rng.next_below(i)]);
  return p;
}

void add_work_counts(std::map<std::string, double>& m, const sim::RunResult& r) {
  const auto add = [&](const char* k, u64 v) {
    m[k] += static_cast<double>(v);
  };
  add("l1d.misses", r.l1d.misses());
  add("l2.accesses", r.l2.accesses());
  add("l2.misses", r.l2.misses());
  add("wbuf.drains", r.wbuf.drains);
  add("wbuf.coalesced", r.wbuf.coalesced);
  add("l2.wb_total", r.wb_total());
  add("bus.busy_cycles", r.bus.busy_cycles);
  add("recovery.checks", r.recovery.checks);
  add("recovery.corrected", r.recovery.corrected);
  add("recovery.refetched", r.recovery.refetched);
  add("strikes.bits_flipped", r.strikes.bits_flipped);
}

double replay_error(const std::vector<Cell>& cells,
                    const std::vector<sim::RunResult>& results,
                    const Goldens& exec, std::string& worst) {
  double max_err = 0.0;
  worst = "none";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto ref = exec.cells.find(cells[i].key());
    if (ref == exec.cells.end()) continue;
    const sim::RunResult& e = ref->second;
    const sim::RunResult& t = results[i];
    const std::pair<const char*, std::pair<double, double>> metrics[] = {
        {"wb_total",
         {static_cast<double>(t.wb_total()), static_cast<double>(e.wb_total())}},
        {"avg_dirty_fraction", {t.avg_dirty_fraction, e.avg_dirty_fraction}},
        {"bus_bytes_written",
         {static_cast<double>(t.bus.bytes_written),
          static_cast<double>(e.bus.bytes_written)}},
    };
    for (const auto& [metric, v] : metrics) {
      const auto [got, want] = v;
      // A zero reference has no relative scale: any non-zero replay value
      // counts as a 100% error there.
      const double err = want != 0.0 ? std::fabs(got - want) / std::fabs(want)
                         : got != 0.0 ? 1.0
                                      : 0.0;
      if (err > max_err) {
        max_err = err;
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%s %s (replay %.17g, exec %.17g)",
                      cells[i].key().c_str(), metric, got, want);
        worst = buf;
      }
    }
  }
  return max_err;
}

std::unique_ptr<Workload> make_grid_workload(const std::string& name,
                                             const RunContext& ctx) {
  return std::make_unique<GridWorkload>(name, ctx);
}

}  // namespace aeep::perfbench
