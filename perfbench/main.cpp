// aeep_perfbench — the repository benchmark (see README.md).
//
//   aeep_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --goldens DIR --work DIR
//   aeep_perfbench --write-goldens --sim-seed S --goldens DIR --work DIR
//   aeep_perfbench --tieback BENCH_sweep.json
//
// A run prints a human report on stderr and, as the last line of stdout,
// one JSON object: {"correct", "attempted", "failed", "metrics"}. It exits
// 1 when any simulated output differs from the goldens.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "sim/result_json.hpp"
#include "sim/sweep.hpp"
#include "workloads.hpp"

using namespace aeep;
using namespace aeep::perfbench;

namespace {

/// Goldens exist for these simulation seeds: the default and a held-out
/// one. `--seed N` runs under kGoldenSeeds[N % 2] and issues jobs in an
/// order permuted by N.
constexpr u64 kGoldenSeeds[2] = {42, 7};

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"wall_s", "s"},          {"uops_per_s", "1/s"},
    {"jobs_per_s", "1/s"},    {"job_ms_p50", "ms"},     {"job_ms_p90", "ms"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"trace_overhead", "ratio"},
    {"pass.wall_s", "s"},
    {"pass.traced_wall_s", "s"},
    {"workload.next_calls", "count"},
    {"workload.next_s", "s"},
    {"cpu.self_s", "s"},
    {"cpu.cycles", "count"},
    {"cpu.ns_per_cycle", "ns"},
    {"cpu.quiet_cycle_frac", "ratio"},
    {"hier.fetch_calls", "count"},
    {"hier.load_calls", "count"},
    {"hier.store_calls", "count"},
    {"hier.tick_calls", "count"},
    {"hier.fetch_s", "s"},
    {"hier.load_s", "s"},
    {"hier.store_s", "s"},
    {"hier.tick_s", "s"},
    {"hier.store_rejected", "count"},
    {"hier.ticks_per_access", "ratio"},
    {"trace.decode_s", "s"},
    {"trace.events", "count"},
    {"trace.bytes", "B"},
    {"trace.ns_per_event", "ns"},
    {"replay.s", "s"},
    {"replay.decode_share", "ratio"},
    {"replay.err_max", "ratio"},
    {"sweep.cell_ms_p50", "ms"},
    {"sweep.cell_ms_max", "ms"},
    {"l1d.misses", "count"},
    {"l2.accesses", "count"},
    {"l2.misses", "count"},
    {"wbuf.drains", "count"},
    {"wbuf.coalesced", "count"},
    {"l2.wb_total", "count"},
    {"l2.cleaning_inspections", "count"},
    {"l2.clean_yield", "ratio"},
    {"l2.silent_words_elided", "count"},
    {"bus.busy_cycles", "count"},
    {"recovery.checks", "count"},
    {"recovery.corrected", "count"},
    {"recovery.refetched", "count"},
    {"strikes.bits_flipped", "count"},
    {"store.hits", "count"},
    {"store.misses", "count"},
    {"store.hit_frac", "ratio"},
    {"store.lookup_us_p50", "us"},
    {"store.insert_us_p50", "us"},
    {"server.queue_wait_us_p50", "us"},
    {"server.queue_wait_us_p90", "us"},
    {"server.replay_us_p50", "us"},
    {"server.encode_us_p50", "us"},
    {"server.busy_rejected", "count"},
};

struct Options {
  std::string workload;
  u64 seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string goldens_dir;
  std::string work_dir;
  bool write_goldens = false;
  u64 sim_seed = 0;
  bool has_sim_seed = false;
  std::string tieback;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "aeep_perfbench: %s\n"
               "usage: aeep_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --goldens DIR --work DIR\n"
               "       aeep_perfbench --write-goldens --sim-seed S "
               "--goldens DIR --work DIR\n"
               "       aeep_perfbench --tieback BENCH_sweep.json\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-goldens") {
      o.write_goldens = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") o.workload = v;
      else if (flag == "--seed") o.seed = std::stoull(v);
      else if (flag == "--seconds") o.seconds = std::stod(v);
      else if (flag == "--trace") o.trace = std::stoul(v) != 0;
      else if (flag == "--goldens") o.goldens_dir = v;
      else if (flag == "--work") o.work_dir = v;
      else if (flag == "--sim-seed") o.sim_seed = std::stoull(v), o.has_sim_seed = true;
      else if (flag == "--tieback") o.tieback = v;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear interpolation between closest ranks.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const RunContext& ctx) {
  if (name == "exec_grid" || name == "trace_grid" || name == "fault_campaign")
    return make_grid_workload(name, ctx);
  if (name == "served_mix") return make_served_mix(ctx);
  usage("unknown workload '" + name +
        "' (exec_grid | trace_grid | fault_campaign | served_mix)");
}

JsonValue metric(double value, const char* unit) {
  JsonValue m = JsonValue::object();
  m.set("value", JsonValue::number(value));
  m.set("unit", JsonValue::string(unit));
  return m;
}

int run_workload(const Options& o) {
  if (o.goldens_dir.empty() || o.work_dir.empty())
    usage("--goldens and --work are required");
  RunContext ctx;
  ctx.goldens_dir = o.goldens_dir;
  ctx.work_dir = o.work_dir;
  ctx.sim_seed = kGoldenSeeds[o.seed % 2];
  ctx.order_seed = o.seed;
  std::filesystem::create_directories(ctx.work_dir);
  const std::unique_ptr<Workload> wl = make_workload(o.workload, ctx);

  // Repeat (set-up, pass) until the time is spent; a traced run alternates
  // untraced and traced passes so both walls come from the same process.
  const std::size_t min_passes = o.trace ? 4 : 3;
  std::vector<PassRecord> recs;
  std::vector<double> cycle_s;
  double rss_mb = 0.0;
  const auto start = Clock::now();
  while (recs.size() < min_passes ||
         seconds_since(start) + median(cycle_s) <= o.seconds) {
    const auto c0 = Clock::now();
    PassRecord rec;
    rec.traced = o.trace && recs.size() % 2 == 1;
    wl->setup();
    rec.setup_s = seconds_since(c0);
    wl->pass(rec.traced, rec);
    std::fprintf(stderr, "pass %zu%s: setup %.4f s, wall %.4f s\n",
                 recs.size(), rec.traced ? " (traced)" : "", rec.setup_s,
                 rec.wall_s);
    wl->teardown();
    // Hand freed heap back to the kernel, so every pass starts from the same
    // resident baseline whichever allocator arenas the last pass touched.
    malloc_trim(0);
    cycle_s.push_back(seconds_since(c0));
    recs.push_back(std::move(rec));
    // Peak memory after a fixed amount of work: later passes add nothing a
    // user would see, only allocator retention that grows with run length.
    if (recs.size() == min_passes) rss_mb = peak_rss_mb();
  }

  // Every timing is a median over the passes of the run (grid
  // percentiles: over cells of each cell's median). The per-layer numbers
  // all come from one traced pass, the one with the median wall, so that
  // they add up.
  u64 attempted = 0, failed = 0;
  std::vector<double> setup, wall, uops_rate, jobs_rate, pass_p50, pass_p90;
  std::vector<std::vector<double>> per_cell;
  std::vector<const PassRecord*> untraced, traced;
  for (const PassRecord& r : recs) {
    attempted += r.attempted;
    failed += r.failed;
    setup.push_back(r.setup_s);
    if (r.traced) {
      traced.push_back(&r);
      continue;
    }
    untraced.push_back(&r);
    wall.push_back(r.wall_s);
    uops_rate.push_back(static_cast<double>(r.uops) / r.wall_s);
    jobs_rate.push_back(static_cast<double>(r.jobs) / r.wall_s);
    pass_p50.push_back(percentile(r.job_ms, 50));
    pass_p90.push_back(percentile(r.job_ms, 90));
    per_cell.resize(r.job_ms.size());
    for (std::size_t i = 0; i < r.job_ms.size(); ++i)
      per_cell[i].push_back(r.job_ms[i]);
  }
  std::vector<double> cell_ms;
  for (const auto& c : per_cell) cell_ms.push_back(median(c));

  std::map<std::string, double> e2e = {
      {"setup_s", median(setup)},
      {"wall_s", median(wall)},
      {"uops_per_s", median(uops_rate)},
      {"jobs_per_s", median(jobs_rate)},
      {"job_ms_p50", wl->per_cell_jobs() ? percentile(cell_ms, 50)
                                         : median(pass_p50)},
      {"job_ms_p90", wl->per_cell_jobs() ? percentile(cell_ms, 90)
                                         : median(pass_p90)},
      {"peak_rss_mb", rss_mb},
  };

  const auto median_pass = [](std::vector<const PassRecord*> v) {
    std::sort(v.begin(), v.end(), [](const PassRecord* a, const PassRecord* b) {
      return a->wall_s < b->wall_s;
    });
    return v.empty() ? nullptr : v[(v.size() - 1) / 2];
  };
  const PassRecord* base = median_pass(untraced);
  const PassRecord* probe = median_pass(traced);
  std::map<std::string, double> layers;
  if (probe) layers.insert(probe->layers.begin(), probe->layers.end());
  layers["pass.wall_s"] = base->wall_s;
  layers["pass.traced_wall_s"] = probe ? probe->wall_s : 0.0;
  layers["trace_overhead"] = layers["pass.traced_wall_s"] / base->wall_s;
  const std::vector<double>& sweep_ms = base->sweep_cell_ms;
  layers["sweep.cell_ms_p50"] = percentile(sweep_ms, 50);
  layers["sweep.cell_ms_max"] =
      sweep_ms.empty() ? 0.0 : *std::max_element(sweep_ms.begin(), sweep_ms.end());

  std::fprintf(stderr,
               "%s: sim seed %llu, order seed %llu, %zu passes, "
               "%llu jobs attempted, %llu failed\n",
               o.workload.c_str(), static_cast<unsigned long long>(ctx.sim_seed),
               static_cast<unsigned long long>(ctx.order_seed), recs.size(),
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  JsonValue metrics = JsonValue::object();
  if (!o.trace) {
    for (const MetricDef& d : kEndToEnd) {
      std::fprintf(stderr, "  %-26s %14.6g %s\n", d.name, e2e[d.name], d.unit);
      metrics.set(d.name, metric(e2e[d.name], d.unit));
    }
  } else {
    for (const MetricDef& d : kPerLayer) {
      std::fprintf(stderr, "  %-26s %14.6g %s\n", d.name, layers[d.name], d.unit);
      metrics.set(d.name, metric(layers[d.name], d.unit));
    }
    const double layer_sum = layers["cpu.self_s"] + layers["workload.next_s"] +
                             layers["hier.fetch_s"] + layers["hier.load_s"] +
                             layers["hier.store_s"] + layers["hier.tick_s"];
    if (layer_sum > 0.0)
      std::fprintf(stderr,
                   "  layer accounting: cpu.self_s + workload.next_s + hier.*_s "
                   "= %.4f s of traced pass %.4f s (untraced %.4f s)\n",
                   layer_sum, layers["pass.traced_wall_s"], layers["pass.wall_s"]);
  }

  JsonValue out = JsonValue::object();
  out.set("correct", JsonValue::boolean(failed == 0));
  out.set("attempted", JsonValue::number(attempted));
  out.set("failed", JsonValue::number(failed));
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump(0).c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

/// Production path (one sweep worker) and the benchmark's traced harness
/// must agree on every cell before a golden file is written.
std::vector<sim::RunResult> compute_cells(const std::vector<Cell>& cells,
                                          bool replay) {
  std::vector<sim::SweepJob> jobs;
  for (const Cell& c : cells) jobs.push_back({c.benchmark, c.options, c.tag});
  const std::vector<sim::RunResult> prod = sim::SweepRunner(1).run_or_throw(jobs);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    LayerTimes lt;
    double replay_s = 0.0;
    const sim::RunResult traced = replay ? run_replay_timed(cells[i], replay_s)
                                         : run_exec_traced(cells[i], lt);
    const std::string diff = result_diff(prod[i], traced);
    if (!diff.empty())
      throw std::runtime_error("traced harness disagrees with the production "
                               "path on " + cells[i].key() + ": " + diff);
  }
  return prod;
}

int write_all_goldens(const Options& o) {
  if (!o.has_sim_seed || o.goldens_dir.empty() || o.work_dir.empty())
    usage("--write-goldens needs --sim-seed, --goldens and --work");
  const u64 seed = o.sim_seed;
  std::filesystem::create_directories(o.goldens_dir);
  const auto write = [&](const char* name, const std::vector<Cell>& cells,
                         bool replay) {
    write_goldens(golden_path(o.goldens_dir, name, seed), name, seed, cells,
                  compute_cells(cells, replay));
    std::fprintf(stderr, "wrote %s (%zu cells)\n",
                 golden_path(o.goldens_dir, name, seed).c_str(), cells.size());
  };
  write("exec_grid", figure_grid(seed, ""), false);
  write("fault_campaign", fault_grid(seed), false);
  const std::string trace_dir = o.work_dir + "/golden_traces";
  capture_traces(trace_dir, benchmarks(), kInstructions, kWarmup, seed);
  write("trace_grid", figure_grid(seed, trace_dir), true);
  std::filesystem::remove_all(trace_dir);

  const u64 distinct = figure_grid(seed, "").size();
  JsonValue extra = JsonValue::object();
  extra.set("misses_per_pass", JsonValue::number(distinct));
  extra.set("hits_per_pass", JsonValue::number(distinct * kServedRepeats));
  write_goldens(golden_path(o.goldens_dir, "served_mix", seed), "served_mix",
                seed, {}, {}, std::move(extra));
  return 0;
}

/// Re-run the committed BENCH_sweep.json grid (Figs. 3/4, non-uniform) with
/// both the production path and the traced harness and compare every
/// committed metric of every cell.
int tieback(const Options& o) {
  std::ifstream in(o.tieback, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  const auto doc = json_parse(ss.str());
  if (!in || !doc) usage("cannot read " + o.tieback);
  const JsonValue* config = doc->find("config");
  const JsonValue* cells = doc->find("cells");
  if (!config || !cells) usage(o.tieback + " is not a bench JSON file");
  std::vector<Cell> grid;
  for (const JsonValue& c : cells->elements()) {
    const std::string tag = c.get_string("tag");
    sim::ExperimentOptions eo;
    eo.scheme = protect::SchemeKind::kNonUniform;
    eo.cleaning_interval =
        tag == "org" ? 0
                     : std::stoull(tag) << (tag.back() == 'M' ? 20 : 10);
    eo.instructions = config->get_u64("instructions");
    eo.warmup_instructions = config->get_u64("warmup");
    eo.seed = config->get_u64("seed");
    grid.push_back({c.get_string("benchmark"), eo, tag});
  }
  const std::vector<sim::RunResult> results = compute_cells(grid, false);
  u64 mismatches = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const JsonValue* committed = cells->elements()[i].find("metrics");
    const std::string want = committed ? committed->dump(0) : "(none)";
    const std::string got = sim::run_result_json(results[i]).dump(0);
    if (want != got) {
      ++mismatches;
      std::fprintf(stderr, "TIEBACK MISMATCH %s\n  committed %s\n  got       %s\n",
                   grid[i].key().c_str(), want.c_str(), got.c_str());
    }
  }
  std::fprintf(stderr, "tie-back: %zu of %zu cells of %s reproduced exactly\n",
               grid.size() - mismatches, grid.size(), o.tieback.c_str());
  return mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    if (!o.tieback.empty()) return tieback(o);
    if (o.write_goldens) return write_all_goldens(o);
    if (o.workload.empty()) usage("--workload is required");
    return run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aeep_perfbench: %s\n", e.what());
    return 2;
  }
}
