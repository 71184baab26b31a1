#include "harness.hpp"

#include <filesystem>

#include "cpu/core.hpp"
#include "sim/hierarchy.hpp"
#include "sim/system.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "workload/generator.hpp"
#include "workload/profile.hpp"

namespace aeep::perfbench {

namespace {

i64 ns_since(Clock::time_point t0) { return (Clock::now() - t0).count(); }

/// Tracks whether anything but tick() reached the hierarchy or the source
/// between two ticks; such a cycle is "quiet" (the core had no memory or
/// fetch work for it).
struct QuietTracker {
  LayerTimes& t;
  bool ticked = false;
  bool active = false;

  void on_tick() {
    if (ticked && !active) ++t.quiet_ticks;
    ticked = true;
    active = false;
  }
  void finish() {
    if (ticked && !active) ++t.quiet_ticks;
    ticked = false;
  }
};

class TimedSource final : public cpu::UopSource {
 public:
  TimedSource(cpu::UopSource& inner, QuietTracker& q)
      : inner_(inner), q_(q) {}

  cpu::MicroOp next() override {
    const auto t0 = Clock::now();
    const cpu::MicroOp op = inner_.next();
    q_.t.next_ns += ns_since(t0);
    ++q_.t.next_calls;
    q_.active = true;
    return op;
  }
  const char* name() const override { return inner_.name(); }

 private:
  cpu::UopSource& inner_;
  QuietTracker& q_;
};

class TimedMemory final : public cpu::MemoryInterface {
 public:
  TimedMemory(cpu::MemoryInterface& inner, QuietTracker& q)
      : inner_(inner), q_(q) {}

  Cycle fetch(Cycle now, Addr pc) override {
    const auto t0 = Clock::now();
    const Cycle c = inner_.fetch(now, pc);
    q_.t.fetch_ns += ns_since(t0);
    ++q_.t.fetch_calls;
    q_.active = true;
    return c;
  }
  Cycle load(Cycle now, Addr addr) override {
    const auto t0 = Clock::now();
    const Cycle c = inner_.load(now, addr);
    q_.t.load_ns += ns_since(t0);
    ++q_.t.load_calls;
    q_.active = true;
    return c;
  }
  bool store(Cycle now, Addr addr, u64 value) override {
    const auto t0 = Clock::now();
    const bool ok = inner_.store(now, addr, value);
    q_.t.store_ns += ns_since(t0);
    ++q_.t.store_calls;
    if (!ok) ++q_.t.store_rejected;
    q_.active = true;
    return ok;
  }
  void tick(Cycle now) override {
    q_.on_tick();
    const auto t0 = Clock::now();
    inner_.tick(now);
    q_.t.tick_ns += ns_since(t0);
    ++q_.t.tick_calls;
  }

 private:
  cpu::MemoryInterface& inner_;
  QuietTracker& q_;
};

}  // namespace

sim::RunResult run_exec_traced(const Cell& cell, LayerTimes& acc) {
  const sim::SystemConfig cfg =
      sim::make_system_config(cell.benchmark, cell.options);
  // Construction order and every call below follow sim::System.
  workload::SyntheticWorkload wl(workload::profile_by_name(cfg.benchmark),
                                 cfg.seed);
  sim::MemoryHierarchy hier(cfg.hierarchy);
  QuietTracker quiet{acc};
  TimedSource source(wl, quiet);
  TimedMemory memory(hier, quiet);
  cpu::OutOfOrderCore core(cfg.core, source, memory);

  // run(), not step(): anything run() does between steps is measured.
  auto timed_run = [&](u64 max_commits) {
    const auto t0 = Clock::now();
    const cpu::CoreStats cs = core.run(max_commits);
    acc.run_ns += ns_since(t0);
    return cs;
  };
  if (cfg.warmup_instructions > 0) {
    timed_run(cfg.warmup_instructions);
    core.reset_stats();
    hier.reset_stats(core.now());
  }
  const cpu::CoreStats cs =
      timed_run(core.stats().committed + cfg.instructions);
  quiet.finish();
  hier.l2().finalize(core.now());

  sim::RunResult r;
  r.benchmark = cfg.benchmark;
  r.floating_point = wl.profile().floating_point;
  r.core = cs;

  const auto& l2 = hier.l2();
  r.avg_dirty_fraction = l2.avg_dirty_fraction();
  r.avg_dirty_lines = static_cast<u64>(l2.avg_dirty_lines() + 0.5);
  r.peak_dirty_lines = l2.peak_dirty_lines();
  r.wb_replacement = l2.wb_count(protect::WbCause::kReplacement);
  r.wb_cleaning = l2.wb_count(protect::WbCause::kCleaning);
  r.wb_ecc = l2.wb_count(protect::WbCause::kEccEviction);

  r.recovery = l2.recovery().stats();
  r.retired_ways = l2.cache_model().retired_ways();
  r.retired_capacity_fraction = l2.retired_capacity_fraction();
  r.panicked = l2.recovery().panicked();
  if (const auto* sp = hier.strikes()) r.strikes = sp->stats();

  r.l1i = hier.l1i().stats();
  r.l1d = hier.l1d().stats();
  r.l2 = l2.cache_model().stats();
  r.wbuf = hier.write_buffer().stats();
  r.bus = hier.bus().stats();
  r.itlb = hier.itlb().stats();
  r.dtlb = hier.dtlb().stats();

  acc.cycles += core.now();
  acc.cleaning_inspections += l2.cleaning_inspections();
  acc.silent_words_elided += l2.silent_words_elided();
  return r;
}

sim::RunResult run_replay_timed(const Cell& cell, double& replay_s) {
  const sim::SystemConfig cfg =
      sim::make_system_config(cell.benchmark, cell.options);
  trace::ReplayConfig rc;
  rc.hierarchy = cfg.hierarchy;
  rc.trace_path = sim::trace_path_for(cell.benchmark, cell.options);
  trace::ReplayDriver driver(std::move(rc));
  const auto t0 = Clock::now();
  sim::RunResult r = driver.run();
  replay_s += seconds_since(t0);
  r.benchmark = cell.benchmark;
  r.floating_point = workload::profile_by_name(cell.benchmark).floating_point;
  return r;
}

void decode_only(const std::string& path, DecodeStats& acc) {
  const auto t0 = Clock::now();
  trace::TraceReader reader(path);
  trace::TraceEvent e;
  while (reader.next(e)) {
  }
  acc.seconds += seconds_since(t0);
  acc.events += reader.events_read();
  acc.bytes += std::filesystem::file_size(path);
}

void capture_traces(const std::string& dir,
                    const std::vector<std::string>& benchmarks,
                    u64 instructions, u64 warmup, u64 seed) {
  std::filesystem::create_directories(dir);
  for (const auto& b : benchmarks) {
    sim::ExperimentOptions eo;
    eo.instructions = instructions;
    eo.warmup_instructions = warmup;
    eo.seed = seed;
    eo.capture_path = dir + "/" + b + ".aeept";
    sim::run_benchmark(b, eo);
  }
}

}  // namespace aeep::perfbench
