// served_mix: an in-process aeep_served job server on loopback with a fresh
// result store, driven as a closed loop by a few client connections that
// submit trace-replay jobs for the figure grid. Every distinct job is
// submitted once (store misses: replay, then insert), and after all of them
// have completed each is submitted kServedRepeats more times (store hits). The
// hit share is therefore fixed by the plan, and checked against the
// goldens, while each reply's metrics are checked against the trace_grid
// golden of the same cell.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "metrics/registry.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "sim/result_json.hpp"
#include "workloads.hpp"

namespace aeep::perfbench {

namespace {

/// Two server workers and four client connections (fewer on a smaller
/// machine). The clients keep the loop busy, so replies do not wait on idle
/// vCPUs waking up. The workers leave the machine room for the rest of the
/// process, so the pass wall does not slow whenever another tenant runs.
unsigned hw_threads() { return std::max(1u, std::thread::hardware_concurrency()); }
unsigned server_workers() { return std::min(2u, hw_threads()); }
unsigned client_connections() { return std::min(4u, hw_threads()); }

double percentile_of(const metrics::HistogramSnapshot* h, double p) {
  return h ? h->percentile(p) : 0.0;
}

class ServedMix final : public Workload {
 public:
  explicit ServedMix(RunContext ctx) : ctx_(std::move(ctx)) {}

  void setup() override {
    const Goldens served =
        load_goldens(golden_path(ctx_.goldens_dir, "served_mix", ctx_.sim_seed));
    want_hits_ = served.extra.get_u64("hits_per_pass");
    want_misses_ = served.extra.get_u64("misses_per_pass");
    trace_goldens_ = load_goldens(
        golden_path(ctx_.goldens_dir, "trace_grid", ctx_.sim_seed));
    exec_goldens_ =
        load_goldens(golden_path(ctx_.goldens_dir, "exec_grid", ctx_.sim_seed));

    const std::string trace_dir = ctx_.work_dir + "/served_traces";
    capture_traces(trace_dir, benchmarks(), kInstructions, kWarmup,
                   ctx_.sim_seed);
    cells_ = figure_grid(ctx_.sim_seed, trace_dir);
    expected_.clear();
    for (const Cell& c : cells_) {
      const auto g = trace_goldens_.cells.find(c.key());
      expected_.push_back(g == trace_goldens_.cells.end()
                              ? std::string("no golden for this cell")
                              : sim::run_result_json(g->second).dump(0));
    }

    const std::size_t n = cells_.size();
    first_ = permutation(n, ctx_.order_seed);
    repeats_.clear();
    for (const std::size_t k : permutation(n * kServedRepeats, ctx_.order_seed + 1))
      repeats_.push_back(k % n);

    server::ServerConfig cfg;
    cfg.port = 0;
    cfg.workers = server_workers();
    cfg.queue_capacity = 256;
    cfg.max_batch = 16;
    cfg.max_connections = client_connections() + 8;
    cfg.trace_dir = trace_dir;
    cfg.store_dir = ctx_.work_dir + "/served_store";
    server_ = std::make_unique<server::JobServer>(cfg);
    server_->start();
    clients_.clear();
    for (unsigned c = 0; c < client_connections(); ++c)
      clients_.push_back(
          std::make_unique<server::Client>("127.0.0.1", server_->port()));
  }

  bool per_cell_jobs() const override { return false; }

  void teardown() override {
    clients_.clear();
    if (server_) server_->drain();
    server_.reset();
    std::filesystem::remove_all(ctx_.work_dir + "/served_store");
    std::filesystem::remove_all(ctx_.work_dir + "/served_traces");
  }

  void pass(bool traced, PassRecord& rec) override {
    auto& registry = metrics::Registry::instance();
    if (traced) registry.reset();
    const server::ServerStats before = server_->stats();
    const auto t0 = Clock::now();
    run_phase(first_, rec);
    run_phase(repeats_, rec);
    rec.wall_s = seconds_since(t0);
    const server::ServerStats after = server_->stats();

    const u64 hits = after.cache_hits - before.cache_hits;
    const u64 misses = after.cache_misses - before.cache_misses;
    if (hits != want_hits_ || misses != want_misses_) {
      ++rec.failed;
      std::fprintf(stderr,
                   "GOLDEN MISMATCH served_mix store: %llu hits / %llu misses, "
                   "golden %llu / %llu\n",
                   static_cast<unsigned long long>(hits),
                   static_cast<unsigned long long>(misses),
                   static_cast<unsigned long long>(want_hits_),
                   static_cast<unsigned long long>(want_misses_));
    }
    if (!traced) return;

    auto& m = rec.layers;
    const auto hist = registry.histograms();
    const auto find = [&](const char* name) -> const metrics::HistogramSnapshot* {
      for (const auto& [k, h] : hist)
        if (k == name) return &h;
      return nullptr;
    };
    const auto counters = registry.counters();
    const auto counter = [&](const char* name) {
      for (const auto& [k, v] : counters)
        if (k == name) return static_cast<double>(v);
      return 0.0;
    };
    m["store.hits"] = counter("store.hits");
    m["store.misses"] = counter("store.misses");
    const double lookups = m["store.hits"] + m["store.misses"];
    m["store.hit_frac"] = lookups > 0.0 ? m["store.hits"] / lookups : 0.0;
    m["store.lookup_us_p50"] = percentile_of(find("store.lookup_us"), 50);
    m["store.insert_us_p50"] = percentile_of(find("store.insert_us"), 50);
    m["server.queue_wait_us_p50"] =
        percentile_of(find("server.queue_wait_us"), 50);
    m["server.queue_wait_us_p90"] =
        percentile_of(find("server.queue_wait_us"), 90);
    m["server.replay_us_p50"] = percentile_of(find("server.replay_us"), 50);
    m["server.encode_us_p50"] = percentile_of(find("server.encode_us"), 50);
    m["server.busy_rejected"] =
        static_cast<double>(after.busy_rejected - before.busy_rejected);

    // The misses are the jobs the server simulated: one replay per cell,
    // each verified equal to its trace_grid golden above.
    const auto* replay = find("server.replay_us");
    const double replay_s = replay ? static_cast<double>(replay->sum) * 1e-6 : 0.0;
    DecodeStats d;
    std::vector<sim::RunResult> results;
    for (const Cell& c : cells_) {
      decode_only(sim::trace_path_for(c.benchmark, c.options), d);
      const auto g = trace_goldens_.cells.find(c.key());
      results.push_back(g == trace_goldens_.cells.end() ? sim::RunResult{}
                                                         : g->second);
      add_work_counts(m, results.back());
    }
    m["replay.s"] = replay_s;
    m["trace.decode_s"] = d.seconds;
    m["trace.events"] = static_cast<double>(d.events);
    m["trace.bytes"] = static_cast<double>(d.bytes);
    m["trace.ns_per_event"] =
        d.events ? d.seconds * 1e9 / static_cast<double>(d.events) : 0.0;
    m["replay.decode_share"] = replay_s > 0.0 ? d.seconds / replay_s : 0.0;
    std::string worst;
    m["replay.err_max"] = replay_error(cells_, results, exec_goldens_, worst);
  }

 private:
  struct Tally {
    std::vector<double> ms;
    u64 attempted = 0, failed = 0, uops = 0;
  };

  /// Closed loop: each connection submits its next job only after the
  /// previous result arrived. Jobs are taken in `plan` order.
  void run_phase(const std::vector<std::size_t>& plan, PassRecord& rec) {
    std::atomic<std::size_t> next{0};
    std::vector<Tally> tallies(clients_.size());
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      threads.emplace_back([&, c] {
        server::Client& client = *clients_[c];
        Tally& t = tallies[c];
        for (std::size_t k = next++; k < plan.size(); k = next++) {
          ++t.attempted;
          if (!run_job(client, plan[k], t)) ++t.failed;
        }
      });
    }
    for (auto& th : threads) th.join();
    for (const Tally& t : tallies) {
      rec.attempted += t.attempted;
      rec.failed += t.failed;
      rec.jobs += t.attempted;
      rec.uops += t.uops;
      rec.job_ms.insert(rec.job_ms.end(), t.ms.begin(), t.ms.end());
    }
  }

  bool run_job(server::Client& client, std::size_t cell, Tally& t) const {
    const Cell& c = cells_[cell];
    server::JobSpec spec;
    spec.benchmark = c.benchmark;
    spec.frontend = sim::Frontend::kTrace;
    spec.scheme = c.options.scheme;
    spec.cleaning_interval = c.options.cleaning_interval;
    spec.ecc_entries_per_set = c.options.ecc_entries_per_set;
    spec.instructions = c.options.instructions;
    spec.warmup = c.options.warmup_instructions;
    spec.seed = c.options.seed;
    try {
      const auto t0 = Clock::now();
      u64 id = 0;
      while (true) {
        try {
          id = client.submit(spec);
          break;
        } catch (const server::ServerError& e) {
          if (e.kind() != server::ServerErrorKind::kBusy) throw;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      const JsonValue reply = client.result(id, /*wait=*/true, 120'000);
      t.ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
      const JsonValue* metrics = reply.find("metrics");
      if (!reply.get_bool("ready") || !metrics) {
        std::fprintf(stderr, "FAIL served %s: not ready\n", c.key().c_str());
        return false;
      }
      t.uops += metrics->get_u64("committed");
      const std::string got = metrics->dump(0);
      if (got != expected_[cell]) {
        std::fprintf(stderr, "GOLDEN MISMATCH served %s: got %s, golden %s\n",
                     c.key().c_str(), got.c_str(), expected_[cell].c_str());
        return false;
      }
      return true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "FAIL served %s: %s\n", c.key().c_str(), e.what());
      return false;
    }
  }

  RunContext ctx_;
  Goldens trace_goldens_;
  Goldens exec_goldens_;
  u64 want_hits_ = 0;
  u64 want_misses_ = 0;
  std::vector<Cell> cells_;
  std::vector<std::string> expected_;  ///< golden metrics JSON per cell
  std::vector<std::size_t> first_;     ///< one submit per distinct cell
  std::vector<std::size_t> repeats_;   ///< kServedRepeats more per cell
  std::unique_ptr<server::JobServer> server_;
  std::vector<std::unique_ptr<server::Client>> clients_;
};

}  // namespace

std::unique_ptr<Workload> make_served_mix(const RunContext& ctx) {
  return std::make_unique<ServedMix>(ctx);
}

}  // namespace aeep::perfbench
