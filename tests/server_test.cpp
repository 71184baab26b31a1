// Tests for the networked job service (src/server/): wire-protocol framing
// and JobSpec mapping, the JobServer's queueing/backpressure/timeout/drain
// semantics over real loopback TCP, and the load-bearing equivalence claim:
// a trace-replay job through the server returns bit-identical metrics to
// the same replay run in-process. Also the client's retry backoff, the
// typed errors a misbehaving peer must surface as, the server's robustness
// against malformed frames, the health/drain endpoints and the bounded
// access log.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "metrics/histogram.hpp"
#include "server/access_log.hpp"
#include "server/backoff.hpp"
#include "server/client.hpp"
#include "server/registry.hpp"
#include "server/server.hpp"
#include "server/wire.hpp"
#include "sim/experiment.hpp"
#include "sim/result_json.hpp"

namespace aeep::server {
namespace {

std::string temp_trace(const char* name) {
  return testing::TempDir() + "aeep_server_test_" + name + ".aeept";
}

/// Capture a small gzip trace and return its path.
std::string capture_gzip(const char* name, u64 instructions = 30'000) {
  const std::string path = temp_trace(name);
  sim::ExperimentOptions eo;
  eo.instructions = instructions;
  eo.warmup_instructions = 5'000;
  eo.capture_path = path;
  sim::run_benchmark("gzip", eo);
  return path;
}

ServerErrorKind kind_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ServerError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected a ServerError";
  return ServerErrorKind::kInternal;
}

// --- wire protocol (no sockets) -------------------------------------------

TEST(ServerWire, JobSpecRoundTripsThroughJson) {
  JobSpec spec;
  spec.benchmark = "mcf";
  spec.frontend = sim::Frontend::kTrace;
  spec.scheme = protect::SchemeKind::kSharedEccArray;
  spec.cleaning_policy = protect::CleaningPolicy::kDecayCounter;
  spec.cleaning_interval = 64 * 1024;
  spec.decay_threshold = 3;
  spec.ecc_entries_per_set = 2;
  spec.instructions = 123'456;
  spec.warmup = 7'890;
  spec.seed = 99;
  spec.maintain_codes = true;
  spec.trace = "mcf_long";
  spec.timeout_ms = 5'000;
  const JsonValue j = job_spec_to_json(spec);
  const JobSpec back = job_spec_from_json(j);
  EXPECT_EQ(job_spec_to_json(back).dump(0), j.dump(0));
  EXPECT_EQ(back.trace_name(), "mcf_long");
}

TEST(ServerWire, DefaultTraceNameIsTheBenchmark) {
  JobSpec spec;
  spec.benchmark = "swim";
  EXPECT_EQ(spec.trace_name(), "swim");
}

TEST(ServerWire, UnknownJobFieldIsBadRequest) {
  JsonValue j = JsonValue::object();
  j.set("benchmork", JsonValue::string("gzip"));  // typo must not be ignored
  EXPECT_EQ(kind_of([&] { job_spec_from_json(j); }),
            ServerErrorKind::kBadRequest);
}

TEST(ServerWire, BadEnumSpellingsAreBadRequests) {
  EXPECT_EQ(kind_of([] { scheme_from_string("parity"); }),
            ServerErrorKind::kBadRequest);
  EXPECT_EQ(kind_of([] { cleaning_policy_from_string("lazy"); }),
            ServerErrorKind::kBadRequest);
  EXPECT_EQ(kind_of([] { frontend_from_string("dramsim"); }),
            ServerErrorKind::kBadRequest);
}

TEST(ServerWire, WireCodesRoundTrip) {
  for (const auto kind :
       {ServerErrorKind::kIo, ServerErrorKind::kProtocol,
        ServerErrorKind::kBadRequest, ServerErrorKind::kBusy,
        ServerErrorKind::kNotFound, ServerErrorKind::kTimeout,
        ServerErrorKind::kShutdown, ServerErrorKind::kInternal})
    EXPECT_EQ(kind_from_wire_code(wire_code(kind)), kind);
}

TEST(ServerWire, CheckReplyRaisesTypedErrors) {
  const JsonValue busy = error_reply(ServerErrorKind::kBusy, "queue full");
  EXPECT_EQ(kind_of([&] { check_reply(busy); }), ServerErrorKind::kBusy);
  const JsonValue fine = ok_reply("pong");
  EXPECT_EQ(&check_reply(fine), &fine);  // ok passes through
}

TEST(ServerWire, ToExperimentOptionsMapsEveryField) {
  // Every mapped field is set away from its default, so a field the
  // mapping drops shows up as a default value below.
  JobSpec spec;
  spec.benchmark = "mcf";
  spec.frontend = sim::Frontend::kTrace;
  spec.scheme = protect::SchemeKind::kSharedEccArray;
  spec.cleaning_policy = protect::CleaningPolicy::kDecayCounter;
  spec.cleaning_interval = 256 * 1024;
  spec.decay_threshold = 3;
  spec.ecc_entries_per_set = 2;
  spec.instructions = 123'456;
  spec.warmup = 7'890;
  spec.seed = 99;
  spec.maintain_codes = true;
  spec.trace = "mcf_long";
  spec.timeout_ms = 5'000;
  const sim::ExperimentOptions defaults;
  const sim::ExperimentOptions o = to_experiment_options(spec);
  EXPECT_EQ(o.frontend, spec.frontend);
  EXPECT_NE(o.frontend, defaults.frontend);
  EXPECT_EQ(o.scheme, spec.scheme);
  EXPECT_NE(o.scheme, defaults.scheme);
  EXPECT_EQ(o.cleaning_policy, spec.cleaning_policy);
  EXPECT_NE(o.cleaning_policy, defaults.cleaning_policy);
  EXPECT_EQ(o.cleaning_interval, spec.cleaning_interval);
  EXPECT_NE(o.cleaning_interval, defaults.cleaning_interval);
  EXPECT_EQ(o.decay_threshold, spec.decay_threshold);
  EXPECT_NE(o.decay_threshold, defaults.decay_threshold);
  EXPECT_EQ(o.ecc_entries_per_set, spec.ecc_entries_per_set);
  EXPECT_NE(o.ecc_entries_per_set, defaults.ecc_entries_per_set);
  EXPECT_EQ(o.instructions, spec.instructions);
  EXPECT_NE(o.instructions, defaults.instructions);
  EXPECT_EQ(o.warmup_instructions, spec.warmup);
  EXPECT_NE(o.warmup_instructions, defaults.warmup_instructions);
  EXPECT_EQ(o.seed, spec.seed);
  EXPECT_NE(o.seed, defaults.seed);
  EXPECT_EQ(o.maintain_codes, spec.maintain_codes);
  EXPECT_NE(o.maintain_codes, defaults.maintain_codes);
  // The trace file is resolved by the server's registry, not the mapping.
  EXPECT_TRUE(o.trace_path.empty());
  EXPECT_TRUE(o.trace_dir.empty());
}

// --- framing over a real socket pair --------------------------------------

TEST(ServerSocket, FramesRoundTripAndCleanCloseIsNullopt) {
  Listener listener("127.0.0.1", 0);
  JsonValue doc = JsonValue::object();
  doc.set("type", JsonValue::string("ping"));
  doc.set("n", JsonValue::number(u64{7}));
  std::thread peer([&] {
    Socket c = connect_to("127.0.0.1", listener.port());
    send_frame(c, doc);
    // destructor closes: the server side must see a clean end-of-stream
  });
  auto accepted = listener.accept(2'000);
  ASSERT_TRUE(accepted.has_value());
  const auto frame = recv_frame(*accepted, 2'000);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->dump(0), doc.dump(0));
  EXPECT_FALSE(recv_frame(*accepted, 2'000).has_value());
  peer.join();
}

TEST(ServerSocket, OversizedPrefixIsProtocolError) {
  Listener listener("127.0.0.1", 0);
  std::thread peer([&] {
    Socket c = connect_to("127.0.0.1", listener.port());
    const u8 huge[4] = {0xFF, 0xFF, 0xFF, 0x7F};  // ~2GB "frame"
    c.send_all(huge, sizeof(huge));
  });
  auto accepted = listener.accept(2'000);
  ASSERT_TRUE(accepted.has_value());
  EXPECT_EQ(kind_of([&] { recv_frame(*accepted, 2'000); }),
            ServerErrorKind::kProtocol);
  peer.join();
}

// --- registry --------------------------------------------------------------

TEST(ServerRegistry, UnknownNameIsNotFoundAndGarbageIsRejected) {
  TraceRegistry reg;
  EXPECT_EQ(kind_of([&] { reg.path_of("nope"); }), ServerErrorKind::kNotFound);
  EXPECT_EQ(kind_of([&] { reg.add("bad", "/does/not/exist.aeept"); }),
            ServerErrorKind::kIo);
  const std::string path = capture_gzip("registry", 5'000);
  reg.add("gzip", path);
  EXPECT_EQ(reg.path_of("gzip"), path);
  EXPECT_EQ(reg.names(), std::vector<std::string>{"gzip"});
  std::remove(path.c_str());
}

// --- the server end to end -------------------------------------------------

JobSpec small_exec_job(u64 instructions = 30'000) {
  JobSpec spec;
  spec.benchmark = "gzip";
  spec.instructions = instructions;
  spec.warmup = 5'000;
  return spec;
}

TEST(JobServer, PingSubmitStatusResultLifecycle) {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 1;
  JobServer served(cfg);
  served.start();
  Client client("127.0.0.1", served.port());

  const JsonValue pong = client.ping();
  EXPECT_EQ(pong.get_string("type"), "pong");
  EXPECT_EQ(pong.get_u64("protocol"), 1u);

  const u64 id = client.submit(small_exec_job());
  EXPECT_GT(id, 0u);
  const JsonValue result = client.result(id, /*wait=*/true, 60'000);
  EXPECT_TRUE(result.get_bool("ready"));
  EXPECT_EQ(result.get_string("state"), "done");
  const JsonValue* metrics = result.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_GT(metrics->get_u64("committed"), 0u);
  EXPECT_GT(metrics->get_double("ipc"), 0.0);

  const JsonValue status = client.status(id);
  EXPECT_EQ(status.get_string("state"), "done");

  EXPECT_EQ(kind_of([&] { client.status(id + 1000); }),
            ServerErrorKind::kNotFound);

  const ServerStats stats = served.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
  served.drain();
}

TEST(JobServer, ResubmittedJobIsServedFromTheResultStore) {
  const std::string store_dir =
      testing::TempDir() + "aeep_server_test_store";
  std::filesystem::remove_all(store_dir);

  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 1;
  cfg.store_dir = store_dir;
  JobServer served(cfg);
  served.start();
  Client client("127.0.0.1", served.port());

  const u64 first = client.submit(small_exec_job());
  const JsonValue cold = client.result(first, /*wait=*/true, 60'000);
  EXPECT_EQ(cold.get_string("state"), "done");
  ASSERT_EQ(served.stats().cache_stores, 1u);

  // Same spec again: answered from the store, born terminal — no queue
  // time, no worker dispatch, and bit-identical metrics.
  const u64 second = client.submit(small_exec_job());
  EXPECT_NE(second, first);
  const JsonValue warm = client.result(second, /*wait=*/false);
  EXPECT_TRUE(warm.get_bool("ready"));
  EXPECT_EQ(warm.get_string("state"), "done");
  ASSERT_NE(warm.find("metrics"), nullptr);
  ASSERT_NE(cold.find("metrics"), nullptr);
  EXPECT_EQ(warm.find("metrics")->dump(0), cold.find("metrics")->dump(0));

  const ServerStats stats = served.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_stores, 1u);
  EXPECT_EQ(stats.completed, 2u);  // a cache hit still counts as completed

  // The wire stats reply exposes the same counters plus the store gauges.
  const JsonValue wire = client.stats();
  EXPECT_EQ(wire.get_u64("cache_hits"), 1u);
  EXPECT_EQ(wire.get_u64("cache_misses"), 1u);
  EXPECT_EQ(wire.get_u64("store_entries"), 1u);
  EXPECT_GT(wire.get_u64("store_bytes"), 0u);
  served.drain();
}

TEST(JobServer, ResubmittingTheMomentAResultArrivesHitsTheStore) {
  // A job's result must be in the store before the job is observable as
  // done, or a client that resubmits at once races the insert and misses.
  // Four clients keep both workers and the dispatcher busy, which is what
  // opens that window.
  const std::string store_dir =
      testing::TempDir() + "aeep_server_test_store_race";
  std::filesystem::remove_all(store_dir);
  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 2;
  cfg.store_dir = store_dir;
  JobServer served(cfg);
  served.start();

  constexpr u64 kClients = 4;
  constexpr u64 kJobsEach = 8;
  std::atomic<u64> missed{0};
  std::vector<std::thread> clients;
  for (u64 c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client("127.0.0.1", served.port());
      for (u64 k = 0; k < kJobsEach; ++k) {
        JobSpec spec = small_exec_job(5'000);
        spec.seed = 1 + c * kJobsEach + k;
        client.result(client.submit(spec), /*wait=*/true, 60'000);
        const u64 warm = client.submit(spec);
        if (!client.result(warm, /*wait=*/false).get_bool("ready")) ++missed;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(missed.load(), 0u);
  const ServerStats stats = served.stats();
  EXPECT_EQ(stats.cache_misses, kClients * kJobsEach);
  EXPECT_EQ(stats.cache_hits, kClients * kJobsEach);
  served.drain();
  std::filesystem::remove_all(store_dir);
}

TEST(JobServer, FullQueueAnswersBusyInsteadOfQueueingUnboundedly) {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.queue_capacity = 1;
  JobServer served(cfg);
  served.start();
  Client client("127.0.0.1", served.port());

  // One slow job to occupy the single worker...
  std::vector<u64> accepted;
  accepted.push_back(client.submit(small_exec_job(300'000)));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // ...then flood: with capacity 1, at most one more fits; the rest must
  // be answered `busy` — an explicit reply, not a hang or a drop.
  u64 busy = 0;
  for (int i = 0; i < 4; ++i) {
    try {
      accepted.push_back(client.submit(small_exec_job()));
    } catch (const ServerError& e) {
      ASSERT_EQ(e.kind(), ServerErrorKind::kBusy);
      ++busy;
    }
  }
  EXPECT_GE(busy, 3u);  // >= 3 of the 4 flooded submits bounced
  EXPECT_EQ(served.stats().busy_rejected, busy);
  for (const u64 id : accepted) {
    const JsonValue r = client.result(id, /*wait=*/true, 120'000);
    EXPECT_TRUE(r.get_bool("ready"));
  }
  served.drain();
}

TEST(JobServer, QueuedJobPastDeadlineTimesOutWithoutRunning) {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 1;
  cfg.max_batch = 1;
  JobServer served(cfg);
  served.start();
  Client client("127.0.0.1", served.port());

  client.submit(small_exec_job(300'000));  // occupies the worker
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  JobSpec hurried = small_exec_job();
  hurried.timeout_ms = 1;  // will expire while queued behind the slow job
  const u64 id = client.submit(hurried);
  EXPECT_EQ(kind_of([&] { client.result(id, /*wait=*/true, 120'000); }),
            ServerErrorKind::kTimeout);
  EXPECT_GE(served.stats().timed_out, 1u);
  served.drain();
}

/// Poll until the server reports `n` running jobs (the slow job has left
/// the queue and occupies the worker).
void wait_until_running(const JobServer& served, std::size_t n) {
  for (int i = 0; i < 500 && served.stats().running < n; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(served.stats().running, n);
}

TEST(JobServer, StopFailsQueuedJobsWithShutdown) {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.queue_capacity = 4;
  JobServer served(cfg);
  served.start();
  Client client("127.0.0.1", served.port());

  client.submit(small_exec_job(300'000));
  wait_until_running(served, 1);
  client.submit(small_exec_job());
  client.submit(small_exec_job());
  EXPECT_EQ(served.stats().queued, 2u);

  // stop() fails both queued jobs at once, then waits for the running
  // batch, which still completes.
  served.stop();
  const ServerStats stats = served.stats();
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(JobServer, QueuedJobsReportFifoPositionAndRunInSubmitOrder) {
  const std::string log_path =
      testing::TempDir() + "aeep_server_test_fifo.log";
  std::filesystem::remove(log_path);
  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.access_log_path = log_path;
  JobServer served(cfg);
  served.start();
  Client client("127.0.0.1", served.port());

  const u64 slow = client.submit(small_exec_job(300'000));
  wait_until_running(served, 1);
  const std::vector<u64> queued = {client.submit(small_exec_job()),
                                   client.submit(small_exec_job()),
                                   client.submit(small_exec_job())};
  for (std::size_t i = 0; i < queued.size(); ++i) {
    const JsonValue st = client.status(queued[i]);
    EXPECT_EQ(st.get_string("state"), "queued");
    EXPECT_EQ(st.get_u64("queue_position", 99), i) << "job " << queued[i];
  }
  for (const u64 id : queued)
    EXPECT_TRUE(client.result(id, /*wait=*/true, 120'000).get_bool("ready"));
  served.drain();

  // The access log's terminal "job" lines give the completion order.
  std::vector<u64> finished;
  std::ifstream in(log_path);
  for (std::string line; std::getline(in, line);) {
    const auto entry = json_parse(line);
    ASSERT_TRUE(entry.has_value()) << line;
    if (entry->get_string("event", "") == "job")
      finished.push_back(entry->get_u64("job", 0));
  }
  const std::vector<u64> expected = {slow, queued[0], queued[1], queued[2]};
  EXPECT_EQ(finished, expected);
}

TEST(JobServer, StoreHitWhileMissesAreQueuedLeavesQueueCountAlone) {
  const std::string store_dir =
      testing::TempDir() + "aeep_server_test_store_queued";
  std::filesystem::remove_all(store_dir);
  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  cfg.store_dir = store_dir;
  JobServer served(cfg);
  served.start();
  Client client("127.0.0.1", served.port());

  // Warm the store with one spec.
  const u64 warm = client.submit(small_exec_job());
  ASSERT_TRUE(client.result(warm, /*wait=*/true, 60'000).get_bool("ready"));
  for (int i = 0; i < 200 && served.stats().cache_stores == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(served.stats().cache_stores, 1u);

  // Occupy the worker, queue miss A, then a hit: the hit never enters the
  // queue, so the count stays at 1 and miss B still fits.
  client.submit(small_exec_job(300'000));
  wait_until_running(served, 1);
  const u64 a = client.submit(small_exec_job(31'000));
  EXPECT_EQ(served.stats().queued, 1u);
  const u64 hit = client.submit(small_exec_job());
  EXPECT_TRUE(client.result(hit, /*wait=*/false).get_bool("ready"));
  EXPECT_EQ(served.stats().queued, 1u);
  const u64 b = client.submit(small_exec_job(32'000));
  EXPECT_EQ(served.stats().queued, 2u);

  for (const u64 id : {a, b})
    EXPECT_EQ(client.result(id, /*wait=*/true, 120'000).get_string("state"),
              "done");
  EXPECT_EQ(served.stats().queued, 0u);
  // A later miss is accepted (not kBusy) and runs.
  const u64 c = client.submit(small_exec_job(33'000));
  EXPECT_EQ(client.result(c, /*wait=*/true, 120'000).get_string("state"),
            "done");
  const ServerStats stats = served.stats();
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.busy_rejected, 0u);
  EXPECT_EQ(stats.cache_hits, 1u);
  served.drain();
}

TEST(JobServer, UnregisteredTraceNameIsNotFoundAtSubmitTime) {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 1;
  JobServer served(cfg);
  served.start();
  Client client("127.0.0.1", served.port());
  JobSpec spec = small_exec_job();
  spec.frontend = sim::Frontend::kTrace;  // no such trace registered
  EXPECT_EQ(kind_of([&] { client.submit(spec); }),
            ServerErrorKind::kNotFound);
  served.drain();
}

TEST(JobServer, DrainFinishesAcceptedWorkAndRejectsNewSubmits) {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 1;
  JobServer served(cfg);
  served.start();
  Client client("127.0.0.1", served.port());
  const u64 id = client.submit(small_exec_job());
  served.request_drain();
  EXPECT_TRUE(served.draining());
  EXPECT_EQ(kind_of([&] { client.submit(small_exec_job()); }),
            ServerErrorKind::kShutdown);
  // The job accepted before the drain still completes and is collectable
  // while the server winds down.
  const JsonValue r = client.result(id, /*wait=*/true, 120'000);
  EXPECT_TRUE(r.get_bool("ready"));
  EXPECT_EQ(served.drain(), 1u);
  EXPECT_EQ(served.stats().shutdown_rejected, 1u);
}

TEST(JobServer, TraceReplayThroughServerIsBitExactWithDirectReplay) {
  const std::string path = capture_gzip("equivalence");

  sim::ExperimentOptions ro;
  ro.instructions = 30'000;
  ro.warmup_instructions = 5'000;
  ro.frontend = sim::Frontend::kTrace;
  ro.trace_path = path;
  const sim::RunResult direct = sim::run_benchmark("gzip", ro);

  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 1;
  JobServer served(cfg);
  served.registry().add("gzip", path);
  served.start();
  Client client("127.0.0.1", served.port());
  JobSpec spec = small_exec_job();
  spec.frontend = sim::Frontend::kTrace;
  const JsonValue reply = client.run(spec);
  ASSERT_TRUE(reply.get_bool("ready"));
  const JsonValue* metrics = reply.find("metrics");
  ASSERT_NE(metrics, nullptr);
  // Same canonical rendering on both sides — byte equality, no tolerance.
  EXPECT_EQ(metrics->dump(0), sim::run_result_json(direct).dump(0));
  served.drain();
  std::remove(path.c_str());
}

TEST(JobServer, TokenGateRefusesEverythingButPing) {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 1;
  cfg.token = "sekrit";
  JobServer served(cfg);
  served.start();
  Client client("127.0.0.1", served.port());

  // Ping stays open so discovery works before credentials, and advertises
  // that everything else is gated.
  const JsonValue pong = client.ping();
  EXPECT_EQ(pong.get_string("type"), "pong");
  EXPECT_TRUE(pong.get_bool("auth_required"));

  // No token and a wrong token both get the typed refusal.
  EXPECT_EQ(kind_of([&] { client.metrics(); }),
            ServerErrorKind::kUnauthorized);
  client.set_token("wrong");
  EXPECT_EQ(kind_of([&] { client.submit(small_exec_job()); }),
            ServerErrorKind::kUnauthorized);

  // The right token unlocks the full protocol.
  client.set_token("sekrit");
  const u64 id = client.submit(small_exec_job());
  const JsonValue result = client.result(id, /*wait=*/true, 60'000);
  EXPECT_TRUE(result.get_bool("ready"));
  EXPECT_FALSE(client.metrics().find("metrics") == nullptr);

  const ServerStats stats = served.stats();
  EXPECT_EQ(stats.unauthorized, 2u);
  EXPECT_EQ(stats.completed, 1u);
  served.drain();
}

TEST(JobServer, MetricsEndpointStageCountsMatchTheWorkDone) {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 1;
  JobServer served(cfg);
  served.start();
  Client client("127.0.0.1", served.port());

  // The registry is process-global (other tests in this binary have
  // already recorded into it), so assert on the interval this test adds,
  // not on absolute counts.
  const auto stage = [&](const JsonValue& reply, const char* name) {
    const JsonValue* hists = reply.find("metrics")->find("histograms");
    const JsonValue* doc = hists == nullptr ? nullptr : hists->find(name);
    if (doc == nullptr) return metrics::HistogramSnapshot{};
    const auto snap = metrics::HistogramSnapshot::from_json(*doc);
    return snap.value_or(metrics::HistogramSnapshot{});
  };
  const JsonValue before = client.metrics();
  EXPECT_GE(before.get_double("uptime_ms"), 0.0);

  constexpr u64 kJobs = 3;
  std::vector<u64> ids;
  for (u64 i = 0; i < kJobs; ++i) {
    JobSpec spec = small_exec_job();
    spec.seed = 100 + i;
    ids.push_back(client.submit(spec));
  }
  for (const u64 id : ids) client.result(id, /*wait=*/true, 60'000);
  const JsonValue after = client.metrics();

  // Every job passed through the queue exactly once, was replayed exactly
  // once, and closed out exactly one wall-clock span.
  for (const char* name :
       {"server.queue_wait_us", "server.replay_us", "server.job_wall_us"}) {
    const auto delta =
        stage(after, name).diff_since(stage(before, name));
    ASSERT_TRUE(delta.has_value()) << name;
    EXPECT_EQ(delta->count, kJobs) << name;
  }
  served.drain();
}

TEST(JobServer, FailedJobSurfacesAsTypedInternalError) {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 1;
  JobServer served(cfg);
  served.start();
  Client client("127.0.0.1", served.port());
  JobSpec spec = small_exec_job();
  spec.benchmark = "no_such_benchmark";
  const u64 id = client.submit(spec);  // accepted: validated at run time
  EXPECT_EQ(kind_of([&] { client.result(id, /*wait=*/true, 60'000); }),
            ServerErrorKind::kInternal);
  EXPECT_EQ(served.stats().failed, 1u);
  served.drain();
}

// --- client retry backoff ---------------------------------------------------

TEST(Backoff, ZeroJitterIsTheExactGeometricLadder) {
  BackoffPolicy policy;
  policy.base_ms = 50;
  policy.max_ms = 5'000;
  policy.multiplier = 2.0;
  policy.jitter = 0.0;
  Backoff b(policy, 1);
  EXPECT_EQ(b.next_delay_ms(), 50u);
  EXPECT_EQ(b.next_delay_ms(), 100u);
  EXPECT_EQ(b.next_delay_ms(), 200u);
  EXPECT_EQ(b.next_delay_ms(), 400u);
  for (int i = 0; i < 10; ++i) b.next_delay_ms();
  EXPECT_EQ(b.next_delay_ms(), 5'000u);  // capped
  b.reset();
  EXPECT_EQ(b.next_delay_ms(), 50u);
}

TEST(Backoff, SameSeedSameSchedule) {
  const BackoffPolicy policy;  // default jitter 0.5
  Backoff a(policy, 42), b(policy, 42), c(policy, 43);
  bool diverged = false;
  for (int i = 0; i < 8; ++i) {
    const u64 da = a.next_delay_ms();
    EXPECT_EQ(da, b.next_delay_ms());
    diverged = diverged || da != c.next_delay_ms();
  }
  EXPECT_TRUE(diverged) << "different seeds should jitter differently";
}

TEST(Backoff, JitteredDelaysStayWithinTheEnvelope) {
  BackoffPolicy policy;
  policy.base_ms = 100;
  policy.max_ms = 10'000;
  policy.jitter = 0.5;
  Backoff b(policy, 9);
  u64 ceiling = 100;
  for (int i = 0; i < 6; ++i) {
    const u64 d = b.next_delay_ms();
    EXPECT_GE(d, ceiling / 2);
    EXPECT_LE(d, ceiling);
    ceiling = std::min<u64>(ceiling * 2, policy.max_ms);
  }
}

// --- a misbehaving peer: the typed error each fault surfaces as ---------

/// A one-connection stand-in for aeep_served: accepts the client, reads its
/// request frame, then hands the connection to `script`, which answers (or
/// fails to) with raw bytes. The connection closes when `script` returns.
class ScriptedPeer {
 public:
  explicit ScriptedPeer(std::function<void(Socket&)> script)
      : thread_([this, script = std::move(script)] {
          std::optional<Socket> conn = listener_.accept(5'000);
          if (!conn || !recv_frame(*conn, 5'000)) return;
          script(*conn);
        }) {}
  ~ScriptedPeer() { thread_.join(); }

  ScriptedPeer(const ScriptedPeer&) = delete;
  ScriptedPeer& operator=(const ScriptedPeer&) = delete;

  u16 port() const { return listener_.port(); }

 private:
  Listener listener_{"127.0.0.1", 0};
  std::thread thread_;
};

/// A well-formed pong as raw frame bytes (4-byte little-endian length
/// prefix + JSON payload), for scripts to send whole or mangle.
std::string pong_frame() {
  const std::string payload = ok_reply("pong").dump(0);
  const auto len = static_cast<u32>(payload.size());
  std::string frame;
  for (int shift = 0; shift < 32; shift += 8)
    frame.push_back(static_cast<char>((len >> shift) & 0xFF));
  return frame + payload;
}

TEST(Chaos, CorruptedFramesSurfaceAsProtocolErrors) {
  ScriptedPeer peer([](Socket& conn) {
    std::string frame = pong_frame();
    frame[4] = static_cast<char>(frame[4] ^ 0xFF);  // payload's opening '{'
    conn.send_all(frame.data(), frame.size());
  });
  Client client("127.0.0.1", peer.port());
  EXPECT_EQ(kind_of([&] { client.ping(); }), ServerErrorKind::kProtocol);
}

TEST(Chaos, KilledConnectionsSurfaceAsIoErrors) {
  ScriptedPeer peer([](Socket&) {});  // close before the reply
  Client client("127.0.0.1", peer.port());
  EXPECT_EQ(kind_of([&] { client.ping(); }), ServerErrorKind::kIo);
}

TEST(Chaos, TruncatedFramesSurfaceAsIoErrors) {
  ScriptedPeer peer([](Socket& conn) {
    // An honest prefix but only half the payload, then close.
    const std::string frame = pong_frame();
    conn.send_all(frame.data(), 4 + (frame.size() - 4) / 2);
  });
  Client client("127.0.0.1", peer.port());
  EXPECT_EQ(kind_of([&] { client.ping(); }), ServerErrorKind::kIo);
}

TEST(Chaos, DroppedFramesTimeOutInsteadOfHanging) {
  ScriptedPeer peer([](Socket& conn) {
    // Never answer; hold the connection until the client closes it.
    char byte = 0;
    try {
      while (conn.recv_exact(&byte, 1, 10'000)) {
      }
    } catch (const ServerError&) {
    }
  });
  Client client("127.0.0.1", peer.port());
  client.set_call_timeout_ms(300);  // no reply -> bounded wait
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(kind_of([&] { client.ping(); }), ServerErrorKind::kIo);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
}

ServerConfig worker_config() {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.workers = 1;
  return cfg;
}

// --- wire-frame robustness: malformed bytes against a live server ----------

TEST(WireRobustness, OversizedDeclaredLengthIsAProtocolError) {
  JobServer served(worker_config());
  served.start();
  Socket sock = connect_to("127.0.0.1", served.port());
  const u8 huge[4] = {0xFF, 0xFF, 0xFF, 0x7F};  // ~2GB declared
  sock.send_all(huge, sizeof(huge));
  // The server answers with a typed protocol error before closing.
  const auto reply = recv_frame(sock, 5'000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(kind_of([&] { check_reply(*reply); }),
            ServerErrorKind::kProtocol);
  Client direct("127.0.0.1", served.port());
  EXPECT_TRUE(direct.ping().get_bool("ok", false));
  served.stop();
}

TEST(WireRobustness, GarbagePayloadIsAProtocolError) {
  JobServer served(worker_config());
  served.start();
  Socket sock = connect_to("127.0.0.1", served.port());
  const char payload[] = "this is not json";
  const u32 len = sizeof(payload) - 1;
  const u8 prefix[4] = {static_cast<u8>(len & 0xFF),
                        static_cast<u8>((len >> 8) & 0xFF),
                        static_cast<u8>((len >> 16) & 0xFF),
                        static_cast<u8>((len >> 24) & 0xFF)};
  sock.send_all(prefix, sizeof(prefix));
  sock.send_all(payload, len);
  const auto reply = recv_frame(sock, 5'000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(kind_of([&] { check_reply(*reply); }),
            ServerErrorKind::kProtocol);
  served.stop();
}

TEST(WireRobustness, TruncatedHeaderAndMidFrameDisconnectDoNotWedge) {
  JobServer served(worker_config());
  served.start();
  {
    // Two bytes of a four-byte prefix, then gone.
    Socket sock = connect_to("127.0.0.1", served.port());
    const u8 half[2] = {0x10, 0x00};
    sock.send_all(half, sizeof(half));
  }
  {
    // An honest prefix, a third of the payload, then gone.
    Socket sock = connect_to("127.0.0.1", served.port());
    const u8 prefix[4] = {30, 0, 0, 0};
    sock.send_all(prefix, sizeof(prefix));
    sock.send_all("{\"type\":\"pi", 10);
  }
  // Neither connection may take the server down or wedge its accept loop.
  Client direct("127.0.0.1", served.port());
  EXPECT_TRUE(direct.ping().get_bool("ok", false));
  EXPECT_TRUE(direct.stats().get_bool("ok", false));
  served.stop();
}

// --- health + drain endpoints ----------------------------------------------

TEST(HealthDrain, HealthReportsLoadAndDrainState) {
  JobServer served(worker_config());
  served.start();
  Client client("127.0.0.1", served.port());
  const JsonValue h = client.health();
  EXPECT_TRUE(h.get_bool("ok", false));
  EXPECT_FALSE(h.get_bool("draining", true));
  EXPECT_EQ(h.get_u64("queued", 99), 0u);
  EXPECT_GT(h.get_u64("queue_capacity", 0), 0u);
  served.stop();
}

TEST(HealthDrain, DrainFlipsTheStateAndBouncesNewSubmits) {
  JobServer served(worker_config());
  served.start();
  Client client("127.0.0.1", served.port());
  const JsonValue d = client.drain();
  EXPECT_TRUE(d.get_bool("draining", false));
  EXPECT_TRUE(client.health().get_bool("draining", false));
  JobSpec spec;
  spec.instructions = 10'000;
  EXPECT_EQ(kind_of([&] { client.submit(spec); }),
            ServerErrorKind::kShutdown);
  served.stop();
}

// --- bounded access log ----------------------------------------------------

TEST(AccessLog, RotatesAtTheSizeBoundAndKeepsOneGeneration) {
  const std::string path = testing::TempDir() + "aeep_server_test_access.log";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  AccessLog log;
  log.open(path, 512);
  for (int i = 0; i < 40; ++i) {
    JsonValue f = JsonValue::object();
    f.set("i", JsonValue::number(u64(static_cast<unsigned>(i))));
    log.write("tick", std::move(f));
  }
  EXPECT_GT(log.rotated(), 0u);
  log.close();
  std::FILE* rotated = std::fopen((path + ".1").c_str(), "r");
  ASSERT_NE(rotated, nullptr);
  std::fclose(rotated);
  std::FILE* current = std::fopen(path.c_str(), "r");
  ASSERT_NE(current, nullptr);
  std::fclose(current);
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

TEST(AccessLog, ConcurrentWritersWithRotationAreRaceFree) {
  // Regression for a TSan-visible race: write() used to early-return on an
  // *unlocked* read of the stream pointer, racing rotate_locked()/close()
  // clearing it on another thread. A tiny rotation bound keeps rotations
  // (and thus writes to the pointer) constant while four writers hammer
  // reads of it; run under -DAEEP_SANITIZE=thread this test fails loudly
  // if the unlocked check ever comes back.
  const std::string path = testing::TempDir() + "aeep_server_test_race.log";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  AccessLog log;
  log.open(path, 256);
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&log, w] {
      for (int i = 0; i < 200; ++i) {
        JsonValue f = JsonValue::object();
        f.set("w", JsonValue::number(u64(static_cast<unsigned>(w))));
        f.set("i", JsonValue::number(u64(static_cast<unsigned>(i))));
        log.write("tick", std::move(f));
      }
    });
  }
  // Concurrent readers of the rotation counter (stats path).
  std::thread reader([&log] {
    for (int i = 0; i < 400; ++i) (void)log.rotated();
  });
  for (auto& t : writers) t.join();
  reader.join();
  EXPECT_GT(log.rotated(), 0u);
  log.close();
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

TEST(AccessLog, ServerStatsExposeTheRotationCounter) {
  const std::string path =
      testing::TempDir() + "aeep_server_test_served_access.log";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  ServerConfig cfg = worker_config();
  cfg.access_log_path = path;
  cfg.access_log_max_bytes = 400;
  JobServer served(cfg);
  served.start();
  Client client("127.0.0.1", served.port());
  for (int i = 0; i < 20; ++i) client.ping();
  const JsonValue stats = client.stats();
  EXPECT_GT(stats.get_u64("access_log_rotated", 0), 0u);
  served.stop();
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

}  // namespace
}  // namespace aeep::server
