// The aeep_served wire protocol: length-prefixed JSON frames.
//
//   Frame := payload_bytes u32 (little-endian) | payload (UTF-8 JSON)
//
// Every request and reply is one frame holding one JSON object. Requests
// carry a "type" ("ping", "submit", "status", "result", "run", "stats",
// "traces", "health", "drain");
// replies always carry "ok" (bool) and, when ok is false, a stable "error"
// wire code from error.hpp plus a human "message". The job descriptor —
// the JSON shape of one experiment — maps 1:1 onto sim::ExperimentOptions
// for the knobs the service exposes; everything the paper fixes (Table-1
// geometry) stays fixed server-side so a request cannot ask for a machine
// the reproduction does not model.
#pragma once

#include <optional>
#include <string>

#include "common/json.hpp"
#include "server/error.hpp"
#include "server/socket.hpp"
#include "sim/experiment.hpp"

namespace aeep::server {

/// Frames larger than this are a protocol violation, not a malloc request:
/// a result frame is a few KB; nothing legitimate approaches a megabyte.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 20;

/// Serialise `doc` into one frame. Throws ServerError(kIo / kProtocol).
void send_frame(Socket& sock, const JsonValue& doc);

/// Read one frame. Returns nullopt iff the peer closed cleanly between
/// frames; throws ServerError(kProtocol) on an oversized prefix or
/// unparsable payload, ServerError(kIo) on socket trouble / timeout.
std::optional<JsonValue> recv_frame(Socket& sock, int timeout_ms = -1);

/// One experiment job as it crosses the wire. Defaults mirror
/// sim::ExperimentOptions; `trace` names a server-side registered .aeept
/// file (defaults to the benchmark's name) and is only read when
/// frontend == kTrace.
struct JobSpec {
  std::string benchmark = "gzip";
  sim::Frontend frontend = sim::Frontend::kExec;
  protect::SchemeKind scheme = protect::SchemeKind::kUniformEcc;
  protect::CleaningPolicy cleaning_policy =
      protect::CleaningPolicy::kWrittenBit;
  u64 cleaning_interval = 0;
  unsigned decay_threshold = 2;
  unsigned ecc_entries_per_set = 1;
  u64 instructions = 2'000'000;
  u64 warmup = 200'000;
  u64 seed = 42;
  bool maintain_codes = false;
  std::string trace;       ///< registered trace name; empty = benchmark
  u64 timeout_ms = 0;      ///< per-job wall clock; 0 = server default

  /// The registered name a kTrace job replays.
  std::string trace_name() const {
    return trace.empty() ? benchmark : trace;
  }
};

/// JSON <-> JobSpec. from_json throws ServerError(kBadRequest) naming the
/// offending field for unknown enum spellings and kind-mismatched values.
JsonValue job_spec_to_json(const JobSpec& spec);
JobSpec job_spec_from_json(const JsonValue& doc);

/// The ExperimentOptions this job runs under. For kTrace jobs the caller
/// (the server) must still fill options.trace_path from its registry.
sim::ExperimentOptions to_experiment_options(const JobSpec& spec);

/// Enum spellings shared with the table/CLI output (to_string inverses).
protect::SchemeKind scheme_from_string(const std::string& s);
protect::CleaningPolicy cleaning_policy_from_string(const std::string& s);
sim::Frontend frontend_from_string(const std::string& s);

/// Reply scaffolding: {"ok": true, "type": <type>} / {"ok": false,
/// "error": <wire code>, "message": <text>}.
JsonValue ok_reply(const std::string& type);
JsonValue error_reply(ServerErrorKind kind, const std::string& message);

/// Raise a not-ok reply as the typed error it carries; pass through ok
/// replies. Client-side glue.
const JsonValue& check_reply(const JsonValue& reply);

}  // namespace aeep::server
