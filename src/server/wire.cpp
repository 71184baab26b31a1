#include "server/wire.hpp"

#include <cstring>
#include <vector>

namespace aeep::server {

namespace {

void put_u32le(u8* out, u32 v) {
  out[0] = static_cast<u8>(v & 0xFF);
  out[1] = static_cast<u8>((v >> 8) & 0xFF);
  out[2] = static_cast<u8>((v >> 16) & 0xFF);
  out[3] = static_cast<u8>((v >> 24) & 0xFF);
}

u32 get_u32le(const u8* in) {
  return static_cast<u32>(in[0]) | (static_cast<u32>(in[1]) << 8) |
         (static_cast<u32>(in[2]) << 16) | (static_cast<u32>(in[3]) << 24);
}

[[noreturn]] void bad_request(const std::string& what) {
  throw ServerError(ServerErrorKind::kBadRequest, what);
}

}  // namespace

void send_frame(Socket& sock, const JsonValue& doc) {
  const std::string payload = doc.dump(0);  // compact: frames are wire data
  if (payload.size() > kMaxFrameBytes)
    throw ServerError(ServerErrorKind::kProtocol,
                      "outgoing frame of " + std::to_string(payload.size()) +
                          " bytes exceeds the protocol limit");
  u8 prefix[4];
  put_u32le(prefix, static_cast<u32>(payload.size()));
  sock.send_all(prefix, sizeof(prefix));
  sock.send_all(payload.data(), payload.size());
}

std::optional<JsonValue> recv_frame(Socket& sock, int timeout_ms) {
  u8 prefix[4];
  if (!sock.recv_exact(prefix, sizeof(prefix), timeout_ms))
    return std::nullopt;
  const u32 len = get_u32le(prefix);
  if (len > kMaxFrameBytes)
    throw ServerError(ServerErrorKind::kProtocol,
                      "frame prefix claims " + std::to_string(len) +
                          " bytes (limit " + std::to_string(kMaxFrameBytes) +
                          ") — not speaking this protocol?");
  std::vector<char> payload(len);
  if (len > 0 && !sock.recv_exact(payload.data(), payload.size(), timeout_ms))
    throw ServerError(ServerErrorKind::kIo, "peer closed inside a frame");
  std::string error;
  auto doc = json_parse(std::string_view(payload.data(), payload.size()),
                        &error);
  if (!doc)
    throw ServerError(ServerErrorKind::kProtocol,
                      "unparsable frame payload: " + error);
  return doc;
}

protect::SchemeKind scheme_from_string(const std::string& s) {
  if (s == "uniform-ecc") return protect::SchemeKind::kUniformEcc;
  if (s == "non-uniform") return protect::SchemeKind::kNonUniform;
  if (s == "shared-ecc-array") return protect::SchemeKind::kSharedEccArray;
  bad_request("unknown scheme '" + s +
              "' (uniform-ecc | non-uniform | shared-ecc-array)");
}

protect::CleaningPolicy cleaning_policy_from_string(const std::string& s) {
  if (s == "written-bit") return protect::CleaningPolicy::kWrittenBit;
  if (s == "naive") return protect::CleaningPolicy::kNaive;
  if (s == "decay-counter") return protect::CleaningPolicy::kDecayCounter;
  if (s == "eager-idle") return protect::CleaningPolicy::kEagerIdle;
  bad_request("unknown cleaning_policy '" + s +
              "' (written-bit | naive | decay-counter | eager-idle)");
}

sim::Frontend frontend_from_string(const std::string& s) {
  if (s == "exec") return sim::Frontend::kExec;
  if (s == "trace") return sim::Frontend::kTrace;
  bad_request("unknown frontend '" + s + "' (exec | trace)");
}

JsonValue job_spec_to_json(const JobSpec& spec) {
  JsonValue j = JsonValue::object();
  j.set("benchmark", JsonValue::string(spec.benchmark));
  j.set("frontend", JsonValue::string(sim::to_string(spec.frontend)));
  j.set("scheme", JsonValue::string(protect::to_string(spec.scheme)));
  j.set("cleaning_policy",
        JsonValue::string(protect::to_string(spec.cleaning_policy)));
  j.set("cleaning_interval", JsonValue::number(spec.cleaning_interval));
  j.set("decay_threshold", JsonValue::number(u64{spec.decay_threshold}));
  j.set("ecc_entries_per_set",
        JsonValue::number(u64{spec.ecc_entries_per_set}));
  j.set("instructions", JsonValue::number(spec.instructions));
  j.set("warmup", JsonValue::number(spec.warmup));
  j.set("seed", JsonValue::number(spec.seed));
  j.set("maintain_codes", JsonValue::boolean(spec.maintain_codes));
  if (!spec.trace.empty()) j.set("trace", JsonValue::string(spec.trace));
  if (spec.timeout_ms != 0)
    j.set("timeout_ms", JsonValue::number(spec.timeout_ms));
  return j;
}

JobSpec job_spec_from_json(const JsonValue& doc) {
  if (!doc.is_object()) bad_request("job descriptor must be an object");
  JobSpec spec;
  // Unknown keys are rejected, mirroring reject_unknown_flags(): a typo'd
  // knob must fail loudly, not silently run the default experiment.
  static const char* const kKnown[] = {
      "benchmark",       "frontend",     "scheme",
      "cleaning_policy", "cleaning_interval", "decay_threshold",
      "ecc_entries_per_set", "instructions", "warmup",
      "seed",            "maintain_codes",   "trace",
      "timeout_ms"};
  for (const auto& [key, value] : doc.members()) {
    bool known = false;
    for (const char* k : kKnown) known = known || key == k;
    if (!known) bad_request("unknown job field '" + key + "'");
    (void)value;
  }
  spec.benchmark = doc.get_string("benchmark", spec.benchmark);
  if (spec.benchmark.empty()) bad_request("benchmark must be non-empty");
  if (const JsonValue* v = doc.find("frontend"))
    spec.frontend = frontend_from_string(v->as_string("?"));
  if (const JsonValue* v = doc.find("scheme"))
    spec.scheme = scheme_from_string(v->as_string("?"));
  if (const JsonValue* v = doc.find("cleaning_policy"))
    spec.cleaning_policy = cleaning_policy_from_string(v->as_string("?"));
  spec.cleaning_interval =
      doc.get_u64("cleaning_interval", spec.cleaning_interval);
  spec.decay_threshold = static_cast<unsigned>(
      doc.get_u64("decay_threshold", spec.decay_threshold));
  spec.ecc_entries_per_set = static_cast<unsigned>(
      doc.get_u64("ecc_entries_per_set", spec.ecc_entries_per_set));
  spec.instructions = doc.get_u64("instructions", spec.instructions);
  if (spec.instructions == 0) bad_request("instructions must be > 0");
  spec.warmup = doc.get_u64("warmup", spec.warmup);
  spec.seed = doc.get_u64("seed", spec.seed);
  spec.maintain_codes = doc.get_bool("maintain_codes", spec.maintain_codes);
  spec.trace = doc.get_string("trace", spec.trace);
  spec.timeout_ms = doc.get_u64("timeout_ms", spec.timeout_ms);
  return spec;
}

sim::ExperimentOptions to_experiment_options(const JobSpec& spec) {
  sim::ExperimentOptions opts;
  opts.scheme = spec.scheme;
  opts.cleaning_interval = spec.cleaning_interval;
  opts.cleaning_policy = spec.cleaning_policy;
  opts.decay_threshold = spec.decay_threshold;
  opts.ecc_entries_per_set = spec.ecc_entries_per_set;
  opts.instructions = spec.instructions;
  opts.warmup_instructions = spec.warmup;
  opts.seed = spec.seed;
  opts.maintain_codes = spec.maintain_codes;
  opts.frontend = spec.frontend;
  return opts;
}

JsonValue ok_reply(const std::string& type) {
  JsonValue j = JsonValue::object();
  j.set("ok", JsonValue::boolean(true));
  j.set("type", JsonValue::string(type));
  return j;
}

JsonValue error_reply(ServerErrorKind kind, const std::string& message) {
  JsonValue j = JsonValue::object();
  j.set("ok", JsonValue::boolean(false));
  j.set("error", JsonValue::string(wire_code(kind)));
  // ServerError::what() embeds the human kind prefix; strip it so the
  // client-side rethrow (which prefixes again) does not stutter
  // "server busy: server busy: ...".
  const std::string prefix = std::string(to_string(kind)) + ": ";
  j.set("message", JsonValue::string(
                       message.rfind(prefix, 0) == 0
                           ? message.substr(prefix.size())
                           : message));
  return j;
}

const JsonValue& check_reply(const JsonValue& reply) {
  if (reply.get_bool("ok", false)) return reply;
  const ServerErrorKind kind =
      kind_from_wire_code(reply.get_string("error", "internal"));
  throw ServerError(kind, reply.get_string("message", "request failed"));
}

}  // namespace aeep::server
