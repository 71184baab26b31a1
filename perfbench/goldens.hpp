// Committed goldens: the full simulated output of every cell, one file per
// (workload, seed), each cell stored as the lossless store/result_codec
// document so that every RunResult field is pinned, not only the bench-JSON
// metrics. A host-speed change must leave all of them bit-identical.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "harness.hpp"
#include "sim/system.hpp"

namespace aeep::perfbench {

struct Goldens {
  std::map<std::string, sim::RunResult> cells;  ///< Cell::key() -> result
  JsonValue extra;  ///< workload-specific expectations (served_mix counts)
};

/// `<dir>/<workload>.seed<seed>.json`.
std::string golden_path(const std::string& dir, const std::string& workload,
                        u64 seed);

/// Parse a golden file. Throws std::runtime_error when it is missing or
/// malformed.
Goldens load_goldens(const std::string& path);

/// Write a golden file: one codec document per line, in grid order.
void write_goldens(const std::string& path, const std::string& workload,
                   u64 seed, const std::vector<Cell>& cells,
                   const std::vector<sim::RunResult>& results,
                   JsonValue extra = JsonValue::object());

/// Empty when `got` equals `want` field for field; otherwise the first few
/// differing codec fields as "path: golden X, got Y".
std::string result_diff(const sim::RunResult& want, const sim::RunResult& got);

}  // namespace aeep::perfbench
