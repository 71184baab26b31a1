#include "goldens.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "store/result_codec.hpp"

namespace aeep::perfbench {

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read golden file " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void diff_json(const std::string& path, const JsonValue& want,
               const JsonValue& got, std::vector<std::string>& out) {
  if (out.size() >= 4) return;
  if (want.is_object() && got.is_object()) {
    for (const auto& [k, v] : want.members()) {
      const JsonValue* g = got.find(k);
      diff_json(path.empty() ? k : path + "." + k, v,
                g ? *g : JsonValue::null(), out);
    }
    return;
  }
  const std::string w = want.dump(0), g = got.dump(0);
  if (w != g) out.push_back(path + ": golden " + w + ", got " + g);
}

}  // namespace

std::string golden_path(const std::string& dir, const std::string& workload,
                        u64 seed) {
  return dir + "/" + workload + ".seed" + std::to_string(seed) + ".json";
}

Goldens load_goldens(const std::string& path) {
  std::string err;
  const auto doc = json_parse(read_file(path), &err);
  if (!doc || !doc->is_object())
    throw std::runtime_error("malformed golden file " + path + ": " + err);
  Goldens g;
  if (const JsonValue* extra = doc->find("extra")) g.extra = *extra;
  const JsonValue* cells = doc->find("cells");
  if (!cells || !cells->is_array())
    throw std::runtime_error("golden file " + path + " has no cells");
  for (const JsonValue& c : cells->elements()) {
    const JsonValue* result = c.find("result");
    const auto r = result ? store::run_result_from_json(*result) : std::nullopt;
    if (!r)
      throw std::runtime_error("golden file " + path + ": bad cell " +
                               c.get_string("key"));
    g.cells.emplace(c.get_string("key"), *r);
  }
  return g;
}

void write_goldens(const std::string& path, const std::string& workload,
                   u64 seed, const std::vector<Cell>& cells,
                   const std::vector<sim::RunResult>& results,
                   JsonValue extra) {
  std::string text = "{\n\"workload\": " +
                     JsonValue::string(workload).dump(0) +
                     ",\n\"seed\": " + std::to_string(seed) +
                     ",\n\"extra\": " + extra.dump(0) + ",\n\"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    JsonValue c = JsonValue::object();
    c.set("key", JsonValue::string(cells[i].key()));
    c.set("result", store::run_result_to_json(results[i]));
    text += c.dump(0) + (i + 1 < cells.size() ? ",\n" : "\n");
  }
  text += "]\n}\n";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write golden file " + path);
}

std::string result_diff(const sim::RunResult& want, const sim::RunResult& got) {
  if (want == got) return {};
  std::vector<std::string> diffs;
  diff_json("", store::run_result_to_json(want), store::run_result_to_json(got),
            diffs);
  std::string s;
  for (const auto& d : diffs) s += (s.empty() ? "" : "; ") + d;
  return s.empty() ? "RunResult differs" : s;
}

}  // namespace aeep::perfbench
