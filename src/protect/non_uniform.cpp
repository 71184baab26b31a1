#include "protect/non_uniform.hpp"

#include <algorithm>
#include <cassert>

#include "common/bitops.hpp"
#include "ecc/correct_line.hpp"

namespace aeep::protect {

NonUniformScheme::NonUniformScheme(cache::Cache& cache)
    : ProtectionScheme(cache),
      words_(cache.geometry().words_per_line()),
      parity_(cache.geometry().total_lines() * words_, 0),
      ecc_(cache.geometry().total_lines() * words_, 0),
      ecc_valid_(cache.geometry().total_lines(), 0) {}

void NonUniformScheme::encode_parity(u64 set, unsigned way, u64 word_mask) {
  const auto data = cache().data(set, way);
  u64* par = parity_.data() + line_slot(set, way) * words_;
  parity_codec().encode_batch_masked(data, word_mask, {par, words_});
}

void NonUniformScheme::encode_ecc(u64 set, unsigned way, u64 word_mask) {
  const auto data = cache().data(set, way);
  u64* check = ecc_.data() + line_slot(set, way) * words_;
  secded().encode_batch_masked(data, word_mask, {check, words_});
}

void NonUniformScheme::on_fill(u64 set, unsigned way) {
  encode_parity(set, way, ~u64{0});
  ecc_valid_[line_slot(set, way)] = 0;
}

void NonUniformScheme::on_write_applied(u64 set, unsigned way, u64 word_mask) {
  encode_parity(set, way, word_mask);
  assert(cache().meta(set, way).dirty);
  u8& valid = ecc_valid_[line_slot(set, way)];
  if (!valid) {
    // First write since the line was (re)cleaned: the whole line needs
    // fresh ECC, not just the written words.
    encode_ecc(set, way, ~u64{0});
    valid = 1;
  } else {
    encode_ecc(set, way, word_mask);
  }
  peak_dirty_ = std::max(peak_dirty_, cache().dirty_count());
}

void NonUniformScheme::on_writeback(u64 set, unsigned way) {
  ecc_valid_[line_slot(set, way)] = 0;
}

void NonUniformScheme::on_evict(u64 set, unsigned way) {
  ecc_valid_[line_slot(set, way)] = 0;
}

ReadCheck NonUniformScheme::check_read(u64 set, unsigned way,
                                       const mem::MemoryStore& memory) {
  ReadCheck out;
  auto data = cache().data(set, way);
  const bool dirty = cache().meta(set, way).dirty;

  if (dirty) {
    // §3.3: "Otherwise, ECC is used for error detection and correction."
    assert(ecc_valid_[line_slot(set, way)]);
    u64* check = ecc_.data() + line_slot(set, way) * words_;
    const ecc::LineCorrection c =
        ecc::correct_line(secded(), data, {check, words_});
    // Keep the parity bits consistent with the repaired words.
    if (c.corrected_mask != 0) encode_parity(set, way, c.corrected_mask);
    out.words_corrected = popcount64(c.corrected_mask);
    out.words_detected = c.detected;
    if (out.words_detected > 0)
      out.outcome = ReadOutcome::kUncorrectable;
    else if (out.words_corrected > 0)
      out.outcome = ReadOutcome::kCorrected;
    return out;
  }

  // Clean line: parity only; any detected error is repaired by re-fetch.
  const u64* par = parity_.data() + line_slot(set, way) * words_;
  out.words_detected =
      popcount64(parity_codec().mismatch_mask(data, {par, words_}));
  if (out.words_detected > 0) {
    memory.read_line(cache().line_addr(set, way), data);
    encode_parity(set, way, ~u64{0});
    out.outcome = ReadOutcome::kRefetched;
  }
  return out;
}

std::span<u64> NonUniformScheme::parity_words(u64 set, unsigned way) {
  return {parity_.data() + line_slot(set, way) * words_, words_};
}

std::span<u64> NonUniformScheme::ecc_words(u64 set, unsigned way) {
  if (!ecc_valid_[line_slot(set, way)]) return {};
  return {ecc_.data() + line_slot(set, way) * words_, words_};
}

void NonUniformScheme::reset_metrics() { peak_dirty_ = cache().dirty_count(); }

AreaReport NonUniformScheme::area() const {
  const double frac =
      static_cast<double>(peak_dirty_) /
      static_cast<double>(cache().geometry().total_lines());
  return non_uniform_area(cache().geometry(), frac);
}

}  // namespace aeep::protect
