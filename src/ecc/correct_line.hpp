// Whole-line validation and in-place repair.
//
// A 64-byte line is eight 64-bit words; each word carries its own check
// bits (8b for SECDED, 1b for parity), matching how the paper counts area:
// 64B line -> 64 ECC bits or 8 parity bits. Every protection scheme that
// corrects a line (uniform ECC, and the ECC of dirty lines in the
// non-uniform and shared-array schemes) does it through correct_line.
#pragma once

#include <span>

#include "ecc/codec.hpp"

namespace aeep::ecc {

/// What correct_line found and repaired.
struct LineCorrection {
  u64 corrected_mask = 0;  ///< bit w set: word w was corrected in place
  unsigned detected = 0;   ///< words with a detected, uncorrectable error

  bool operator==(const LineCorrection&) const = default;
};

/// Validate `data` against its stored `check` words and repair both in
/// place. A batched mismatch scan clears clean words without entering the
/// scalar syndrome decoder; only flagged words are decoded. A word decoded
/// as kCorrectedSingle gets the corrected data and check written back; a
/// word with a detected error is left as stored and counted. `check` must
/// hold at least data.size() words, and data.size() must be at most 64.
/// Allocation-free.
LineCorrection correct_line(const WordCodec& codec, std::span<u64> data,
                            std::span<u64> check);

}  // namespace aeep::ecc
