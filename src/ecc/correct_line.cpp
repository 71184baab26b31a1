#include "ecc/correct_line.hpp"

#include <bit>
#include <cassert>

namespace aeep::ecc {

LineCorrection correct_line(const WordCodec& codec, std::span<u64> data,
                            std::span<u64> check) {
  assert(data.size() <= 64 && check.size() >= data.size());
  LineCorrection out;
  // A word the mismatch scan flags is flagged by the scalar decoder too
  // (same re-encode), so skipping the unflagged words changes nothing.
  for (u64 mm = codec.mismatch_mask(data, check); mm != 0; mm &= mm - 1) {
    const auto w = static_cast<unsigned>(std::countr_zero(mm));
    const DecodeResult r = codec.decode(data[w], check[w]);
    switch (r.status) {
      case DecodeStatus::kOk:
        break;
      case DecodeStatus::kCorrectedSingle:
        data[w] = r.data;
        check[w] = r.check;
        out.corrected_mask |= u64{1} << w;
        break;
      case DecodeStatus::kDetectedError:
      case DecodeStatus::kDetectedDouble:
        ++out.detected;
        break;
    }
  }
  return out;
}

}  // namespace aeep::ecc
