// Tests for the error-code implementations: parity, byte parity, and the
// SECDED(72,64) extended Hamming code — including exhaustive single-bit
// correction over all codeword positions and double-bit detection sweeps —
// and the whole-line correct_line routine every protection scheme uses.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "ecc/correct_line.hpp"
#include "ecc/parity.hpp"
#include "ecc/secded.hpp"

namespace aeep::ecc {
namespace {

TEST(ParityCodec, EncodesEvenParity) {
  ParityCodec even(false);
  EXPECT_EQ(even.encode(0), 0u);
  EXPECT_EQ(even.encode(1), 1u);
  EXPECT_EQ(even.encode(0b11), 0u);
  EXPECT_EQ(even.encode(0b111), 1u);
  EXPECT_EQ(even.check_bits(), 1u);
  EXPECT_FALSE(even.corrects_single());
}

TEST(ParityCodec, OddParityComplementsEven) {
  ParityCodec even(false), odd(true);
  Xorshift64Star rng(11);
  for (int i = 0; i < 1000; ++i) {
    const u64 x = rng.next();
    EXPECT_EQ(even.encode(x) ^ 1u, odd.encode(x));
  }
}

TEST(ParityCodec, CleanWordDecodesOk) {
  ParityCodec codec;
  Xorshift64Star rng(12);
  for (int i = 0; i < 1000; ++i) {
    const u64 x = rng.next();
    const auto r = codec.decode(x, codec.encode(x));
    EXPECT_EQ(r.status, DecodeStatus::kOk);
    EXPECT_EQ(r.data, x);
  }
}

TEST(ParityCodec, DetectsEverySingleBitFlip) {
  ParityCodec codec;
  const u64 x = 0xDEADBEEFCAFEF00Dull;
  const u64 c = codec.encode(x);
  for (unsigned b = 0; b < 64; ++b) {
    EXPECT_EQ(codec.decode(flip_bit(x, b), c).status,
              DecodeStatus::kDetectedError);
  }
  // And a flipped check bit.
  EXPECT_EQ(codec.decode(x, c ^ 1u).status, DecodeStatus::kDetectedError);
}

TEST(ParityCodec, MissesDoubleBitFlips) {
  // Inherent parity limitation — documents the clean-line refetch rationale:
  // a double flip in a clean line is invisible to parity, but the line's
  // content is still recoverable from memory, so refetch-on-any-doubt works
  // only for detected errors; double errors in clean lines are the residual
  // vulnerability of parity (as in commercial parts).
  ParityCodec codec;
  const u64 x = 0x0123456789ABCDEFull;
  const u64 c = codec.encode(x);
  EXPECT_EQ(codec.decode(flip_bit(flip_bit(x, 3), 47), c).status,
            DecodeStatus::kOk);
}

TEST(ByteParityCodec, DetectsFlipsInEachByte) {
  ByteParityCodec codec;
  EXPECT_EQ(codec.check_bits(), 8u);
  const u64 x = 0xA5A5A5A55A5A5A5Aull;
  const u64 c = codec.encode(x);
  EXPECT_EQ(codec.decode(x, c).status, DecodeStatus::kOk);
  for (unsigned b = 0; b < 64; ++b) {
    EXPECT_EQ(codec.decode(flip_bit(x, b), c).status,
              DecodeStatus::kDetectedError)
        << "bit " << b;
  }
}

TEST(ByteParityCodec, DetectsDoubleFlipAcrossBytes) {
  ByteParityCodec codec;
  const u64 x = 0x1111111122222222ull;
  const u64 c = codec.encode(x);
  // Two flips in different bytes remain detectable (unlike word parity).
  EXPECT_EQ(codec.decode(flip_bit(flip_bit(x, 1), 62), c).status,
            DecodeStatus::kDetectedError);
}

// ---------------------------------------------------------------------------
// SECDED
// ---------------------------------------------------------------------------

TEST(Secded, MetaData) {
  SecdedCodec codec;
  EXPECT_EQ(codec.check_bits(), 8u);
  EXPECT_TRUE(codec.corrects_single());
  EXPECT_EQ(codec.name(), "secded(72,64)");
}

TEST(Secded, CleanWordsDecodeOk) {
  SecdedCodec codec;
  Xorshift64Star rng(21);
  for (int i = 0; i < 2000; ++i) {
    const u64 x = rng.next();
    const u64 c = codec.encode(x);
    EXPECT_LT(c, 256u);  // 8 live check bits
    const auto r = codec.decode(x, c);
    EXPECT_EQ(r.status, DecodeStatus::kOk);
    EXPECT_EQ(r.data, x);
    EXPECT_EQ(r.check, c);
  }
}

/// Exhaustive: every single-bit flip in the 72-bit codeword is corrected,
/// over a set of data words.
class SecdedSingleBit : public ::testing::TestWithParam<u64> {};

TEST_P(SecdedSingleBit, CorrectsEveryDataBitFlip) {
  SecdedCodec codec;
  const u64 x = GetParam();
  const u64 c = codec.encode(x);
  for (unsigned b = 0; b < 64; ++b) {
    const auto r = codec.decode(flip_bit(x, b), c);
    ASSERT_EQ(r.status, DecodeStatus::kCorrectedSingle) << "bit " << b;
    EXPECT_EQ(r.data, x) << "bit " << b;
    EXPECT_EQ(r.check, c) << "bit " << b;
    EXPECT_EQ(r.corrected_bit, b);
  }
}

TEST_P(SecdedSingleBit, CorrectsEveryCheckBitFlip) {
  SecdedCodec codec;
  const u64 x = GetParam();
  const u64 c = codec.encode(x);
  for (unsigned b = 0; b < 8; ++b) {
    const auto r = codec.decode(x, flip_bit(c, b));
    ASSERT_EQ(r.status, DecodeStatus::kCorrectedSingle) << "check bit " << b;
    EXPECT_EQ(r.data, x);
    EXPECT_EQ(r.check, c);
    EXPECT_EQ(r.corrected_bit, 64 + b);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Words, SecdedSingleBit,
    ::testing::Values(u64{0}, ~u64{0}, u64{1}, u64{0x8000000000000000ull},
                      u64{0xDEADBEEFCAFEF00Dull}, u64{0x5555555555555555ull},
                      u64{0xAAAAAAAAAAAAAAAAull}, u64{0x0123456789ABCDEFull},
                      u64{0xF0F0F0F00F0F0F0Full}, u64{42}));

TEST(Secded, DetectsAllDoubleDataBitFlips) {
  SecdedCodec codec;
  const u64 x = 0xC0FFEE0DDBA11AD5ull;
  const u64 c = codec.encode(x);
  // Exhaustive over all 64*63/2 data-bit pairs.
  for (unsigned i = 0; i < 64; ++i) {
    for (unsigned j = i + 1; j < 64; ++j) {
      const auto r = codec.decode(flip_bit(flip_bit(x, i), j), c);
      ASSERT_EQ(r.status, DecodeStatus::kDetectedDouble)
          << "bits " << i << "," << j;
    }
  }
}

TEST(Secded, DetectsDataPlusCheckDoubleFlips) {
  SecdedCodec codec;
  const u64 x = 0x123456789ABCDEF0ull;
  const u64 c = codec.encode(x);
  for (unsigned i = 0; i < 64; ++i) {
    for (unsigned j = 0; j < 8; ++j) {
      const auto r = codec.decode(flip_bit(x, i), flip_bit(c, j));
      ASSERT_EQ(r.status, DecodeStatus::kDetectedDouble)
          << "data bit " << i << ", check bit " << j;
    }
  }
}

TEST(Secded, DetectsCheckCheckDoubleFlips) {
  SecdedCodec codec;
  const u64 x = 0x998877665544332ull;
  const u64 c = codec.encode(x);
  for (unsigned i = 0; i < 8; ++i) {
    for (unsigned j = i + 1; j < 8; ++j) {
      const auto r = codec.decode(x, flip_bit(flip_bit(c, i), j));
      ASSERT_EQ(r.status, DecodeStatus::kDetectedDouble)
          << "check bits " << i << "," << j;
    }
  }
}

TEST(Secded, CheckBitsDifferAcrossNeighbouringWords) {
  // The code must actually depend on the data (regression against a codec
  // that returns constants).
  SecdedCodec codec;
  Xorshift64Star rng(22);
  unsigned diff = 0;
  for (int i = 0; i < 256; ++i) {
    const u64 x = rng.next();
    if (codec.encode(x) != codec.encode(x + 1)) ++diff;
  }
  EXPECT_GT(diff, 200u);
}

// ---------------------------------------------------------------------------
// Line correction
// ---------------------------------------------------------------------------

TEST(CorrectLine, RoundTripsCleanLine) {
  SecdedCodec secded;
  Xorshift64Star rng(31);
  std::vector<u64> data(8), check(8);
  for (auto& w : data) w = rng.next();
  secded.encode_batch(data, check);
  const std::vector<u64> golden_data = data, golden_check = check;

  EXPECT_EQ(correct_line(secded, data, check), LineCorrection{});
  EXPECT_EQ(data, golden_data);
  EXPECT_EQ(check, golden_check);
}

TEST(CorrectLine, CorrectsScatteredSingleBitErrors) {
  SecdedCodec secded;
  Xorshift64Star rng(32);
  std::vector<u64> data(8), check(8);
  for (auto& w : data) w = rng.next();
  const std::vector<u64> golden = data;
  secded.encode_batch(data, check);

  // One flip in every word: all corrected independently.
  for (auto& w : data)
    w = flip_bit(w, static_cast<unsigned>(rng.next_below(64)));

  const LineCorrection r = correct_line(secded, data, check);
  EXPECT_EQ(r.corrected_mask, 0xFFu);
  EXPECT_EQ(r.detected, 0u);
  EXPECT_EQ(data, golden);
}

TEST(CorrectLine, CountsCorrectedAndDetectedWords) {
  SecdedCodec secded;
  std::vector<u64> data(8), check(8);
  for (unsigned w = 0; w < 8; ++w) data[w] = 0x1111111111111111ull * (w + 1);
  secded.encode_batch(data, check);
  const u64 golden2 = data[2], golden6 = data[6];
  data[2] = flip_bit(data[2], 5);                // single
  data[6] = flip_bit(flip_bit(data[6], 1), 60);  // double

  const LineCorrection r = correct_line(secded, data, check);
  EXPECT_EQ(r.corrected_mask, u64{1} << 2);
  EXPECT_EQ(r.detected, 1u);
  EXPECT_EQ(data[2], golden2);
  EXPECT_NE(data[6], golden6);  // a detected word is left as stored
}

// ---------------------------------------------------------------------------
// correct_line against the per-word reference: for every codec, on clean
// lines and on lines with corrected / detected errors, the result must be
// exactly what decoding each word on its own with WordCodec::decode gives.
// ---------------------------------------------------------------------------

class CorrectLineEquivalence : public ::testing::TestWithParam<const char*> {
 protected:
  const WordCodec& codec() {
    const std::string which = GetParam();
    if (which == "parity") return parity_;
    if (which == "byte-parity") return byte_parity_;
    return secded_;
  }

  /// Per-word reference encode.
  std::vector<u64> encode_words(const std::vector<u64>& data) {
    std::vector<u64> check(data.size());
    for (std::size_t w = 0; w < data.size(); ++w)
      check[w] = codec().encode(data[w]);
    return check;
  }

  ParityCodec parity_;
  ByteParityCodec byte_parity_;
  SecdedCodec secded_;
};

TEST_P(CorrectLineEquivalence, MatchesPerWordReferenceWithInjectedErrors) {
  const WordCodec& c = codec();
  Xorshift64Star rng(42);
  std::vector<u64> data(8);
  for (int iter = 0; iter < 200; ++iter) {
    for (auto& w : data) w = rng.next();
    std::vector<u64> check = encode_words(data);

    // Exercise every path: clean, single flip (corrected by SECDED,
    // detected by the parity codecs), double flip in one word (detected by
    // SECDED and byte parity, missed by word parity).
    const unsigned mode = static_cast<unsigned>(iter) % 3;
    if (mode >= 1) {
      const unsigned w = static_cast<unsigned>(rng.next_below(8));
      data[w] = flip_bit(data[w], static_cast<unsigned>(rng.next_below(64)));
      if (mode == 2) {
        const unsigned b1 = static_cast<unsigned>(rng.next_below(63));
        data[w] = flip_bit(data[w], b1 + 1);
      }
    }

    std::vector<u64> want_data = data, want_check = check;
    LineCorrection want;
    for (unsigned w = 0; w < 8; ++w) {
      const DecodeResult r = c.decode(data[w], check[w]);
      if (r.status == DecodeStatus::kCorrectedSingle) {
        want_data[w] = r.data;
        want_check[w] = r.check;
        want.corrected_mask |= u64{1} << w;
      } else if (r.status != DecodeStatus::kOk) {
        ++want.detected;
      }
    }

    EXPECT_EQ(correct_line(c, data, check), want);
    EXPECT_EQ(data, want_data);
    EXPECT_EQ(check, want_check);
  }
}

TEST_P(CorrectLineEquivalence, RepairsLineInPlace) {
  const WordCodec& c = codec();
  Xorshift64Star rng(43);
  std::vector<u64> data(8);
  for (int iter = 0; iter < 100; ++iter) {
    for (auto& w : data) w = rng.next();
    std::vector<u64> check = encode_words(data);
    const std::vector<u64> golden = data;
    const unsigned w = static_cast<unsigned>(rng.next_below(8));
    if (iter % 2 == 1)
      data[w] = flip_bit(data[w], static_cast<unsigned>(rng.next_below(64)));

    const LineCorrection r = correct_line(c, data, check);
    if (iter % 2 == 0) {
      EXPECT_EQ(r, LineCorrection{});
      EXPECT_EQ(data, golden);
    } else if (c.corrects_single()) {
      // The line is repaired where it lies, and a second pass finds it clean.
      EXPECT_EQ(r.corrected_mask, u64{1} << w);
      EXPECT_EQ(data, golden);
      EXPECT_EQ(check, encode_words(golden));
      EXPECT_EQ(correct_line(c, data, check), LineCorrection{});
    } else {
      EXPECT_EQ(r.corrected_mask, 0u);
      EXPECT_EQ(r.detected, 1u);
      EXPECT_NE(data, golden);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CorrectLineEquivalence,
                         ::testing::Values("parity", "byte-parity", "secded"));

// ---------------------------------------------------------------------------
// Batched SWAR paths: encode_batch / encode_batch_masked / mismatch_mask must
// agree bit-for-bit with the scalar per-word virtual calls on every codec —
// the hot paths (line encode, clean scans, silent-write elision) lean on
// this equivalence.
// ---------------------------------------------------------------------------

class BatchedCodecEquivalence : public ::testing::TestWithParam<const char*> {
 protected:
  const WordCodec& codec() {
    const std::string which = GetParam();
    if (which == "parity") return parity_;
    if (which == "odd-parity") return odd_parity_;
    if (which == "byte-parity") return byte_parity_;
    return secded_;
  }

  ParityCodec parity_;
  ParityCodec odd_parity_{true};
  ByteParityCodec byte_parity_;
  SecdedCodec secded_;
};

TEST_P(BatchedCodecEquivalence, EncodeBatchMatchesScalar) {
  const WordCodec& c = codec();
  Xorshift64Star rng(77);
  std::vector<u64> data(8), batched(8);
  for (int iter = 0; iter < 500; ++iter) {
    for (auto& w : data) w = rng.next();
    c.encode_batch(data, batched);
    for (unsigned w = 0; w < 8; ++w) EXPECT_EQ(batched[w], c.encode(data[w]));
  }
}

TEST_P(BatchedCodecEquivalence, MaskedEncodeTouchesOnlyMaskedWords) {
  const WordCodec& c = codec();
  Xorshift64Star rng(78);
  std::vector<u64> data(8), check(8);
  constexpr u64 kSentinel = 0xA5A5A5A5A5A5A5A5ull;
  for (int iter = 0; iter < 200; ++iter) {
    for (auto& w : data) w = rng.next();
    const u64 mask = rng.next() & 0xFF;
    std::fill(check.begin(), check.end(), kSentinel);
    c.encode_batch_masked(data, mask, check);
    for (unsigned w = 0; w < 8; ++w) {
      if (mask & (u64{1} << w))
        EXPECT_EQ(check[w], c.encode(data[w]));
      else
        EXPECT_EQ(check[w], kSentinel) << "unmasked word was overwritten";
    }
  }
}

TEST_P(BatchedCodecEquivalence, MismatchMaskAgreesWithScalarDecodeStatus) {
  const WordCodec& c = codec();
  Xorshift64Star rng(79);
  std::vector<u64> data(8), check(8);
  for (int iter = 0; iter < 500; ++iter) {
    for (auto& w : data) w = rng.next();
    c.encode_batch(data, check);
    // Corrupt 0-3 words: data flips, check flips, and double flips.
    for (unsigned k = iter % 4; k > 0; --k) {
      const unsigned w = static_cast<unsigned>(rng.next_below(8));
      if (rng.next_below(2) == 0)
        data[w] = flip_bit(data[w], static_cast<unsigned>(rng.next_below(64)));
      else
        check[w] ^= u64{1} << rng.next_below(c.check_bits());
    }
    const u64 mm = c.mismatch_mask(data, check);
    for (unsigned w = 0; w < 8; ++w) {
      const bool flagged = (mm >> w) & 1;
      const bool scalar_bad =
          c.decode(data[w], check[w]).status != DecodeStatus::kOk;
      EXPECT_EQ(flagged, scalar_bad) << "word " << w;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, BatchedCodecEquivalence,
                         ::testing::Values("parity", "odd-parity",
                                           "byte-parity", "secded"));

TEST(ByteParityCodec, SwarEncodeMatchesReferenceLoop) {
  ByteParityCodec c;
  Xorshift64Star rng(80);
  for (int iter = 0; iter < 2000; ++iter) {
    const u64 x = iter < 3 ? static_cast<u64>(iter) : rng.next();
    u64 ref = 0;
    for (unsigned b = 0; b < 8; ++b) {
      const auto byte = static_cast<unsigned>((x >> (8 * b)) & 0xFF);
      ref |= static_cast<u64>(popcount64(byte) & 1) << b;
    }
    EXPECT_EQ(c.encode(x), ref) << "word " << std::hex << x;
  }
}

}  // namespace
}  // namespace aeep::ecc
