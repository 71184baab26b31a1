// CRC64 (ECMA-182 polynomial, reflected form — the CRC-64/XZ variant) for
// content addressing: the result store keys every cached cell by the CRC64
// of its canonical job JSON folded with the trace file's digest, so the
// same 64-bit checksum family protects both the trace chunk framing
// (CRC32, trace/io.hpp) and the store's identity space. Streaming update
// via the Crc64 accumulator lets FileReader digest a whole trace without
// buffering it.
#pragma once

#include <cstddef>
#include <string>

#include "common/types.hpp"

namespace aeep {

/// Incremental CRC64. Feed bytes in any chunking; value() is the digest of
/// everything fed so far (chunking never changes the result).
class Crc64 {
 public:
  void update(const void* data, std::size_t n);
  void update(const std::string& s) { update(s.data(), s.size()); }

  u64 value() const { return state_ ^ kInit; }

 private:
  static constexpr u64 kInit = ~u64{0};
  u64 state_ = kInit;
};

/// One-shot digest of a byte range / string.
u64 crc64(const void* data, std::size_t n);
inline u64 crc64(const std::string& s) { return crc64(s.data(), s.size()); }

}  // namespace aeep
