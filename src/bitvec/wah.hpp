// Word-Aligned Hybrid (WAH) compressed bitmaps — the encoding the real
// FastBit [Wu, 2005] uses for its bitmap indexes.
//
// The paper's Database workload runs on FastBit-style indexes; production
// FastBit compresses them.  This implementation enables the ablation the
// paper's comparison implies but never shows: a CPU operating on
// compressed bitmaps (less memory traffic, more compute) against Pinatubo
// operating on uncompressed rows (PIM cannot exploit compression — the
// analog sensing needs the bits in place).
//
// Encoding (31-bit words inside 32-bit containers):
//   MSB = 0: literal word, 31 payload bits.
//   MSB = 1: fill word; bit 30 = fill bit value; low 30 bits = run length
//            in 31-bit groups.
// The logical size is tracked separately; the tail group may be partial.
#pragma once

#include <cstdint>
#include <vector>

#include "bitvec/bitvector.hpp"

namespace pinatubo {

class WahBitmap {
 public:
  WahBitmap() = default;

  /// Compresses a plain bit-vector.
  static WahBitmap compress(const BitVector& v);
  /// Decompresses back to a plain bit-vector.
  BitVector decompress() const;

  /// Builds a bitmap from an already-encoded word stream (I/O, tests).
  /// Rejects `bits` above `kMaxBits` and validates that the words cover
  /// exactly `ceil(bits/31)` groups; the
  /// encoding may be non-canonical (e.g. adjacent fills of one value, or
  /// literal all-zero words) — every reader handles that.
  static WahBitmap from_words(std::uint64_t bits,
                              std::vector<std::uint32_t> words);

  std::uint64_t size_bits() const { return bits_; }
  /// Physical size of the compressed representation.
  std::size_t word_count() const { return words_.size(); }
  std::size_t size_bytes() const { return words_.size() * 4; }
  /// compressed bytes / uncompressed bytes (< 1 for sparse bitmaps).
  double compression_ratio() const;

  /// Population count straight off the compressed form.
  std::uint64_t popcount() const;

  /// Bitwise ops directly on the compressed forms (run-aware).
  static WahBitmap logical_and(const WahBitmap& a, const WahBitmap& b);
  static WahBitmap logical_or(const WahBitmap& a, const WahBitmap& b);
  static WahBitmap logical_xor(const WahBitmap& a, const WahBitmap& b);
  WahBitmap logical_not() const;

  bool operator==(const WahBitmap&) const = default;

  /// Raw encoded words (tests / traffic accounting).
  const std::vector<std::uint32_t>& words() const { return words_; }

  static constexpr unsigned kGroupBits = 31;
  static constexpr std::uint32_t kFillFlag = 0x80000000u;
  static constexpr std::uint32_t kFillValue = 0x40000000u;
  /// Longest run one fill word encodes (in 31-bit groups); longer runs
  /// split into consecutive fill words.
  static constexpr std::uint32_t kMaxRun = 0x3fffffffu;
  /// Largest logical size `from_words` accepts: `bits + kGroupBits - 1`
  /// must not wrap.
  static constexpr std::uint64_t kMaxBits = ~0ull - (kGroupBits - 1);

  /// Streaming decoder over 31-bit groups.  `done()` turns true exactly
  /// when every encoded group has been consumed.
  class Decoder {
   public:
    explicit Decoder(const WahBitmap& w) : words_(&w.words_) {}
    /// Next 31-bit group (all-zero / all-one fills expanded).
    std::uint32_t next();
    bool done() const;

   private:
    const std::vector<std::uint32_t>* words_;
    std::size_t idx_ = 0;
    std::uint32_t run_left_ = 0;
    std::uint32_t run_value_ = 0;
  };

 private:
  /// Appends one literal 31-bit group, merging into fills when possible.
  void append_group(std::uint32_t literal);

  template <typename Fn>
  static WahBitmap combine(const WahBitmap& a, const WahBitmap& b, Fn&& fn);

  std::uint64_t bits_ = 0;
  std::vector<std::uint32_t> words_;
};

}  // namespace pinatubo
