// Host-side bulk bit-vector substrate.
//
// This is the functional ground truth for every experiment: applications
// (bitmap BFS, bitmap-index queries, vector workloads) compute on BitVector,
// the SIMD baseline costs these exact kernels, and the PIM backends must
// produce bit-identical results through the simulated memory arrays.
//
// Representation: little-endian packing into 64-bit words; bit i lives in
// word i/64 at position i%64.  Trailing bits of the last word are kept zero
// (class invariant) so whole-word algorithms need no masking.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/random.hpp"

namespace pinatubo {

enum class BitOp : std::uint8_t { kOr, kAnd, kXor, kInv };

/// Short name ("OR", "AND", "XOR", "INV") for reports.
const char* to_string(BitOp op);

class BitVector {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  BitVector() = default;
  /// `size` bits, all zero.
  explicit BitVector(std::size_t size);
  /// From a '0'/'1' string, index 0 first.
  static BitVector from_string(const std::string& bits);
  /// Random vector with P(bit=1) = density.
  static BitVector random(std::size_t size, double density, Rng& rng);
  /// From packed little-endian words (e.g. a MainMemory row view); reads
  /// ceil(size/64) words and masks the tail.
  static BitVector from_words(std::span<const Word> words, std::size_t size);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t word_count() const { return words_.size(); }
  std::span<const Word> words() const { return words_; }
  std::span<Word> words() { return words_; }

  bool get(std::size_t i) const;
  void set(std::size_t i, bool v = true);
  void clear(std::size_t i) { set(i, false); }
  void flip(std::size_t i);

  /// All bits to `v`.
  void fill(bool v);
  /// Grows/shrinks; new bits are zero.
  void resize(std::size_t size);

  // ---- bulk boolean ops (operands must have equal size) --------------------
  BitVector& operator|=(const BitVector& rhs);
  BitVector& operator&=(const BitVector& rhs);
  BitVector& operator^=(const BitVector& rhs);
  /// In-place bitwise complement (respects the trailing-zero invariant).
  void invert();

  friend BitVector operator|(BitVector a, const BitVector& b) { return a |= b; }
  friend BitVector operator&(BitVector a, const BitVector& b) { return a &= b; }
  friend BitVector operator^(BitVector a, const BitVector& b) { return a ^= b; }
  BitVector operator~() const;

  /// dst = fold of `srcs` under `op` (kInv folds as XOR-with-ones of first).
  /// For kOr/kAnd/kXor requires >= 1 operand; result sized like operands.
  static BitVector reduce(BitOp op, std::span<const BitVector* const> srcs);

  /// a AND NOT b, the bitmap-BFS "remove visited" kernel.
  static BitVector and_not(const BitVector& a, const BitVector& b);

  // ---- queries --------------------------------------------------------------
  std::size_t popcount() const;
  bool any() const;
  bool none() const { return !any(); }
  bool all() const;
  /// Index of first set bit or `size()` if none.
  std::size_t find_first() const;
  /// Index of first set bit > i, or `size()` if none.
  std::size_t find_next(std::size_t i) const;
  /// Calls `fn(index)` for each set bit in ascending order.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      Word bits = words_[w];
      while (bits != 0) {
        const auto b = static_cast<std::size_t>(__builtin_ctzll(bits));
        fn(w * kWordBits + b);
        bits &= bits - 1;
      }
    }
  }

  bool operator==(const BitVector& rhs) const = default;

  /// '0'/'1' string (index 0 first).  Intended for tests/small vectors.
  std::string to_string() const;

  /// Raw bytes (little-endian words), exactly ceil(size/8) bytes.
  std::vector<std::uint8_t> to_bytes() const;
  /// Rebuilds from bytes as produced by to_bytes.
  static BitVector from_bytes(std::span<const std::uint8_t> bytes,
                              std::size_t size);

 private:
  void mask_tail();

  std::size_t size_ = 0;
  std::vector<Word> words_;
};

/// Applies `op` to (a, b) elementwise; kInv ignores b and complements a.
BitVector apply(BitOp op, const BitVector& a, const BitVector& b);

/// Copies `len` bits from `src` starting at bit `src_off` into `dst`
/// starting at bit `dst_off`, whole words at a time (masked head/tail,
/// shifted interior; a plain word copy plus a masked tail when both
/// offsets are multiples of 64).  Ranges must lie inside the word arrays;
/// bits of `dst` outside [dst_off, dst_off + len) are preserved.  Throws
/// `Error` when `dst` and `src` share storage and the two bit ranges
/// intersect.
void copy_bits(std::span<BitVector::Word> dst, std::size_t dst_off,
               std::span<const BitVector::Word> src, std::size_t src_off,
               std::size_t len);

}  // namespace pinatubo
