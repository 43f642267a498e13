#include "bitvec/bitvector.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/error.hpp"

namespace pinatubo {

const char* to_string(BitOp op) {
  switch (op) {
    case BitOp::kOr:
      return "OR";
    case BitOp::kAnd:
      return "AND";
    case BitOp::kXor:
      return "XOR";
    case BitOp::kInv:
      return "INV";
  }
  return "?";
}

BitVector::BitVector(std::size_t size)
    : size_(size), words_((size + kWordBits - 1) / kWordBits, 0) {}

BitVector BitVector::from_string(const std::string& bits) {
  BitVector v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    PIN_CHECK_MSG(bits[i] == '0' || bits[i] == '1',
                  "bad bit char '" << bits[i] << "' at " << i);
    if (bits[i] == '1') v.set(i);
  }
  return v;
}

BitVector BitVector::random(std::size_t size, double density, Rng& rng) {
  PIN_CHECK(density >= 0.0 && density <= 1.0);
  BitVector v(size);
  if (density == 0.5) {
    // Fast path: raw random words.
    for (auto& w : v.words_) w = rng.next();
  } else {
    // Per-word threshold draws assembled in a register.  The draw order is
    // one uniform per bit, index-ascending — the same sequence the bitwise
    // chance() loop consumed — so outputs are bit-identical across versions.
    std::size_t bit = 0;
    for (auto& w : v.words_) {
      const std::size_t n = std::min(size - bit, kWordBits);
      Word word = 0;
      for (std::size_t b = 0; b < n; ++b)
        word |= static_cast<Word>(rng.uniform() < density) << b;
      w = word;
      bit += n;
    }
  }
  v.mask_tail();
  return v;
}

BitVector BitVector::from_words(std::span<const Word> words, std::size_t size) {
  const std::size_t need = (size + kWordBits - 1) / kWordBits;
  PIN_CHECK_MSG(words.size() >= need,
                words.size() << " words for " << size << " bits");
  BitVector v(size);
  std::copy_n(words.begin(), need, v.words_.begin());
  v.mask_tail();
  return v;
}

bool BitVector::get(std::size_t i) const {
  PIN_CHECK_MSG(i < size_, "bit index " << i << " >= size " << size_);
  return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
}

void BitVector::set(std::size_t i, bool v) {
  PIN_CHECK_MSG(i < size_, "bit index " << i << " >= size " << size_);
  const Word mask = Word{1} << (i % kWordBits);
  if (v)
    words_[i / kWordBits] |= mask;
  else
    words_[i / kWordBits] &= ~mask;
}

void BitVector::flip(std::size_t i) {
  PIN_CHECK_MSG(i < size_, "bit index " << i << " >= size " << size_);
  words_[i / kWordBits] ^= Word{1} << (i % kWordBits);
}

void BitVector::fill(bool v) {
  const Word pattern = v ? ~Word{0} : Word{0};
  for (auto& w : words_) w = pattern;
  mask_tail();
}

void BitVector::resize(std::size_t size) {
  size_ = size;
  words_.resize((size + kWordBits - 1) / kWordBits, 0);
  mask_tail();
}

BitVector& BitVector::operator|=(const BitVector& rhs) {
  PIN_CHECK_MSG(size_ == rhs.size_, size_ << " vs " << rhs.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= rhs.words_[i];
  return *this;
}

BitVector& BitVector::operator&=(const BitVector& rhs) {
  PIN_CHECK_MSG(size_ == rhs.size_, size_ << " vs " << rhs.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= rhs.words_[i];
  return *this;
}

BitVector& BitVector::operator^=(const BitVector& rhs) {
  PIN_CHECK_MSG(size_ == rhs.size_, size_ << " vs " << rhs.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= rhs.words_[i];
  return *this;
}

void BitVector::invert() {
  for (auto& w : words_) w = ~w;
  mask_tail();
}

BitVector BitVector::operator~() const {
  BitVector v = *this;
  v.invert();
  return v;
}

BitVector BitVector::reduce(BitOp op, std::span<const BitVector* const> srcs) {
  PIN_CHECK(!srcs.empty());
  for (const auto* s : srcs) PIN_CHECK(s != nullptr);
  BitVector acc = *srcs[0];
  if (op == BitOp::kInv) {
    PIN_CHECK_MSG(srcs.size() == 1, "INV takes exactly one operand");
    acc.invert();
    return acc;
  }
  for (std::size_t i = 1; i < srcs.size(); ++i) {
    switch (op) {
      case BitOp::kOr:
        acc |= *srcs[i];
        break;
      case BitOp::kAnd:
        acc &= *srcs[i];
        break;
      case BitOp::kXor:
        acc ^= *srcs[i];
        break;
      case BitOp::kInv:
        PIN_UNREACHABLE("handled above");
    }
  }
  return acc;
}

BitVector BitVector::and_not(const BitVector& a, const BitVector& b) {
  PIN_CHECK_MSG(a.size_ == b.size_, a.size_ << " vs " << b.size_);
  BitVector v = a;
  for (std::size_t i = 0; i < v.words_.size(); ++i)
    v.words_[i] &= ~b.words_[i];
  v.mask_tail();
  return v;
}

std::size_t BitVector::popcount() const {
  std::size_t n = 0;
  for (auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

bool BitVector::any() const {
  for (auto w : words_)
    if (w != 0) return true;
  return false;
}

bool BitVector::all() const {
  if (size_ == 0) return true;
  const std::size_t full = size_ / kWordBits;
  for (std::size_t i = 0; i < full; ++i)
    if (words_[i] != ~Word{0}) return false;
  const std::size_t tail = size_ % kWordBits;
  if (tail != 0) {
    const Word mask = (Word{1} << tail) - 1;
    if ((words_.back() & mask) != mask) return false;
  }
  return true;
}

std::size_t BitVector::find_first() const {
  for (std::size_t w = 0; w < words_.size(); ++w)
    if (words_[w] != 0)
      return w * kWordBits + static_cast<std::size_t>(__builtin_ctzll(words_[w]));
  return size_;
}

std::size_t BitVector::find_next(std::size_t i) const {
  if (i + 1 >= size_) return size_;
  std::size_t w = (i + 1) / kWordBits;
  const std::size_t off = (i + 1) % kWordBits;
  Word bits = words_[w] & (~Word{0} << off);
  while (true) {
    if (bits != 0)
      return w * kWordBits + static_cast<std::size_t>(__builtin_ctzll(bits));
    if (++w >= words_.size()) return size_;
    bits = words_[w];
  }
}

std::string BitVector::to_string() const {
  std::string s(size_, '0');
  for_each_set([&](std::size_t i) { s[i] = '1'; });
  return s;
}

std::vector<std::uint8_t> BitVector::to_bytes() const {
  std::vector<std::uint8_t> out((size_ + 7) / 8, 0);
  for (std::size_t b = 0; b < out.size(); ++b) {
    const std::size_t w = b / 8;
    const std::size_t sh = (b % 8) * 8;
    out[b] = static_cast<std::uint8_t>(words_[w] >> sh);
  }
  return out;
}

BitVector BitVector::from_bytes(std::span<const std::uint8_t> bytes,
                                std::size_t size) {
  PIN_CHECK_MSG(bytes.size() >= (size + 7) / 8,
                bytes.size() << " bytes for " << size << " bits");
  BitVector v(size);
  for (std::size_t b = 0; b < (size + 7) / 8; ++b) {
    const std::size_t w = b / 8;
    const std::size_t sh = (b % 8) * 8;
    v.words_[w] |= static_cast<Word>(bytes[b]) << sh;
  }
  v.mask_tail();
  return v;
}

void BitVector::mask_tail() {
  const std::size_t tail = size_ % kWordBits;
  if (tail != 0 && !words_.empty())
    words_.back() &= (Word{1} << tail) - 1;
}

void copy_bits(std::span<BitVector::Word> dst, std::size_t dst_off,
               std::span<const BitVector::Word> src, std::size_t src_off,
               std::size_t len) {
  using Word = BitVector::Word;
  constexpr std::size_t kW = BitVector::kWordBits;
  if (len == 0) return;
  PIN_CHECK_MSG(dst_off + len <= dst.size() * kW,
                "dst range " << dst_off << "+" << len << " exceeds "
                             << dst.size() * kW << " bits");
  PIN_CHECK_MSG(src_off + len <= src.size() * kW,
                "src range " << src_off << "+" << len << " exceeds "
                             << src.size() * kW << " bits");
  // Both arrays hold 64-bit words, so a bit's absolute position is its
  // word's byte address times 8 plus its offset: same-storage ranges
  // intersect exactly when these intervals do.
  const auto bit_addr = [](const Word* base, std::size_t off) {
    return reinterpret_cast<std::uintptr_t>(base) * 8 + off;
  };
  const std::uintptr_t d0 = bit_addr(dst.data(), dst_off);
  const std::uintptr_t s0 = bit_addr(src.data(), src_off);
  PIN_CHECK_MSG(d0 + len <= s0 || s0 + len <= d0,
                "overlapping copy: dst bits " << dst_off << "+" << len
                                              << " intersect src bits "
                                              << src_off << "+" << len
                                              << " of the same storage");
  if (dst_off % kW == 0 && src_off % kW == 0) {
    // Word-aligned: whole words, then the masked tail word.
    const std::size_t dw = dst_off / kW, sw = src_off / kW;
    const std::size_t full = len / kW, tail = len % kW;
    std::copy_n(src.begin() + static_cast<std::ptrdiff_t>(sw), full,
                dst.begin() + static_cast<std::ptrdiff_t>(dw));
    if (tail != 0) {
      const Word keep = (Word{1} << tail) - 1;
      Word& d = dst[dw + full];
      d = (d & ~keep) | (src[sw + full] & keep);
    }
    return;
  }
  // 64 source bits starting at bit p, stitched from up to two words;
  // positions past the array read as zero (masked off by the caller loop).
  auto read64 = [&src](std::size_t p) -> Word {
    const std::size_t w = p / kW, sh = p % kW;
    const Word lo = w < src.size() ? src[w] : 0;
    if (sh == 0) return lo;
    const Word hi = (w + 1) < src.size() ? src[w + 1] : 0;
    return (lo >> sh) | (hi << (kW - sh));
  };
  std::size_t sp = src_off, dp = dst_off, remaining = len;
  while (remaining > 0) {
    const std::size_t dw = dp / kW;
    const std::size_t doff = dp % kW;
    const std::size_t take = std::min(remaining, kW - doff);
    const Word keep = take == kW ? ~Word{0} : (Word{1} << take) - 1;
    dst[dw] = (dst[dw] & ~(keep << doff)) | ((read64(sp) & keep) << doff);
    dp += take;
    sp += take;
    remaining -= take;
  }
}

BitVector apply(BitOp op, const BitVector& a, const BitVector& b) {
  switch (op) {
    case BitOp::kOr:
      return a | b;
    case BitOp::kAnd:
      return a & b;
    case BitOp::kXor:
      return a ^ b;
    case BitOp::kInv:
      return ~a;
  }
  PIN_UNREACHABLE("bad BitOp");
}

}  // namespace pinatubo
