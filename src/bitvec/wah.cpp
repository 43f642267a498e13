#include "bitvec/wah.hpp"

#include <bit>

#include "common/error.hpp"

namespace pinatubo {
namespace {

constexpr std::uint32_t kGroupMask = 0x7fffffffu;

}  // namespace

void WahBitmap::append_group(std::uint32_t literal) {
  literal &= kGroupMask;
  const bool all_zero = literal == 0;
  const bool all_one = literal == kGroupMask;
  if (all_zero || all_one) {
    const std::uint32_t fill =
        kFillFlag | (all_one ? kFillValue : 0u);
    if (!words_.empty() && (words_.back() & ~kMaxRun) == fill &&
        (words_.back() & kMaxRun) < kMaxRun) {
      ++words_.back();
      return;
    }
    words_.push_back(fill | 1u);
    return;
  }
  words_.push_back(literal);
}

WahBitmap WahBitmap::from_words(std::uint64_t bits,
                                std::vector<std::uint32_t> words) {
  // Larger counts would wrap the ceil(bits/31) rounding below.
  PIN_CHECK_MSG(bits <= kMaxBits,
                "WAH bit count " << bits << " exceeds " << kMaxBits);
  std::uint64_t groups = 0;
  for (const std::uint32_t word : words) {
    if ((word & kFillFlag) != 0) {
      const std::uint32_t run = word & kMaxRun;
      PIN_CHECK_MSG(run > 0, "WAH fill word with zero run");
      groups += run;
    } else {
      ++groups;
    }
  }
  const std::uint64_t expected = (bits + kGroupBits - 1) / kGroupBits;
  PIN_CHECK_MSG(groups == expected, "WAH words cover " << groups
                                                       << " groups, expected "
                                                       << expected);
  WahBitmap w;
  w.bits_ = bits;
  w.words_ = std::move(words);
  return w;
}

WahBitmap WahBitmap::compress(const BitVector& v) {
  WahBitmap w;
  w.bits_ = v.size();
  const std::uint64_t groups = (v.size() + kGroupBits - 1) / kGroupBits;
  for (std::uint64_t g = 0; g < groups; ++g) {
    std::uint32_t lit = 0;
    const std::uint64_t base = g * kGroupBits;
    const std::uint64_t n =
        std::min<std::uint64_t>(kGroupBits, v.size() - base);
    for (std::uint64_t i = 0; i < n; ++i)
      if (v.get(base + i)) lit |= 1u << i;
    w.append_group(lit);
  }
  return w;
}

std::uint32_t WahBitmap::Decoder::next() {
  if (run_left_ > 0) {
    --run_left_;
    return run_value_;
  }
  PIN_CHECK_MSG(idx_ < words_->size(), "WAH decoder exhausted");
  const std::uint32_t word = (*words_)[idx_++];
  if ((word & kFillFlag) != 0) {
    run_left_ = (word & kMaxRun) - 1;
    run_value_ = (word & kFillValue) != 0 ? kGroupMask : 0u;
    return run_value_;
  }
  return word & kGroupMask;
}

bool WahBitmap::Decoder::done() const {
  return run_left_ == 0 && idx_ >= words_->size();
}

BitVector WahBitmap::decompress() const {
  BitVector v(bits_);
  Decoder dec(*this);
  for (std::uint64_t base = 0; base < bits_; base += kGroupBits) {
    const std::uint32_t lit = dec.next();
    const std::uint64_t n = std::min<std::uint64_t>(kGroupBits, bits_ - base);
    for (std::uint64_t i = 0; i < n; ++i)
      if ((lit >> i) & 1u) v.set(base + i);
  }
  return v;
}

double WahBitmap::compression_ratio() const {
  if (bits_ == 0) return 1.0;
  return static_cast<double>(size_bytes()) /
         (static_cast<double>(bits_ + 7) / 8.0);
}

std::uint64_t WahBitmap::popcount() const {
  std::uint64_t count = 0;
  std::uint64_t groups_seen = 0;
  const std::uint64_t groups = (bits_ + kGroupBits - 1) / kGroupBits;
  const std::uint64_t tail_bits =
      bits_ - (groups > 0 ? (groups - 1) * kGroupBits : 0);
  for (const std::uint32_t word : words_) {
    if ((word & kFillFlag) != 0) {
      const std::uint64_t run = word & kMaxRun;
      if ((word & kFillValue) != 0) {
        count += run * kGroupBits;
        // Correct a one-fill covering the (possibly partial) tail group.
        if (groups_seen + run == groups && tail_bits < kGroupBits)
          count -= kGroupBits - tail_bits;
      }
      groups_seen += run;
    } else {
      std::uint32_t lit = word & kGroupMask;
      ++groups_seen;
      if (groups_seen == groups && tail_bits < kGroupBits)
        lit &= (1u << tail_bits) - 1;
      count += static_cast<std::uint64_t>(std::popcount(lit));
    }
  }
  return count;
}

template <typename Fn>
WahBitmap WahBitmap::combine(const WahBitmap& a, const WahBitmap& b,
                             Fn&& fn) {
  PIN_CHECK_MSG(a.bits_ == b.bits_,
                "WAH size mismatch: " << a.bits_ << " vs " << b.bits_);
  WahBitmap out;
  out.bits_ = a.bits_;
  Decoder da(a), db(b);
  const std::uint64_t groups = (a.bits_ + kGroupBits - 1) / kGroupBits;
  for (std::uint64_t g = 0; g < groups; ++g)
    out.append_group(fn(da.next(), db.next()));
  return out;
}

WahBitmap WahBitmap::logical_and(const WahBitmap& a, const WahBitmap& b) {
  return combine(a, b,
                 [](std::uint32_t x, std::uint32_t y) { return x & y; });
}

WahBitmap WahBitmap::logical_or(const WahBitmap& a, const WahBitmap& b) {
  return combine(a, b,
                 [](std::uint32_t x, std::uint32_t y) { return x | y; });
}

WahBitmap WahBitmap::logical_xor(const WahBitmap& a, const WahBitmap& b) {
  return combine(a, b,
                 [](std::uint32_t x, std::uint32_t y) { return x ^ y; });
}

WahBitmap WahBitmap::logical_not() const {
  WahBitmap out;
  out.bits_ = bits_;
  Decoder dec(*this);
  const std::uint64_t groups = (bits_ + kGroupBits - 1) / kGroupBits;
  for (std::uint64_t g = 0; g < groups; ++g)
    out.append_group(~dec.next() & kGroupMask);
  return out;
}

}  // namespace pinatubo
