// The seeded fault model: every mechanism must be a deterministic pure
// function of (seed, coordinates) — that is what makes fault campaigns
// reproducible at any thread count — and the dynamic state (wear-out,
// drift ages) must reset cleanly between campaigns while the static
// stuck-at map (the "chip") survives.
#include "reliability/fault_model.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <span>
#include <vector>

#include "common/random.hpp"

namespace pinatubo::reliability {
namespace {

using Word = FaultModel::Word;

FaultConfig stuck_cfg(double rate, std::uint64_t seed = 3) {
  FaultConfig c;
  c.enabled = true;
  c.seed = seed;
  c.stuck_rate = rate;
  return c;
}

TEST(FaultModel, StuckMapIsPureAndSeeded) {
  FaultModel a(stuck_cfg(1e-3));
  FaultModel b(stuck_cfg(1e-3));       // same seed: same chip
  FaultModel c(stuck_cfg(1e-3, 4));    // different seed: different chip
  std::size_t faults = 0, differs = 0;
  for (std::uint64_t row = 0; row < 16; ++row) {
    for (std::uint64_t w = 0; w < 256; ++w) {
      const auto fa = a.stuck_fault(row, w);
      const auto fb = b.stuck_fault(row, w);
      ASSERT_EQ(fa.has_value(), fb.has_value());
      if (fa) {
        ++faults;
        EXPECT_EQ(fa->mask, fb->mask);
        EXPECT_EQ(fa->stuck_one, fb->stuck_one);
        // Exactly one stuck cell per word (first-order approximation).
        EXPECT_EQ(std::popcount(fa->mask), 1);
      }
      if (fa.has_value() != c.stuck_fault(row, w).has_value()) ++differs;
    }
  }
  // 4096 words at p = 64 * 1e-3: a couple hundred faults expected.
  EXPECT_GT(faults, 100u);
  EXPECT_LT(faults, 600u);
  EXPECT_GT(differs, 0u);
  // Repeated queries never change the answer (const, no hidden state).
  EXPECT_EQ(a.stuck_fault(7, 7).has_value(), b.stuck_fault(7, 7).has_value());
}

TEST(FaultModel, ZeroRateMeansNoStuckFaults) {
  FaultModel m(stuck_cfg(0.0));
  for (std::uint64_t w = 0; w < 512; ++w)
    EXPECT_FALSE(m.stuck_fault(1, w).has_value());
}

TEST(FaultModel, OnWriteAppliesStuckFaultsIdempotently) {
  FaultModel m(stuck_cfg(1e-2));
  std::vector<Word> row(64, ~Word{0});
  m.on_write(5, 1, 0, row, 0, 64);
  const auto once = row;
  // A second write of the same content re-asserts the same faults.
  m.on_write(5, 2, 0, row, 0, 64);
  EXPECT_EQ(row, once);
  // The corruption matches the audited map: stuck-at-0 cells cleared.
  bool any_cleared = false;
  for (std::uint64_t w = 0; w < 64; ++w) {
    if (const auto f = m.stuck_fault(5, w)) {
      EXPECT_EQ(row[w] & f->mask, f->stuck_one ? f->mask : Word{0});
      any_cleared |= !f->stuck_one;
    }
  }
  EXPECT_TRUE(any_cleared);  // p(word) = 0.64: plenty of faults in 64 words
}

TEST(FaultModel, WearoutStartsPastTheKneeAndPersists) {
  FaultConfig c;
  c.enabled = true;
  c.seed = 9;
  c.endurance_cycles = 10;
  c.wearout_rate = 1.0;  // every post-knee write kills a cell
  FaultModel m(c);
  std::vector<Word> row(32, ~Word{0});
  for (std::uint64_t wc = 1; wc <= 10; ++wc) m.on_write(3, wc, 0, row, 0, 32);
  EXPECT_EQ(m.wearout_cells(), 0u);  // healthy below the knee
  m.on_write(3, 11, 0, row, 0, 32);
  m.on_write(3, 12, 0, row, 0, 32);
  EXPECT_EQ(m.wearout_cells(), 2u);
  // Wear faults behave like stuck-at from then on: rewriting all-ones
  // leaves the killed stuck-at-0 cells cleared in the same places.
  std::vector<Word> fresh(32, ~Word{0});
  m.on_write(3, 13, 0, fresh, 0, 32);  // kills one more, re-asserts all
  // An empty window samples nothing but still re-asserts the accumulated
  // faults — the same cells come out corrupted in a fresh image.
  std::vector<Word> again(32, ~Word{0});
  m.on_write(3, 13, 0, again, 0, 0);
  EXPECT_EQ(again, fresh);
  EXPECT_EQ(m.wearout_cells(), 3u);
}

TEST(FaultModel, SenseScaleGrowsWithActivationWidth) {
  FaultConfig c;
  c.enabled = true;
  c.sense_ber = 1e-5;
  FaultModel m(c);
  const std::uint64_t two[] = {1, 2};
  const std::uint64_t four[] = {1, 2, 3, 4};
  std::vector<std::uint64_t> wide(128);
  for (std::size_t i = 0; i < wide.size(); ++i) wide[i] = i;
  // sense_ber is the 2-row baseline; n rows run at n/2 of it — the
  // narrowing-margin effect that makes de-escalation a real rung.
  EXPECT_DOUBLE_EQ(m.sense_scale(0, {two, 2}), 1.0);
  EXPECT_DOUBLE_EQ(m.sense_scale(0, {four, 4}), 2.0);
  EXPECT_DOUBLE_EQ(m.sense_scale(0, wide), 64.0);
  // No BER configured: scale is 0 (flips disabled entirely).
  FaultModel off(stuck_cfg(1e-5));
  EXPECT_DOUBLE_EQ(off.sense_scale(0, {four, 4}), 0.0);
}

TEST(FaultModel, DriftAgesDataFromItsLastWrite) {
  FaultConfig c;
  c.enabled = true;
  c.sense_ber = 1e-5;
  c.drift_rate = 0.1;
  FaultModel m(c);
  std::vector<Word> row(4);
  m.on_write(42, 1, 10, row, 0, 4);  // row 42 written at epoch 10
  const std::uint64_t just42[] = {42};
  EXPECT_DOUBLE_EQ(m.sense_scale(10, {just42, 1}), 1.0);  // fresh
  EXPECT_DOUBLE_EQ(m.sense_scale(30, {just42, 1}), 3.0);  // age 20
  // Unwritten rows count as fresh; the oldest operand dominates.
  const std::uint64_t mixed[] = {42, 99};
  EXPECT_DOUBLE_EQ(m.sense_scale(30, {mixed, 2}), 3.0);
  const std::uint64_t only99[] = {99};
  EXPECT_DOUBLE_EQ(m.sense_scale(30, {only99, 1}), 1.0);
}

TEST(FaultModel, SenseFlipsArePureInEpochAndWord) {
  FaultConfig c;
  c.enabled = true;
  c.seed = 11;
  c.sense_ber = 1e-3;  // p(word) = 0.064 at scale 1
  FaultModel m1(c), m2(c);
  std::size_t flipped = 0;
  for (std::uint64_t epoch = 0; epoch < 8; ++epoch) {
    for (std::uint64_t w = 0; w < 256; ++w) {
      const Word f = m1.sense_flips(epoch, w, 1.0);
      EXPECT_EQ(f, m2.sense_flips(epoch, w, 1.0));
      if (f) {
        ++flipped;
        EXPECT_EQ(std::popcount(f), 1);  // single-bit flips
      }
    }
  }
  EXPECT_GT(flipped, 60u);  // ~131 expected over 2048 draws
  EXPECT_EQ(m1.flipped_words(), flipped);
  // A retried sense runs under a NEW epoch, so it redraws: some epoch
  // must flip a word that its successor does not.
  bool redraw = false;
  for (std::uint64_t w = 0; w < 256 && !redraw; ++w)
    redraw = m1.sense_flips(100, w, 1.0) != m1.sense_flips(101, w, 1.0);
  EXPECT_TRUE(redraw);
}

TEST(FaultModel, SpanFlipsMatchPerWord) {
  FaultConfig c;
  c.enabled = true;
  c.seed = 13;
  c.sense_ber = 1e-3;  // p(word) = 0.064 * scale; clamps to 1 past 15.625
  FaultModel span_model(c), word_model(c);
  Rng rng(14);
  std::size_t all_flipped = 0;
  for (const std::size_t len : {1u, 63u, 1024u}) {
    for (const double scale : {0.0, 1.0, 3.5, 100.0, rng.uniform(0.1, 8.0)}) {
      const std::uint64_t epoch = rng.next();
      std::vector<Word> out(len);
      for (Word& w : out) w = rng.next();
      std::vector<Word> expect = out;
      for (std::size_t w = 0; w < len; ++w)
        expect[w] ^= word_model.sense_flips(epoch, w, scale);
      const std::uint64_t before = span_model.flipped_words();
      span_model.sense_flips(epoch, scale, out);
      EXPECT_EQ(out, expect) << "len=" << len << " scale=" << scale;
      EXPECT_EQ(span_model.flipped_words(), word_model.flipped_words());
      if (scale == 0.0) {
        EXPECT_EQ(span_model.flipped_words(), before);
      }
      if (scale == 100.0) {  // p clamped to 1: every word flips
        EXPECT_EQ(span_model.flipped_words() - before, len);
        all_flipped += len;
      }
    }
  }
  EXPECT_EQ(all_flipped, 1088u);
}

TEST(FaultModel, StuckCacheMatchesPureMap) {
  FaultConfig c = stuck_cfg(1e-2, 17);  // p(word) = 0.64
  c.endurance_cycles = 3;
  c.wearout_rate = 0.5;
  FaultModel m(c);
  // The same seed without a stuck map draws the same wear-out faults.
  FaultConfig wc = c;
  wc.stuck_rate = 0.0;
  FaultModel wear_only(wc);

  constexpr std::size_t kWords = 1024;
  std::map<std::uint64_t, std::vector<Word>> stored, ref;
  std::map<std::uint64_t, std::uint64_t> writes;
  Rng rng(18);
  std::uint64_t epoch = 0;
  // One write of random data over [lo, hi) of physical row `row`: `m`
  // corrupts the stored image through its cache, the reference applies
  // `stuck_fault` to every word of the row and then the wear-out faults.
  const auto write = [&](std::uint64_t row, std::size_t lo, std::size_t hi) {
    auto& s = stored.try_emplace(row, kWords, Word{0}).first->second;
    auto& r = ref.try_emplace(row, kWords, Word{0}).first->second;
    for (std::size_t w = lo; w < hi; ++w) s[w] = r[w] = rng.next();
    const std::uint64_t wc_now = ++writes[row];
    ++epoch;
    m.on_write(row, wc_now, epoch, s, lo, hi);
    for (std::uint64_t w = 0; w < kWords; ++w) {
      if (const auto f = m.stuck_fault(row, w)) {
        if (f->stuck_one)
          r[w] |= f->mask;
        else
          r[w] &= ~f->mask;
      }
    }
    wear_only.on_write(row, wc_now, epoch, r, lo, hi);
    EXPECT_EQ(s, r) << "row " << row << " window [" << lo << ", " << hi
                    << ") write " << wc_now;
  };
  const auto campaign = [&](std::uint64_t row, std::uint64_t spare) {
    write(row, 0, kWords);
    write(row, 0, 1);
    write(row, 100, 356);
    write(row, kWords - 1, kWords);
    write(row, 512, 512);  // empty window: re-asserts only
    write(row, 0, kWords);
    // The row's data moves to a spare: a fresh physical row, its own map.
    write(spare, 0, kWords);
    write(spare, 7, 900);
  };
  campaign(5, 77);
  campaign(9, 78);
  ASSERT_GT(m.wearout_cells(), 0u);
  EXPECT_EQ(m.wearout_cells(), wear_only.wearout_cells());

  // A new campaign on the same chip: the dynamic state and the memory
  // image are gone, the stuck cells (and their cache) are not.
  m.reset();
  wear_only.reset();
  stored.clear();
  ref.clear();
  writes.clear();
  campaign(9, 5);
  campaign(78, 79);

  // The rows cover both edge words of the map, so a cache that drops the
  // first or last word of a row is caught above.
  bool first = false, last = false;
  for (const std::uint64_t row : {5u, 9u, 77u, 78u, 79u}) {
    first |= m.stuck_fault(row, 0).has_value();
    last |= m.stuck_fault(row, kWords - 1).has_value();
  }
  EXPECT_TRUE(first);
  EXPECT_TRUE(last);
}

TEST(FaultModel, ResetDropsDynamicStateKeepsTheChip) {
  FaultConfig c = stuck_cfg(1e-3, 21);
  c.sense_ber = 1e-3;
  c.drift_rate = 0.1;
  c.endurance_cycles = 1;
  c.wearout_rate = 1.0;
  FaultModel m(c);
  std::vector<Word> row(8, ~Word{0});
  m.on_write(2, 5, 50, row, 0, 8);        // wear-out kill + drift age
  (void)m.sense_flips(0, 0, 1.0);
  ASSERT_GT(m.wearout_cells(), 0u);
  const std::uint64_t r2[] = {2};
  ASSERT_GT(m.sense_scale(60, {r2, 1}), 1.0);

  // Record the stuck map before the reset.
  std::vector<bool> before;
  for (std::uint64_t w = 0; w < 128; ++w)
    before.push_back(m.stuck_fault(7, w).has_value());

  m.reset();
  EXPECT_EQ(m.wearout_cells(), 0u);
  EXPECT_EQ(m.flipped_words(), 0u);
  EXPECT_DOUBLE_EQ(m.sense_scale(60, {r2, 1}), 1.0);  // age forgotten
  for (std::uint64_t w = 0; w < 128; ++w)
    EXPECT_EQ(m.stuck_fault(7, w).has_value(), before[w]);
}

TEST(FaultModel, BerFromYieldIsNearZeroForHealthyShapes) {
  // PCM multi-row OR sits well inside the derived margin: the circuit
  // layer predicts essentially no sense errors, which is why campaigns
  // set stressed rates explicitly.
  EXPECT_LT(ber_from_yield(nvm::Tech::kPcm, BitOp::kOr, 2, 512), 0.01);
  EXPECT_LT(ber_from_yield(nvm::Tech::kPcm, BitOp::kOr, 64, 512), 0.02);
}

}  // namespace
}  // namespace pinatubo::reliability
