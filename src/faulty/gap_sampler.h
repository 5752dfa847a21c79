// Per-rate geometric gap sampler: how many clean ops until the next fault.
//
// The skip-ahead injector draws the fault-to-fault gap K ~ Geometric(rate),
// P(K = k) = rate * (1 - rate)^k, once per *fault*.  Two precomputed forms
// cover the whole rate range with one strategy:
//
//  * rate >= kTableMinRate (1/64): a Walker alias table over the gap values
//    {0 .. 62} plus a tail slot.  One RNG draw and one probe yield the gap;
//    the tail slot (gap >= 63, probability (1 - r)^63 <= 0.38) adds 63 and
//    redraws — valid because the geometric distribution is memoryless.  This
//    replaces the log() of the inverse-CDF form, which above ~1/16 faults
//    per op used to cost more than the per-op Bernoulli draw it was saving.
//  * rate <  kTableMinRate: inverse CDF, gap = log(u) / log(1 - rate).  At
//    these rates the mean gap exceeds 64 ops, so one log() per fault is
//    already amortized to well under a draw per op, while the alias table's
//    tail slot would dominate and make it loop.
//
// Both forms are deterministic in the LFSR stream, and the choice between
// them depends only on the rate, so a fixed (seed, rate) reproduces a trial
// bit-for-bit.  Tables are built once per process and shared across trials
// via Shared() (a sweep revisits the same handful of rates thousands of
// times).
#pragma once

#include <array>
#include <cstdint>

#include "faulty/alias_table.h"
#include "faulty/lfsr.h"

namespace robustify::faulty {

class GeometricGapSampler {
 public:
  // Gaps too large to represent: the injector treats this as "no fault in
  // any realizable run" and its mod-2^64 flop accounting stays exact.
  static constexpr std::uint64_t kNever = ~0ull;

  // Slots 0..62 of the alias table are literal gap values; slot 63 is the
  // memoryless tail (gap >= 63).
  static constexpr int kTableGaps = 63;
  static constexpr int kTableSlots = 64;

  // Below this rate the mean gap is >= 64 ops and the inverse-CDF form wins;
  // at or above it the tail probability (1 - r)^63 is <= 0.38 and the alias
  // table terminates in ~1.6 draws.
  static constexpr double kTableMinRate = 1.0 / 64.0;

  // `rate` must be in (0, 1); rates 0 and 1 never sample a gap and are
  // handled by the injector itself.
  explicit GeometricGapSampler(double rate);

  double rate() const { return rate_; }
  bool uses_table() const { return table_; }

  // One gap draw from `rng`; kNever when the sampled gap exceeds 2^64.
  // Draw counts are the caller's to keep (the injector tallies its own and
  // folds them into telemetry once per scope, off the per-fault path).
  std::uint64_t Sample(Lfsr& rng) const {
    if (!table_) return SampleInverseCdf(rng);
    std::uint64_t base = 0;
    for (;;) {
      const int outcome = TableOutcome(rng.next());
      if (outcome < kTableGaps) return base + static_cast<std::uint64_t>(outcome);
      base += kTableGaps;  // tail: gap >= 63; memorylessness restarts the draw
    }
  }

  // The alias probe for one 64-bit draw — same split as BitDistribution:
  // the top 6 bits pick the slot, the 58-bit residual decides between the
  // slot and its alias (branch-free, see AliasPick).  Outcome kTableGaps is
  // the memoryless tail.
  int TableOutcome(std::uint64_t u) const {
    const int slot = static_cast<int>(u >> 58);
    return AliasPick(u & ((1ull << 58) - 1), stay_threshold(slot), slot, alias(slot));
  }

  // Fused-draw form (ROBUSTIFY_RNG=fused): the caller hands the 32 bits it
  // carved out of a shared LFSR word; `rng` is touched only by the alias
  // table's memoryless tail (probability (1-r)^63 per level), never in the
  // common case.  The 26-bit residual compares against the top 26 bits of
  // the 58-bit stay thresholds, quantizing slot probabilities at 2^-26 —
  // far below what the statistical gates resolve (test_statistical.cpp
  // holds this stream to the same chi-square/KS criteria as Sample()).
  std::uint64_t SampleFused(std::uint32_t u, Lfsr& rng) const {
    if (!table_) return SampleInverseCdf32(u);
    const int slot = static_cast<int>(u >> 26);
    const int outcome = AliasPick(u & ((1u << 26) - 1), stay_threshold(slot) >> 32,
                                  slot, alias(slot));
    if (outcome < kTableGaps) return static_cast<std::uint64_t>(outcome);
    // Tail (gap >= 63): memorylessness restarts the draw at full width.
    return kTableGaps + Sample(rng);
  }

  // Raw alias-table slots (the select-equivalence tests probe them).
  std::uint64_t stay_threshold(int slot) const {
    return stay_threshold_[static_cast<std::size_t>(slot)];
  }
  int alias(int slot) const { return alias_[static_cast<std::size_t>(slot)]; }

  // Process-wide cache keyed by the rate's bit pattern: built on first use,
  // immutable and lock-free to read afterwards (the injector constructor
  // runs once per trial, so the lookup lock is off the per-op path).
  static const GeometricGapSampler& Shared(double rate);

 private:
  std::uint64_t SampleInverseCdf(Lfsr& rng) const;
  std::uint64_t SampleInverseCdf32(std::uint32_t u) const;
  void BuildAliasTable();

  double rate_ = 0.0;
  double inv_log1m_rate_ = 0.0;  // 1 / ln(1 - rate)
  bool table_ = false;
  // Walker alias table over {gap 0..62, tail}: slot i is returned when the
  // 58-bit residual draw is below stay_threshold_[i], else alias_[i].
  std::array<std::uint64_t, kTableSlots> stay_threshold_{};
  std::array<std::uint8_t, kTableSlots> alias_{};
};

}  // namespace robustify::faulty
