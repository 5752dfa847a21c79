// Bit-position distribution of injected faults.
//
// The paper calibrates its injector against circuit-level simulation of an
// overscaled FPU: errors are not uniform over the 64-bit word but bimodal —
// most upsets land either in the high-order mantissa bits (long carry
// chains) or in the low-order mantissa bits (short paths that fail first),
// with a valley in between and only rare corruption of the exponent and
// sign.  BitDistribution captures that histogram and supports sampling a
// bit index from it with an Lfsr.
//
// Sampling uses a Walker alias table: one RNG draw and one table probe per
// fault, O(1) regardless of the histogram shape.  (The previous linear CDF
// scan was the single hottest function of the whole fig-6 sweep suite.)
#pragma once

#include <array>
#include <cstdint>

#include "faulty/alias_table.h"
#include "faulty/lfsr.h"

namespace robustify::faulty {

inline constexpr int kWordBits = 64;

// binary64 layout reference points used by the models below.
inline constexpr int kMantissaBits = 52;   // bits [0, 51]
inline constexpr int kExponentLow = 52;    // bits [52, 62]
inline constexpr int kSignBit = 63;

enum class BitModel {
  kBimodal,  // paper-calibrated: low-bit and high-mantissa modes
  kUniform,  // every bit equally likely (hostile: frequent exponent hits)
  kMsbOnly,  // top 12 bits only (exponent + sign; worst case)
  kLsbOnly,  // bottom 12 bits only (benign noise)
};

class BitDistribution {
 public:
  // Build from an explicit (unnormalized) 64-entry weight table.
  explicit BitDistribution(const std::array<double, kWordBits>& weights);

  // Build one of the named models.
  explicit BitDistribution(BitModel model);

  // Probability that an injected fault flips bit `bit` (normalized).
  double probability(int bit) const { return weights_[static_cast<std::size_t>(bit)]; }

  // Sample a bit index from the distribution: one draw, one alias probe.
  int sample(Lfsr& rng) const { return Pick(rng.next()); }

  // The alias probe for one 64-bit draw: the top 6 bits pick the slot, the
  // remaining 58 decide between the slot and its alias (branch-free, see
  // AliasPick).
  int Pick(std::uint64_t u) const {
    const int slot = static_cast<int>(u >> 58);
    return AliasPick(u & ((1ull << 58) - 1), stay_threshold(slot), slot, alias(slot));
  }

  // Fused-draw variant (ROBUSTIFY_RNG=fused): samples from the 32 bits the
  // injector carved out of a word shared with the gap draw.  The 26-bit
  // residual compares against the top 26 bits of the 58-bit thresholds —
  // probabilities quantized at 2^-26, held to the same chi-square gates as
  // sample() by tests/test_statistical.cpp.
  int sample_fused(std::uint32_t u) const {
    const int slot = static_cast<int>(u >> 26);
    return AliasPick(u & ((1u << 26) - 1), stay_threshold(slot) >> 32, slot,
                     alias(slot));
  }

  // Raw alias-table slots (the select-equivalence tests probe them).
  std::uint64_t stay_threshold(int slot) const {
    return stay_threshold_[static_cast<std::size_t>(slot)];
  }
  int alias(int slot) const { return alias_[static_cast<std::size_t>(slot)]; }

 private:
  void Normalize();
  void BuildAliasTable();

  std::array<double, kWordBits> weights_{};
  // Walker alias table: slot i is returned when the 58-bit residual draw is
  // below stay_threshold_[i], otherwise alias_[i] is returned.
  std::array<std::uint64_t, kWordBits> stay_threshold_{};
  std::array<std::uint8_t, kWordBits> alias_{};
};

// The four built-in models, constructed once per process and shared by every
// injector (an injector is built per trial; rebuilding and copying the
// tables there was measurable across a million-trial sweep).
const BitDistribution& SharedBitDistribution(BitModel model);

}  // namespace robustify::faulty
