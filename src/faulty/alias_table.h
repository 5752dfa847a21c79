// Shared Walker alias-table construction (Vose's stable variant).
//
// Used by BitDistribution (64 bit positions) and GeometricGapSampler
// (63 gap values + tail slot).  Both samplers split one 64-bit draw into a
// slot index (top bits) and a 58-bit residual compared against the slot's
// stay threshold, so the construction scales thresholds by 2^58.
#pragma once

#include <cstdint>
#include <vector>

namespace robustify::faulty {

// Fills stay_threshold/alias (each `n` slots, n <= 256) from the normalized
// probabilities `probs` (must sum to ~1).  Slot i resolves to itself when
// the 58-bit residual draw is below stay_threshold[i], else to alias[i].
inline void BuildWalkerAliasTable(const double* probs, int n,
                                  std::uint64_t* stay_threshold,
                                  std::uint8_t* alias) {
  // scaled[i] = p_i * n; slots below 1 are topped up by donors above 1, so
  // every slot splits between at most two outcomes: itself (with
  // probability scaled[i] after top-up) and alias[i].
  constexpr double kSlotScale = static_cast<double>(1ull << 58);
  std::vector<double> scaled(static_cast<std::size_t>(n));
  std::vector<int> small, large;
  for (int i = 0; i < n; ++i) {
    scaled[static_cast<std::size_t>(i)] = probs[i] * n;
    (scaled[static_cast<std::size_t>(i)] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const int s = small.back();
    small.pop_back();
    const int l = large.back();
    large.pop_back();
    stay_threshold[s] =
        static_cast<std::uint64_t>(scaled[static_cast<std::size_t>(s)] * kSlotScale);
    alias[s] = static_cast<std::uint8_t>(l);
    scaled[static_cast<std::size_t>(l)] -= 1.0 - scaled[static_cast<std::size_t>(s)];
    (scaled[static_cast<std::size_t>(l)] < 1.0 ? small : large).push_back(l);
  }
  // Leftovers are exactly 1 up to rounding: the slot always returns itself.
  for (const int i : large) {
    stay_threshold[i] = ~0ull;
    alias[i] = static_cast<std::uint8_t>(i);
  }
  for (const int i : small) {
    stay_threshold[i] = ~0ull;
    alias[i] = static_cast<std::uint8_t>(i);
  }
}

// Resolves one alias-table probe: `slot` when the residual draw is below the
// slot's stay threshold, else `alias`.  The outcome is the sampled value
// itself, so a branch on it is a coin flip the predictor cannot learn; the
// mask select (all-ones or zero from the comparison) keeps the probe
// branch-free and returns exactly what the ternary form would.
inline int AliasPick(std::uint64_t residual, std::uint64_t threshold, int slot,
                     int alias) {
  const int stay = -static_cast<int>(residual < threshold);
  return (slot & stay) | (alias & ~stay);
}

}  // namespace robustify::faulty
