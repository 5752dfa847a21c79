// 64-bit Galois LFSR used as the fault injector's random source.
//
// The paper's FPGA emulator drives its bit-error injector from an on-chip
// LFSR rather than a software PRNG; this mirrors that: a maximal-length
// Galois LFSR over GF(2) with the x^64 + x^63 + x^61 + x^60 + 1 feedback
// polynomial.  The sequence is fully determined by the seed, which is what
// makes every trial in the harness reproducible.
#pragma once

#include <cstdint>

namespace robustify::faulty {

class Lfsr {
 public:
  // Taps for a maximal-length 64-bit Galois LFSR.
  static constexpr std::uint64_t kTaps = 0xD800000000000000ull;

  explicit Lfsr(std::uint64_t seed = 1) : state_(seed ? seed : 0x9E3779B97F4A7C15ull) {}

  // Advances one full word (64 shifts folded into the Galois update applied
  // word-at-a-time): one step of the classic bitwise form.
  std::uint64_t next() {
    // Galois form: shift right, XOR the tap mask when the shifted-out bit
    // was set.  The mask form -(lsb) & kTaps keeps the step branch-free (a
    // conditional XOR compiles to a 50/50 branch the predictor cannot learn).
    state_ = (state_ >> 1) ^ (-(state_ & 1u) & kTaps);
    // One raw Galois step only decorrelates one bit; mix the state through a
    // splitmix finalizer so consecutive outputs look word-random while the
    // underlying LFSR sequence (and hence the period) is unchanged.
    std::uint64_t z = state_ + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  // Raw register contents (exposed for the deterministic-sequence tests).
  std::uint64_t state() const { return state_; }

  // Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// Seed for an auxiliary deterministic stream derived from a base seed and a
// stream ordinal — the key the tiled engine uses to give every tile task its
// own injector stream (ordinal = task id).  A splitmix64 finalizer over the
// golden-ratio-stepped ordinal decorrelates neighboring ordinals far beyond
// what the LFSR's own seeding mixes, and never returns 0 for ordinal 0
// unless seed + step collides — Lfsr treats 0 as "use default" anyway.
inline std::uint64_t DeriveStreamSeed(std::uint64_t seed, std::uint64_t ordinal) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (ordinal + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace robustify::faulty
