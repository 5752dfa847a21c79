// Tests for the faulty subsystem: LFSR determinism, bit-distribution region
// masses, injector fault-rate accuracy, and scope save/restore.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <ios>
#include <stdexcept>
#include <string>

#include "core/fault_env.h"
#include "faulty/bit_distribution.h"
#include "faulty/fault_injector.h"
#include "faulty/gap_sampler.h"
#include "faulty/lfsr.h"
#include "faulty/real.h"

namespace {

using robustify::faulty::BitDistribution;
using robustify::faulty::BitModel;
using robustify::faulty::ContextStats;
using robustify::faulty::FaultInjector;
using robustify::faulty::kWordBits;
using robustify::faulty::Lfsr;
using robustify::faulty::Real;
using robustify::faulty::SharedBitDistribution;

using Strategy = FaultInjector::Strategy;

TEST(Lfsr, DeterministicSequence) {
  Lfsr a(42);
  Lfsr b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Lfsr, DifferentSeedsDiverge) {
  Lfsr a(42);
  Lfsr b(43);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() != b.next()) ++differing;
  }
  EXPECT_GT(differing, 32);
}

TEST(Lfsr, ZeroSeedIsRemapped) {
  Lfsr z(0);
  EXPECT_NE(z.state(), 0u);
  EXPECT_NE(z.next(), 0u);
}

TEST(Lfsr, UniformInUnitInterval) {
  Lfsr rng(7);
  double sum = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

// The historical Galois step with the tap XOR as a branch — kept here as
// the oracle for the branch-free mask form Lfsr::next() now uses.
class BranchyLfsr {
 public:
  explicit BranchyLfsr(std::uint64_t seed) : state_(seed ? seed : 0x9E3779B97F4A7C15ull) {}
  std::uint64_t next() {
    const std::uint64_t lsb = state_ & 1u;
    state_ >>= 1;
    if (lsb) state_ ^= Lfsr::kTaps;
    std::uint64_t z = state_ + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t state() const { return state_; }

 private:
  std::uint64_t state_;
};

TEST(Lfsr, BranchFreeStepMatchesBranchyOracle) {
  // Seed 0 exercises the default-seed remap; the others a mix of set and
  // clear low bits.
  for (const std::uint64_t seed :
       {0ull, 1ull, 42ull ^ FaultInjector::kSeedSalt, 0xFFFFFFFFFFFFFFFFull}) {
    Lfsr fast(seed);
    BranchyLfsr oracle(seed);
    for (int i = 0; i < 1000000; ++i) {
      const std::uint64_t want = oracle.next();
      const std::uint64_t got = fast.next();
      if (got != want) {
        ADD_FAILURE() << "seed " << seed << " diverges at word " << i;
        break;
      }
    }
    EXPECT_EQ(fast.state(), oracle.state());
  }
}

// The ternary select the alias probes used to compile to a branch on.
int TernaryPick(std::uint64_t residual, std::uint64_t threshold, int slot, int alias) {
  return residual < threshold ? slot : alias;
}

// Probes every slot of an alias table at residuals threshold-1, threshold
// and threshold+1 (those inside the `residual_bits`-wide field) and checks
// the branch-free `pick(word)` against the ternary select.  The fused
// layout compares against the thresholds shifted down by `threshold_shift`.
template <class Table, class Pick>
void ExpectPickMatchesTernary(const Table& table, int slots, int residual_bits,
                              int threshold_shift, Pick pick) {
  const std::uint64_t field = 1ull << residual_bits;
  int probes = 0;
  for (int slot = 0; slot < slots; ++slot) {
    const std::uint64_t threshold = table.stay_threshold(slot) >> threshold_shift;
    const int alias = table.alias(slot);
    for (const int delta : {-1, 0, 1}) {
      if (delta < 0 && threshold == 0) continue;
      const std::uint64_t residual = threshold + static_cast<std::uint64_t>(delta);
      if (residual >= field) continue;
      const std::uint64_t word = (static_cast<std::uint64_t>(slot) << residual_bits) | residual;
      EXPECT_EQ(pick(word), TernaryPick(residual, threshold, slot, alias))
          << "slot " << slot << ", residual threshold" << std::showpos << delta;
      ++probes;
    }
  }
  // Slots that always stay (threshold past the field) have nothing to
  // probe; every table here splits most of its slots.
  EXPECT_GT(probes, slots);
}

TEST(AliasSelect, BitDistributionMaskSelectMatchesTernary) {
  const BitDistribution& dist = SharedBitDistribution(BitModel::kBimodal);
  ExpectPickMatchesTernary(dist, kWordBits, 58, 0,
                           [&](std::uint64_t u) { return dist.Pick(u); });
  ExpectPickMatchesTernary(dist, kWordBits, 26, 32, [&](std::uint64_t u) {
    return dist.sample_fused(static_cast<std::uint32_t>(u));
  });
}

TEST(AliasSelect, GapTableMaskSelectMatchesTernary) {
  using robustify::faulty::GeometricGapSampler;
  for (const double rate : {1.0 / 64.0, 0.05, 0.2}) {
    SCOPED_TRACE(rate);
    const GeometricGapSampler& gaps = GeometricGapSampler::Shared(rate);
    ASSERT_TRUE(gaps.uses_table());
    ExpectPickMatchesTernary(gaps, GeometricGapSampler::kTableSlots, 58, 0,
                             [&](std::uint64_t u) { return gaps.TableOutcome(u); });
  }
}

double RegionMass(const BitDistribution& dist, int lo, int hi) {
  double m = 0.0;
  for (int b = lo; b <= hi; ++b) m += dist.probability(b);
  return m;
}

TEST(BitDistribution, BimodalRegionMasses) {
  const BitDistribution dist(BitModel::kBimodal);
  double total = 0.0;
  for (int b = 0; b < kWordBits; ++b) total += dist.probability(b);
  EXPECT_NEAR(total, 1.0, 1e-12);
  // Bimodal: heavy low and high-mantissa modes, a valley in the middle.
  EXPECT_GT(RegionMass(dist, 0, 11), 0.30);
  EXPECT_GT(RegionMass(dist, 40, 51), 0.30);
  EXPECT_LT(RegionMass(dist, 12, 39), 0.10);
  // Exponent+sign corruption possible but rare.
  const double high = RegionMass(dist, 52, 63);
  EXPECT_GT(high, 0.0);
  EXPECT_LT(high, 0.10);
}

TEST(BitDistribution, LsbOnlyAndMsbOnly) {
  const BitDistribution lsb(BitModel::kLsbOnly);
  EXPECT_NEAR(RegionMass(lsb, 0, 11), 1.0, 1e-12);
  const BitDistribution msb(BitModel::kMsbOnly);
  EXPECT_NEAR(RegionMass(msb, 52, 63), 1.0, 1e-12);
}

TEST(BitDistribution, SampleMatchesProbabilities) {
  const BitDistribution dist(BitModel::kBimodal);
  Lfsr rng(123);
  std::array<double, kWordBits> histogram{};
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    const int b = dist.sample(rng);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, kWordBits);
    histogram[static_cast<std::size_t>(b)] += 1.0 / kSamples;
  }
  for (int b = 0; b < kWordBits; ++b) {
    EXPECT_NEAR(histogram[static_cast<std::size_t>(b)], dist.probability(b), 0.01);
  }
}

TEST(FaultInjector, RateZeroCountsButNeverCorrupts) {
  for (const Strategy strategy : {Strategy::kSkipAhead, Strategy::kPerOp}) {
    FaultInjector injector(0.0, SharedBitDistribution(BitModel::kBimodal), 5,
                           strategy);
    for (int i = 0; i < 10000; ++i) {
      EXPECT_EQ(injector.Execute(1.25), 1.25);
    }
    EXPECT_EQ(injector.stats().faulty_flops, 10000u);
    EXPECT_EQ(injector.stats().faults_injected, 0u);
  }
}

TEST(FaultInjector, RateOneCorruptsEveryOp) {
  for (const Strategy strategy : {Strategy::kSkipAhead, Strategy::kPerOp}) {
    FaultInjector injector(1.0, SharedBitDistribution(BitModel::kBimodal), 5,
                           strategy);
    for (int i = 0; i < 10000; ++i) {
      EXPECT_NE(injector.Execute(1.25), 1.25);  // a bit flip never round-trips
    }
    EXPECT_EQ(injector.stats().faulty_flops, 10000u);
    EXPECT_EQ(injector.stats().faults_injected, 10000u);
  }
}

TEST(FaultInjector, FaultRateWithinStatisticalTolerance) {
  constexpr double kRate = 0.1;
  constexpr int kOps = 1000000;
  FaultInjector injector(kRate, SharedBitDistribution(BitModel::kBimodal), 99);
  for (int i = 0; i < kOps; ++i) injector.Execute(3.0);
  const double observed =
      static_cast<double>(injector.stats().faults_injected) / kOps;
  EXPECT_NEAR(observed, kRate, 0.003);  // ~10 sigma
}

// The geometric skip-ahead and per-op Bernoulli strategies must agree in
// law: at every rate both fault counts sit inside the binomial confidence
// band around kOps * rate.
TEST(FaultInjector, SkipAheadStatisticallyEquivalentToPerOp) {
  constexpr int kOps = 2000000;
  for (const double rate : {1e-3, 1e-2, 0.05}) {
    FaultInjector skip(rate, SharedBitDistribution(BitModel::kBimodal), 1234,
                       Strategy::kSkipAhead);
    FaultInjector perop(rate, SharedBitDistribution(BitModel::kBimodal), 4321,
                        Strategy::kPerOp);
    for (int i = 0; i < kOps; ++i) {
      skip.Execute(3.0);
      perop.Execute(3.0);
    }
    EXPECT_EQ(skip.stats().faulty_flops, static_cast<std::uint64_t>(kOps));
    EXPECT_EQ(perop.stats().faulty_flops, static_cast<std::uint64_t>(kOps));
    const double expected = kOps * rate;
    const double tolerance = 6.0 * std::sqrt(kOps * rate * (1.0 - rate));
    EXPECT_NEAR(static_cast<double>(skip.stats().faults_injected), expected,
                tolerance)
        << "skip-ahead at rate " << rate;
    EXPECT_NEAR(static_cast<double>(perop.stats().faults_injected), expected,
                tolerance)
        << "per-op at rate " << rate;
  }
}

// Comparisons share the same countdown stream and the same statistics.
TEST(FaultInjector, ComparisonFaultRateWithinTolerance) {
  constexpr double kRate = 0.01;
  constexpr int kOps = 1000000;
  FaultInjector injector(kRate, SharedBitDistribution(BitModel::kBimodal), 7,
                         Strategy::kSkipAhead);
  int inverted = 0;
  for (int i = 0; i < kOps; ++i) {
    if (!injector.ExecuteComparison(true)) ++inverted;
  }
  EXPECT_EQ(injector.stats().faulty_flops, static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(injector.stats().faults_injected, static_cast<std::uint64_t>(inverted));
  EXPECT_NEAR(static_cast<double>(inverted), kOps * kRate,
              6.0 * std::sqrt(kOps * kRate * (1.0 - kRate)));
}

TEST(FaultInjector, DeterministicForFixedSeedAndStrategy) {
  for (const Strategy strategy : {Strategy::kSkipAhead, Strategy::kPerOp}) {
    FaultInjector a(0.01, SharedBitDistribution(BitModel::kBimodal), 99, strategy);
    FaultInjector b(0.01, SharedBitDistribution(BitModel::kBimodal), 99, strategy);
    for (int i = 0; i < 100000; ++i) {
      const double clean = 1.0 + i * 0.5;
      ASSERT_EQ(a.Execute(clean), b.Execute(clean));
    }
    EXPECT_EQ(a.stats().faults_injected, b.stats().faults_injected);
    EXPECT_EQ(a.stats().faulty_flops, b.stats().faulty_flops);
  }
}

TEST(FaultInjector, AutoStrategyIsSkipAheadAtEveryRate) {
  if (std::getenv("ROBUSTIFY_INJECTOR") != nullptr &&
      std::string(std::getenv("ROBUSTIFY_INJECTOR")) == "perop") {
    GTEST_SKIP() << "ROBUSTIFY_INJECTOR=perop overrides kAuto";
  }
  // The gap-table sampler removed the high-rate per-op fallback: one
  // strategy covers the whole range, per-op is oracle-only.
  for (const double rate : {1e-7, 0.001, 0.1, 0.5}) {
    const FaultInjector inj(rate, SharedBitDistribution(BitModel::kBimodal), 1);
    EXPECT_EQ(inj.strategy(), Strategy::kSkipAhead) << "rate " << rate;
  }
}

TEST(FaultInjector, CorruptionFlipsExactlyOneBit) {
  FaultInjector injector(1.0, SharedBitDistribution(BitModel::kBimodal), 17);
  for (int i = 0; i < 1000; ++i) {
    const double clean = 1.0 + i * 0.125;
    const double corrupted = injector.Execute(clean);
    std::uint64_t a, b;
    std::memcpy(&a, &clean, sizeof(a));
    std::memcpy(&b, &corrupted, sizeof(b));
    EXPECT_EQ(__builtin_popcountll(a ^ b), 1);
  }
}

TEST(WithFaultyFpu, RestoresCleanStateOnExit) {
  using robustify::core::FaultEnvironment;
  using robustify::core::WithFaultyFpu;
  EXPECT_FALSE(robustify::faulty::InjectorActive());
  FaultEnvironment env;
  env.fault_rate = 0.5;
  env.seed = 11;
  ContextStats stats;
  const double result = WithFaultyFpu(
      env,
      [] {
        EXPECT_TRUE(robustify::faulty::InjectorActive());
        Real a(1.5), b(2.5);
        return (a + b).value();
      },
      &stats);
  (void)result;
  EXPECT_FALSE(robustify::faulty::InjectorActive());
  EXPECT_EQ(stats.faulty_flops, 1u);
  // Outside the scope Real arithmetic is clean and uncounted.
  Real a(1.5), b(2.5);
  EXPECT_EQ((a + b).value(), 4.0);
}

TEST(WithFaultyFpu, RestoresOnException) {
  using robustify::core::FaultEnvironment;
  using robustify::core::WithFaultyFpu;
  FaultEnvironment env;
  env.fault_rate = 0.5;
  try {
    WithFaultyFpu(env, []() -> int { throw std::runtime_error("boom"); });
    FAIL() << "expected throw";
  } catch (const std::runtime_error&) {
  }
  EXPECT_FALSE(robustify::faulty::InjectorActive());
}

TEST(WithFaultyFpu, RateZeroArithmeticIsExact) {
  using robustify::core::FaultEnvironment;
  using robustify::core::WithFaultyFpu;
  FaultEnvironment env;  // rate 0
  ContextStats stats;
  const double result = WithFaultyFpu(
      env,
      [] {
        Real acc(0);
        for (int i = 1; i <= 100; ++i) acc += Real(i);
        return acc.value();
      },
      &stats);
  EXPECT_EQ(result, 5050.0);
  EXPECT_EQ(stats.faulty_flops, 100u);
  EXPECT_EQ(stats.faults_injected, 0u);
}

TEST(FaultyReal, ComparisonsCostAFlop) {
  using robustify::core::FaultEnvironment;
  using robustify::core::WithFaultyFpu;
  FaultEnvironment env;
  ContextStats stats;
  WithFaultyFpu(
      env,
      [] {
        Real a(1.0), b(2.0);
        return a < b;
      },
      &stats);
  EXPECT_EQ(stats.faulty_flops, 1u);
}

}  // namespace
