// Regression tests for the sticky-window hand-off (core::TrialFaultScope +
// FaultInjector::ExportWindow/AdoptWindow).
//
// The bug being pinned: a stuck-at / intermittent window used to die with
// its injector scope, so a bit that the model declared stuck for thousands
// of ops silently healed at every WithFaultyFpu boundary — kernels that
// split a trial into several scoped calls saw far fewer sticky faults than
// the model specified.  Inside a TrialFaultScope the live window must now
// survive the scope exit and keep forcing the same bit in the next call.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "core/fault_env.h"
#include "faulty/fault_injector.h"
#include "faulty/real.h"
#include "linalg/scalar.h"

namespace {

using namespace robustify;

// One faulty FP op: 1.25 + 2.5.  Read out reliably.
double FaultyAdd() {
  const faulty::Real r = faulty::Real(1.25) + faulty::Real(2.5);
  return linalg::AsDouble(r);
}

core::FaultEnvironment StuckOpener(std::uint64_t seed) {
  core::FaultEnvironment env;
  env.fault_rate = 1.0;  // the first routed op opens a stuck window
  env.seed = seed;
  env.model.temporal = faulty::Temporal::kStuckAt;
  env.model.stuck_mean_ops = 1e9;  // the window outlives both scopes
  return env;
}

// Runs once per injector strategy, each pinned (with the split RNG layout)
// so the test holds on every ROBUSTIFY_INJECTOR / ROBUSTIFY_RNG leg.  The
// strategies draw the opener's stuck bit from different LFSR words, so each
// gets a seed whose stuck bit does not already hold its stuck value in
// 1.25 + 2.5: skip-ahead seed 1 forces 3.25, per-op seed 2 forces 2.75.
TEST(WindowCarry, StuckBitSurvivesConsecutiveScopesOfOneTrial) {
  using Strategy = faulty::FaultInjector::Strategy;
  const double clean = 1.25 + 2.5;
  for (const auto& [strategy, seed] :
       {std::pair<Strategy, std::uint64_t>{Strategy::kSkipAhead, 1},
        std::pair<Strategy, std::uint64_t>{Strategy::kPerOp, 2}}) {
    SCOPED_TRACE(strategy == Strategy::kPerOp ? "per-op" : "skip-ahead");
    core::FaultEnvironment opener = StuckOpener(seed);
    opener.strategy = strategy;
    opener.rng = faulty::RngMode::kSplit;
    core::FaultEnvironment follower = opener;
    follower.fault_rate = 0.0;  // cannot open (or re-arm) a window on its own

    core::TrialFaultScope trial;
    faulty::ContextStats first_stats;
    const double first = core::WithFaultyFpu(opener, FaultyAdd, &first_stats);
    ASSERT_GE(first_stats.windows_opened, 1u);
    ASSERT_EQ(first_stats.faults_injected, 1u);

    faulty::ContextStats second_stats;
    const double second = core::WithFaultyFpu(follower, FaultyAdd, &second_stats);
    // The adopted window is not a new window, but its forcing still fires.
    EXPECT_EQ(second_stats.windows_opened, 0u);
    EXPECT_EQ(second_stats.faults_injected, 1u);
    EXPECT_EQ(second_stats.faulty_flops, 1u);
    // The same bit is forced to the same value in both kernel calls: the
    // two results are bitwise equal, and visibly corrupted.
    EXPECT_EQ(first, second);
    EXPECT_NE(first, clean);
  }
}

TEST(WindowCarry, NoCarryOutsideATrialFaultScope) {
  const double clean = 1.25 + 2.5;
  core::FaultEnvironment opener = StuckOpener(1);
  core::FaultEnvironment follower = opener;
  follower.fault_rate = 0.0;

  faulty::ContextStats first_stats;
  core::WithFaultyFpu(opener, FaultyAdd, &first_stats);
  ASSERT_GE(first_stats.windows_opened, 1u);

  faulty::ContextStats second_stats;
  const double second = core::WithFaultyFpu(follower, FaultyAdd, &second_stats);
  EXPECT_EQ(second_stats.faults_injected, 0u);
  EXPECT_EQ(second, clean);
}

TEST(WindowCarry, ExpiredWindowIsNotCarried) {
  core::FaultEnvironment opener = StuckOpener(7);
  opener.model.stuck_mean_ops = 1.0;  // degenerate: every window lasts 1 op
  core::FaultEnvironment follower = opener;
  follower.fault_rate = 0.0;

  core::TrialFaultScope trial;
  core::WithFaultyFpu(opener, FaultyAdd);  // window opens and expires in-scope

  faulty::ContextStats second_stats;
  const double second = core::WithFaultyFpu(follower, FaultyAdd, &second_stats);
  EXPECT_EQ(second_stats.faults_injected, 0u);
  EXPECT_EQ(second, 1.25 + 2.5);
}

TEST(WindowCarry, DefaultTransientModelIsUntouched) {
  core::FaultEnvironment env;
  env.fault_rate = 0.5;
  env.seed = 11;
  core::TrialFaultScope trial;
  faulty::ContextStats a, b;
  const double first = core::WithFaultyFpu(env, FaultyAdd, &a);
  const double second = core::WithFaultyFpu(env, FaultyAdd, &b);
  // Identical env + seed: both scopes replay the same stream whether or not
  // a session is active — the carry hooks are no-ops under the default model.
  EXPECT_EQ(first, second);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.windows_opened, 0u);
}

TEST(WindowCarry, CarriedWindowIsNotAdoptedByADifferentTemporalModel) {
  core::FaultEnvironment opener = StuckOpener(13);
  core::FaultEnvironment follower;
  follower.fault_rate = 0.0;
  follower.seed = 13;
  follower.model.temporal = faulty::Temporal::kIntermittent;  // mismatched

  core::TrialFaultScope trial;
  core::WithFaultyFpu(opener, FaultyAdd);

  faulty::ContextStats second_stats;
  const double second = core::WithFaultyFpu(follower, FaultyAdd, &second_stats);
  EXPECT_EQ(second_stats.faults_injected, 0u);
  EXPECT_EQ(second, 1.25 + 2.5);
}

}  // namespace
