// Semantics of the non-default fault models (faulty/fault_model.h) and the
// guarded trial executor (core/guard.h): stuck-at forcing windows, burst
// adjacency, intermittent high-rate windows, op-class thinning, engine and
// thread-count equivalence under sticky state, guard verdicts, and the
// campaign plumbing (spec round-trip, registry completion under every
// model).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "apps/configs.h"
#include "apps/sort_app.h"
#include "campaign/runner.h"
#include "campaign/scenarios.h"
#include "campaign/spec.h"
#include "core/fault_env.h"
#include "core/guard.h"
#include "faulty/fault_injector.h"
#include "faulty/fault_model.h"
#include "harness/trial.h"
#include "linalg/vector.h"
#include "tests/fixed_grid.h"

namespace {

using namespace robustify;
using faulty::FaultInjector;
using faulty::FaultModel;
using faulty::Temporal;
using Strategy = FaultInjector::Strategy;

FaultInjector MakeInjector(const FaultModel& model, double rate,
                           std::uint64_t seed,
                           Strategy strategy = Strategy::kSkipAhead) {
  return FaultInjector(rate, faulty::SharedBitDistribution(faulty::BitModel::kBimodal),
                       seed, model, strategy);
}

std::uint64_t WordOf(double v) {
  std::uint64_t w;
  std::memcpy(&w, &v, sizeof(w));
  return w;
}

// ---- stuck-at ----------------------------------------------------------------

TEST(StuckAtModel, ForcesOneBitAndPinsCleanRunWhileLive) {
  FaultModel model;
  model.temporal = Temporal::kStuckAt;
  model.stuck_mean_ops = 32.0;
  for (const Strategy strategy : {Strategy::kSkipAhead, Strategy::kPerOp}) {
    FaultInjector injector = MakeInjector(model, 5e-3, 99, strategy);
    // clean = 0.0: a stuck-at-1 window sets exactly its bit on every forced
    // op (visible); stuck-at-0 windows are invisible on this input.
    const double clean = 0.0;
    int corruptions = 0;
    int sticky_repeats = 0;  // corrupting op forcing the same bit as the last
    std::uint64_t run_diff = 0;
    for (int i = 0; i < 200000; ++i) {
      const std::uint64_t clean_run = injector.CleanRun();
      const double out = injector.Execute(clean);
      const std::uint64_t diff = WordOf(out) ^ WordOf(clean);
      if (diff == 0) {
        run_diff = 0;
        continue;
      }
      ++corruptions;
      // Any corrupting op must have been reachable by the schedule or a
      // live window — either way the clean-run promise was 0.
      EXPECT_EQ(clean_run, 0u) << "op " << i;
      // Forced ops set exactly one bit.
      EXPECT_EQ(__builtin_popcountll(diff), 1) << "op " << i;
      if (diff == run_diff) ++sticky_repeats;
      run_diff = diff;
    }
    const faulty::ContextStats stats = injector.stats();
    EXPECT_EQ(stats.faulty_flops, 200000u);
    EXPECT_GT(stats.windows_opened, 0u);
    EXPECT_GT(corruptions, 0);
    // Stickiness: most corrupting ops repeat the previous op's forced bit
    // (a nested scheduled fault may re-arm a new bit mid-run, so the runs
    // are not perfectly uniform — but a transient model would almost never
    // repeat the exact bit back to back).
    EXPECT_GT(sticky_repeats, corruptions / 2);
    // Visible windows force the bit across many ops: far more corruptions
    // than scheduled window-openers.
    EXPECT_GT(stats.faults_injected, stats.windows_opened);
    EXPECT_EQ(stats.faults_injected, stats.faults_arith);
    EXPECT_EQ(stats.faults_compare, 0u);
    EXPECT_EQ(stats.faults_memory, 0u);
  }
}

TEST(StuckAtModel, ComparisonsPassThroughButOpenWindows) {
  FaultModel model;
  model.temporal = Temporal::kStuckAt;
  model.stuck_mean_ops = 16.0;
  FaultInjector injector = MakeInjector(model, 0.01, 7);
  for (int i = 0; i < 100000; ++i) {
    const bool clean = (i & 1) != 0;
    // Comparison predicates have no result word to force: a scheduled stuck
    // fault arms the window without inverting anything.
    EXPECT_EQ(injector.ExecuteComparison(clean), clean) << "op " << i;
  }
  const faulty::ContextStats stats = injector.stats();
  EXPECT_EQ(stats.faulty_flops, 100000u);
  EXPECT_GT(stats.windows_opened, 0u);
  EXPECT_EQ(stats.faults_injected, 0u);
}

// ---- burst -------------------------------------------------------------------

TEST(BurstModel, FlipsContiguousBitsWithinConfiguredWidth) {
  FaultModel model;
  model.temporal = Temporal::kBurst;
  model.burst_width_max = 6;
  for (const Strategy strategy : {Strategy::kSkipAhead, Strategy::kPerOp}) {
    FaultInjector injector = MakeInjector(model, 0.01, 123, strategy);
    const double clean = 1.5;
    int bursts = 0;
    for (int i = 0; i < 100000; ++i) {
      const double out = injector.Execute(clean);
      const std::uint64_t diff = WordOf(out) ^ WordOf(clean);
      if (diff == 0) continue;
      ++bursts;
      const int base = __builtin_ctzll(diff);
      const int width = __builtin_popcountll(diff);
      EXPECT_GE(width, 1);
      EXPECT_LE(width, 6);
      EXPECT_EQ(diff >> base, (1ull << width) - 1)
          << "burst bits must be adjacent, op " << i;
    }
    EXPECT_GT(bursts, 100);
    const faulty::ContextStats stats = injector.stats();
    EXPECT_EQ(stats.faulty_flops, 100000u);
    EXPECT_EQ(stats.windows_opened, 0u);  // bursts are memoryless
    EXPECT_EQ(stats.faults_injected, static_cast<std::uint64_t>(bursts));
  }
}

TEST(BurstModel, ComparisonFaultInvertsPredicate) {
  FaultModel model;
  model.temporal = Temporal::kBurst;
  FaultInjector injector = MakeInjector(model, 0.05, 31);
  int inversions = 0;
  for (int i = 0; i < 20000; ++i) {
    const bool clean = (i % 3) == 0;
    if (injector.ExecuteComparison(clean) != clean) ++inversions;
  }
  EXPECT_GT(inversions, 500);
  EXPECT_EQ(injector.stats().faults_compare,
            static_cast<std::uint64_t>(inversions));
}

// ---- intermittent ------------------------------------------------------------

TEST(IntermittentModel, WindowsClusterFaultsAboveTheBaseRate) {
  FaultModel model;
  model.temporal = Temporal::kIntermittent;
  model.window_mean_ops = 32.0;
  model.window_rate = 1.0;  // every in-window op faults: maximal clustering
  FaultInjector injector = MakeInjector(model, 1e-3, 55);
  const double clean = 1.5;
  int corruptions = 0;
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t clean_run = injector.CleanRun();
    const double out = injector.Execute(clean);
    if (WordOf(out) != WordOf(clean)) {
      EXPECT_EQ(clean_run, 0u) << "op " << i;
      ++corruptions;
    }
  }
  const faulty::ContextStats stats = injector.stats();
  EXPECT_EQ(stats.faulty_flops, 200000u);
  EXPECT_GT(stats.windows_opened, 0u);
  // Each window contributes its opener plus ~window_mean in-window faults:
  // the fault count must far exceed both the window count and the ~200
  // faults the base rate alone would produce.
  EXPECT_GT(stats.faults_injected, 4 * stats.windows_opened);
  EXPECT_GT(corruptions, 1000);
}

// ---- op-class thinning -------------------------------------------------------

TEST(OpClassMask, DisabledClassSeesZeroFaults) {
  for (const Strategy strategy : {Strategy::kSkipAhead, Strategy::kPerOp}) {
    // Arithmetic only: comparisons never invert.
    FaultModel arith_only;
    arith_only.temporal = Temporal::kTransient;
    arith_only.op_classes = faulty::kOpClassArith;
    FaultInjector a = MakeInjector(arith_only, 0.05, 17, strategy);
    int arith_faults = 0;
    for (int i = 0; i < 40000; ++i) {
      if (i % 3 == 0) {
        EXPECT_EQ(a.ExecuteComparison(true), true);
      } else if (WordOf(a.Execute(2.5)) != WordOf(2.5)) {
        ++arith_faults;
      }
    }
    EXPECT_GT(arith_faults, 0);
    EXPECT_EQ(a.stats().faults_compare, 0u);
    EXPECT_EQ(a.stats().faults_arith, static_cast<std::uint64_t>(arith_faults));

    // Comparison only: arithmetic results come back bit-clean.
    FaultModel cmp_only;
    cmp_only.temporal = Temporal::kTransient;
    cmp_only.op_classes = faulty::kOpClassCompare;
    FaultInjector c = MakeInjector(cmp_only, 0.05, 18, strategy);
    int cmp_faults = 0;
    for (int i = 0; i < 40000; ++i) {
      if (i % 3 == 0) {
        if (c.ExecuteComparison(false)) ++cmp_faults;
      } else {
        EXPECT_EQ(WordOf(c.Execute(2.5)), WordOf(2.5)) << "op " << i;
      }
    }
    EXPECT_GT(cmp_faults, 0);
    EXPECT_EQ(c.stats().faults_arith, 0u);
    EXPECT_EQ(c.stats().faults_compare, static_cast<std::uint64_t>(cmp_faults));
  }
}

TEST(OpClassMask, MemoryLoadsRouteOnlyWhenEnabled) {
  // Default model: loads stay entirely off the injector.
  FaultModel defaults;
  FaultInjector plain = MakeInjector(defaults, 0.05, 3);
  EXPECT_FALSE(plain.routes_loads());

  FaultModel mem;
  mem.temporal = Temporal::kTransient;
  mem.op_classes = faulty::kOpClassAll;
  FaultInjector routed = MakeInjector(mem, 0.05, 4);
  EXPECT_TRUE(routed.routes_loads());
  int load_faults = 0;
  for (int i = 0; i < 40000; ++i) {
    if (WordOf(routed.ExecuteLoad(3.25)) != WordOf(3.25)) ++load_faults;
  }
  EXPECT_GT(load_faults, 0);
  const faulty::ContextStats stats = routed.stats();
  EXPECT_EQ(stats.faults_memory, static_cast<std::uint64_t>(load_faults));
  EXPECT_EQ(stats.faulty_flops, 40000u);  // routed loads count as ops

  // Non-default temporal model without the memory class: still no routing.
  FaultModel stuck;
  stuck.temporal = Temporal::kStuckAt;
  FaultInjector stuck_inj = MakeInjector(stuck, 0.05, 5);
  EXPECT_FALSE(stuck_inj.routes_loads());
}

// Scope-level: LoadsRouted() reflects the active environment's model, and a
// memory-class trial actually corrupts through the linalg load hooks.
TEST(OpClassMask, ScopeRoutesLoadsThroughLinalgKernels) {
  core::FaultEnvironment env;
  env.fault_rate = 0.2;
  env.seed = 11;
  env.model.temporal = Temporal::kTransient;
  env.model.op_classes = faulty::kOpClassMemory;  // loads fail, arith clean
  faulty::ContextStats stats;
  core::WithFaultyFpu(
      env,
      [&] {
        EXPECT_TRUE(faulty::LoadsRouted());
        linalg::Vector<faulty::Real> x(64), y(64);
        for (int i = 0; i < 64; ++i) {
          x[static_cast<std::size_t>(i)] = faulty::Real(1.0);
          y[static_cast<std::size_t>(i)] = faulty::Real(2.0);
        }
        (void)linalg::Dot(x, y);
      },
      &stats);
  EXPECT_FALSE(faulty::LoadsRouted());
  EXPECT_GT(stats.faults_memory, 0u);
  EXPECT_EQ(stats.faults_arith, 0u);
  EXPECT_EQ(stats.faults_compare, 0u);
}

// ---- engine / thread-count equivalence under sticky models -------------------

harness::TrialFn ModelSortTrial(const FaultModel& model, Strategy strategy,
                                faulty::Engine engine) {
  return [model, strategy, engine](const core::FaultEnvironment& base) {
    core::FaultEnvironment env = base;
    env.model = model;
    env.strategy = strategy;
    env.engine = engine;
    std::mt19937_64 rng(env.seed * 7919);
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    std::vector<double> input(4);
    for (double& v : input) v = dist(rng);
    apps::LpSolveConfig config = apps::SortSgdAsSqs();
    config.sgd.iterations = 120;
    harness::TrialOutcome out;
    const apps::RobustSortResult r = core::WithFaultyFpu(
        env, [&] { return apps::RobustSort<faulty::Real>(input, config); },
        &out.fpu_stats);
    out.success = r.valid && apps::IsSortedCopyOf(r.output, input);
    out.metric = static_cast<double>(out.fpu_stats.faults_injected);
    return out;
  };
}

void ExpectSameOutcome(const harness::TrialOutcome& a,
                       const harness::TrialOutcome& b, const std::string& what) {
  EXPECT_EQ(a.success, b.success) << what;
  EXPECT_EQ(WordOf(a.metric), WordOf(b.metric)) << what;
  EXPECT_EQ(a.fpu_stats.faulty_flops, b.fpu_stats.faulty_flops) << what;
  EXPECT_EQ(a.fpu_stats.faults_injected, b.fpu_stats.faults_injected) << what;
  EXPECT_EQ(a.fpu_stats.faults_arith, b.fpu_stats.faults_arith) << what;
  EXPECT_EQ(a.fpu_stats.faults_compare, b.fpu_stats.faults_compare) << what;
  EXPECT_EQ(a.fpu_stats.faults_memory, b.fpu_stats.faults_memory) << what;
  EXPECT_EQ(a.fpu_stats.windows_opened, b.fpu_stats.windows_opened) << what;
}

TEST(EngineEquivalence, StickyModelsBitIdenticalAcrossEngines) {
  std::vector<FaultModel> models(3);
  models[0].temporal = Temporal::kStuckAt;
  models[0].stuck_mean_ops = 32.0;
  models[1].temporal = Temporal::kIntermittent;
  models[2].temporal = Temporal::kBurst;
  models[2].op_classes = faulty::kOpClassAll;  // routed loads too
  core::FaultEnvironment env;
  env.fault_rate = 0.02;
  for (const FaultModel& model : models) {
    for (const Strategy strategy : {Strategy::kSkipAhead, Strategy::kPerOp}) {
      for (int trial = 0; trial < 6; ++trial) {
        const harness::TrialOutcome block = harness::RunSingleTrial(
            ModelSortTrial(model, strategy, faulty::Engine::kBlock), env, trial);
        const harness::TrialOutcome scalar = harness::RunSingleTrial(
            ModelSortTrial(model, strategy, faulty::Engine::kScalar), env, trial);
        std::ostringstream what;
        what << "model " << faulty::TemporalName(model.temporal) << " strategy "
             << (strategy == Strategy::kPerOp ? "perop" : "skip") << " trial "
             << trial;
        ExpectSameOutcome(block, scalar, what.str());
      }
    }
  }
}

TEST(EngineEquivalence, StuckGridThreadCountInvariant) {
  FaultModel model;
  model.temporal = Temporal::kStuckAt;
  campaign::CampaignSpec spec = testutil::FixedSpec({0.0, 0.02, 0.2}, 4, 77);
  spec.model = model;
  const std::vector<harness::NamedTrial> trials = {
      {"sort", ModelSortTrial(model, Strategy::kSkipAhead, faulty::Engine::kBlock)}};
  const auto serial = testutil::RunFixedGrid(spec, trials, 1);
  const auto parallel = testutil::RunFixedGrid(spec, trials, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t s = 0; s < serial.size(); ++s) {
    ASSERT_EQ(serial[s].points.size(), parallel[s].points.size());
    for (std::size_t r = 0; r < serial[s].points.size(); ++r) {
      const harness::TrialSummary& a = serial[s].points[r].summary;
      const harness::TrialSummary& b = parallel[s].points[r].summary;
      EXPECT_EQ(a.successes, b.successes);
      EXPECT_EQ(WordOf(a.median_metric), WordOf(b.median_metric));
      EXPECT_EQ(WordOf(a.mean_faulty_flops), WordOf(b.mean_faulty_flops));
    }
  }
}

// ---- the guarded trial executor ---------------------------------------------

TEST(Guard, InactiveGuardIsInvisible) {
  core::TrialGuard off;
  EXPECT_FALSE(off.Active());
  core::GuardScope scope(off);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(core::GuardStop());
  EXPECT_FALSE(core::GuardBailoutEnabled());
  core::GuardReportDivergence();  // ignored while inactive
  EXPECT_EQ(core::ResolveVerdict(true), core::TrialVerdict::kSuccess);
  EXPECT_EQ(core::ResolveVerdict(false), core::TrialVerdict::kWrongResult);
}

TEST(Guard, IterationCapLatchesBudgetVerdict) {
  core::TrialGuard guard;
  guard.max_iterations = 5;
  core::GuardScope scope(guard);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(core::GuardStop()) << i;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(core::GuardStop());  // latched
  EXPECT_EQ(core::ResolveVerdict(false), core::TrialVerdict::kBudgetExhausted);
  // A correct answer is never reclassified by a tripped cap.
  EXPECT_EQ(core::ResolveVerdict(true), core::TrialVerdict::kSuccess);
}

TEST(Guard, DivergenceOutranksBudgetExhaustion) {
  core::TrialGuard guard;
  guard.max_iterations = 1;
  guard.nonfinite_bailout = true;
  core::GuardScope scope(guard);
  EXPECT_TRUE(core::GuardBailoutEnabled());
  while (!core::GuardStop()) {
  }
  core::GuardReportDivergence();
  EXPECT_EQ(core::ResolveVerdict(false), core::TrialVerdict::kDiverged);
}

TEST(Guard, FlopCapReadsTheActiveInjector) {
  core::TrialGuard guard;
  guard.max_flops = 50;
  core::GuardScope scope(guard);
  core::FaultEnvironment env;  // rate 0: pure flop counting
  core::WithFaultyFpu(env, [&] {
    int stopped_at = -1;
    for (int i = 0; i < 200; ++i) {
      (void)faulty::Execute(1.0);
      if (core::GuardStop()) {
        stopped_at = i;
        break;
      }
    }
    EXPECT_GE(stopped_at, 49);  // not before the cap
    EXPECT_LT(stopped_at, 60);  // but promptly after it
  });
}

TEST(Guard, RunSingleTrialResolvesAndCountsVerdicts) {
  core::FaultEnvironment env;
  env.guard.max_iterations = 3;
  env.guard.nonfinite_bailout = true;

  const harness::TrialFn budget_trial = [](const core::FaultEnvironment&) {
    harness::TrialOutcome out;
    while (!core::GuardStop()) {
    }
    out.success = false;
    return out;
  };
  const harness::TrialOutcome budget = harness::RunSingleTrial(budget_trial, env, 0);
  EXPECT_EQ(budget.verdict, core::TrialVerdict::kBudgetExhausted);

  const harness::TrialFn diverged_trial = [](const core::FaultEnvironment&) {
    harness::TrialOutcome out;
    core::GuardReportDivergence();
    out.success = false;
    return out;
  };
  const harness::TrialOutcome diverged =
      harness::RunSingleTrial(diverged_trial, env, 0);
  EXPECT_EQ(diverged.verdict, core::TrialVerdict::kDiverged);

  const harness::TrialFn success_trial = [](const core::FaultEnvironment&) {
    harness::TrialOutcome out;
    while (!core::GuardStop()) {
    }
    out.success = true;  // hit the cap but still produced a correct answer
    return out;
  };
  const harness::TrialOutcome ok = harness::RunSingleTrial(success_trial, env, 0);
  EXPECT_EQ(ok.verdict, core::TrialVerdict::kSuccess);

  const std::vector<harness::TrialOutcome> outcomes = {budget, diverged, ok};
  const harness::TrialSummary summary = harness::SummarizeOutcomes(outcomes);
  EXPECT_EQ(summary.trials, 3);
  EXPECT_EQ(summary.successes, 1);
  EXPECT_EQ(summary.wrong_results, 0);
  EXPECT_EQ(summary.diverged, 1);
  EXPECT_EQ(summary.budget_exhausted, 1);
}

TEST(Guard, IterationCapBoundsARealSolve) {
  FaultModel model;  // default transient model; the guard does the bounding
  core::FaultEnvironment env;
  env.fault_rate = 0.0;
  const harness::TrialFn trial =
      ModelSortTrial(model, Strategy::kSkipAhead, faulty::Engine::kBlock);
  const harness::TrialOutcome unguarded = harness::RunSingleTrial(trial, env, 0);
  env.guard.max_iterations = 2;
  const harness::TrialOutcome guarded = harness::RunSingleTrial(trial, env, 0);
  // The cap stops the SGD phase loop almost immediately: far fewer routed
  // flops than the full solve.
  EXPECT_LT(guarded.fpu_stats.faulty_flops, unguarded.fpu_stats.faulty_flops / 4);
  if (!guarded.success) {
    EXPECT_EQ(guarded.verdict, core::TrialVerdict::kBudgetExhausted);
  }
}

// ---- spec round-trip and fingerprints ---------------------------------------

TEST(SpecModelAxis, RoundTripsAndPreservesDefaultFingerprint) {
  campaign::CampaignSpec base;
  base.name = "axis";
  base.app = "fig6_1";
  base.fault_rates = {0.0, 0.1};
  const std::uint64_t base_print = campaign::SpecFingerprint(base);
  // A default model/guard emits no extra keys: pre-model fingerprints (and
  // therefore existing journals) stay valid.  ("bit_model" predates the
  // model axis and is always emitted.)
  EXPECT_EQ(campaign::FormatSpec(base).find("\nmodel"), std::string::npos);
  EXPECT_EQ(campaign::FormatSpec(base).find("guard"), std::string::npos);

  campaign::CampaignSpec spec = base;
  spec.model.temporal = Temporal::kIntermittent;
  spec.model.op_classes = faulty::kOpClassAll;
  spec.model.stuck_mean_ops = 100.0;
  spec.model.burst_width_max = 7;
  spec.model.window_mean_ops = 48.0;
  spec.model.window_rate = 0.5;
  spec.guard.max_flops = 1000000;
  spec.guard.max_iterations = 250;
  spec.guard.nonfinite_bailout = true;
  EXPECT_NE(campaign::SpecFingerprint(spec), base_print);

  std::istringstream is(campaign::FormatSpec(spec));
  const campaign::CampaignSpec parsed = campaign::ParseSpec(is);
  EXPECT_EQ(parsed.model.temporal, spec.model.temporal);
  EXPECT_EQ(parsed.model.op_classes, spec.model.op_classes);
  EXPECT_EQ(parsed.model.stuck_mean_ops, spec.model.stuck_mean_ops);
  EXPECT_EQ(parsed.model.burst_width_max, spec.model.burst_width_max);
  EXPECT_EQ(parsed.model.window_mean_ops, spec.model.window_mean_ops);
  EXPECT_EQ(parsed.model.window_rate, spec.model.window_rate);
  EXPECT_EQ(parsed.guard.max_flops, spec.guard.max_flops);
  EXPECT_EQ(parsed.guard.max_iterations, spec.guard.max_iterations);
  EXPECT_EQ(parsed.guard.nonfinite_bailout, spec.guard.nonfinite_bailout);
  EXPECT_EQ(campaign::SpecFingerprint(parsed), campaign::SpecFingerprint(spec));
}

TEST(SpecModelAxis, RejectsMalformedModelKeys) {
  const auto parse = [](const std::string& body) {
    std::istringstream is("app = fig6_1\nrates = 0, 0.1\n" + body);
    return campaign::ParseSpec(is);
  };
  EXPECT_THROW(parse("model = cosmic\n"), std::runtime_error);
  EXPECT_THROW(parse("op_classes = arith,warp\n"), std::runtime_error);
  EXPECT_THROW(parse("window_rate = 1.5\n"), std::runtime_error);
  EXPECT_THROW(parse("burst_width = 0\n"), std::runtime_error);
  EXPECT_THROW(parse("stuck_mean = 0\n"), std::runtime_error);
  EXPECT_THROW(parse("guard_iters = -1\n"), std::runtime_error);
  EXPECT_NO_THROW(parse("model = stuck\nguard_bailout = 1\n"));
}

// ---- campaigns under every model --------------------------------------------

// Every registered campaign must run to completion under every temporal
// model with the guard armed — one trial per cell at one mid-axis rate
// keeps this tractable while still exercising each scenario's real solvers
// under sticky fault state.
TEST(ModelCampaigns, FullRegistryCompletesUnderEveryModel) {
  for (const Temporal temporal :
       {Temporal::kStuckAt, Temporal::kBurst, Temporal::kIntermittent}) {
    for (const std::string& name : campaign::RegistryNames()) {
      campaign::CampaignSpec spec = campaign::RegistrySpec(name);
      spec.fault_rates = {
          spec.fault_rates[spec.fault_rates.size() / 2]};
      spec.fixed_trials = 1;
      spec.model.temporal = temporal;
      spec.guard.max_iterations = 20000;
      spec.guard.nonfinite_bailout = true;
      const campaign::Scenario scenario = campaign::BuildScenario(spec);
      campaign::RunnerOptions options;
      options.adaptive = false;
      const campaign::CampaignResult result =
          campaign::RunCampaign(spec, scenario, options);
      EXPECT_EQ(result.total_trials,
                static_cast<long>(scenario.series.size()))
          << name << " under " << faulty::TemporalName(temporal);
    }
  }
}

TEST(ModelCampaigns, ModelCampaignDeterministicAcrossRuns) {
  for (const Temporal temporal :
       {Temporal::kStuckAt, Temporal::kBurst, Temporal::kIntermittent}) {
    campaign::CampaignSpec spec = campaign::RegistrySpec("fig6_1");
    spec.fault_rates = {0.0, 0.05};
    spec.fixed_trials = 3;
    spec.model.temporal = temporal;
    spec.guard.max_iterations = 20000;
    spec.guard.nonfinite_bailout = true;
    const campaign::Scenario scenario = campaign::BuildScenario(spec);
    campaign::RunnerOptions options;
    options.adaptive = false;
    const campaign::CampaignResult a = campaign::RunCampaign(spec, scenario, options);
    options.threads = 4;
    const campaign::CampaignResult b = campaign::RunCampaign(spec, scenario, options);
    ASSERT_EQ(a.series.size(), b.series.size());
    for (std::size_t s = 0; s < a.series.size(); ++s) {
      for (std::size_t r = 0; r < a.series[s].points.size(); ++r) {
        const harness::TrialSummary& x = a.series[s].points[r].summary;
        const harness::TrialSummary& y = b.series[s].points[r].summary;
        EXPECT_EQ(x.successes, y.successes)
            << faulty::TemporalName(temporal) << " " << a.series[s].name;
        EXPECT_EQ(WordOf(x.median_metric), WordOf(y.median_metric));
        EXPECT_EQ(x.diverged, y.diverged);
        EXPECT_EQ(x.budget_exhausted, y.budget_exhausted);
      }
    }
  }
}

}  // namespace
