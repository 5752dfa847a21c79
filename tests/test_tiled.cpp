// Tiled direct-solver tests (linalg/tiled.h): rate-0 bit-identity against
// the monolithic lsq.h baselines, block==scalar equivalence under
// injection, worker-count independence (the determinism contract, pinned at
// n = 2048 under injection), and byte-identical campaign CSVs across the
// in-solve worker knob.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "apps/least_squares.h"
#include "campaign/scenarios.h"
#include "campaign/spec.h"
#include "core/fault_env.h"
#include "linalg/lsq.h"
#include "linalg/tiled.h"
#include "tests/fixed_grid.h"

namespace {

using namespace robustify;

bool SameBits(const linalg::Vector<double>& a, const linalg::Vector<double>& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::string Hex(double v) {
  std::uint64_t w;
  std::memcpy(&w, &v, sizeof(w));
  std::ostringstream os;
  os << std::hex << w;
  return os.str();
}

// First mismatching element, for actionable failure output.
::testing::AssertionResult BitIdentical(const linalg::Vector<double>& a,
                                        const linalg::Vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t wa, wb;
    std::memcpy(&wa, &a[i], sizeof(wa));
    std::memcpy(&wb, &b[i], sizeof(wb));
    if (wa != wb) {
      return ::testing::AssertionFailure()
             << "x[" << i << "]: " << Hex(a[i]) << " vs " << Hex(b[i]);
    }
  }
  return ::testing::AssertionSuccess();
}

// The tiled Cholesky must reproduce the monolithic normal-equations solve
// bit for bit at fault rate 0, for dividing and non-dividing tile sizes and
// for the single-tile degenerate case.
TEST(TiledCholesky, BitIdenticalToMonolithicAtRateZero) {
  const apps::LsqProblem problem = apps::MakeRandomLsqProblem(40, 24, 91);
  const linalg::Vector<double> mono =
      apps::SolveLsqBaseline<faulty::Real>(problem, linalg::LsqBaseline::kCholesky);
  for (const std::size_t tile : {std::size_t{24}, std::size_t{8}, std::size_t{7}}) {
    for (const int threads : {1, 4}) {
      linalg::TiledOptions options;
      options.tile = tile;
      options.threads = threads;
      const linalg::Vector<double> tiled = apps::SolveLsqTiled<faulty::Real>(
          problem, linalg::LsqBaseline::kCholesky, options);
      EXPECT_TRUE(BitIdentical(tiled, mono))
          << "tile=" << tile << " threads=" << threads;
    }
  }
}

TEST(TiledQr, BitIdenticalToMonolithicAtRateZero) {
  const apps::LsqProblem problem = apps::MakeRandomLsqProblem(36, 20, 92);
  const linalg::Vector<double> mono =
      apps::SolveLsqBaseline<faulty::Real>(problem, linalg::LsqBaseline::kQr);
  for (const std::size_t tile : {std::size_t{20}, std::size_t{8}, std::size_t{5}}) {
    for (const int threads : {1, 4}) {
      linalg::TiledOptions options;
      options.tile = tile;
      options.threads = threads;
      const linalg::Vector<double> tiled = apps::SolveLsqTiled<faulty::Real>(
          problem, linalg::LsqBaseline::kQr, options);
      EXPECT_TRUE(BitIdentical(tiled, mono))
          << "tile=" << tile << " threads=" << threads;
    }
  }
}

// The double instantiation is the clean oracle: same kernels, no injector
// plumbing.  At rate 0 it must agree with the faulty::Real run bit for bit.
TEST(TiledCholesky, CleanOracleTypeMatchesRealAtRateZero) {
  const apps::LsqProblem problem = apps::MakeRandomLsqProblem(32, 16, 93);
  linalg::TiledOptions options;
  options.tile = 8;
  linalg::Vector<double> real_x, oracle_x;
  linalg::TiledLsqEngine<faulty::Real> real_engine;
  linalg::TiledLsqEngine<double> oracle_engine;
  real_engine.SolveCholesky(problem.a, problem.b, options, &real_x);
  oracle_engine.SolveCholesky(problem.a, problem.b, options, &oracle_x);
  EXPECT_TRUE(BitIdentical(real_x, oracle_x));
}

// Block and scalar engines must agree bit for bit under injection inside
// tile tasks, exactly like they do inside WithFaultyFpu scopes.
TEST(Tiled, BlockAndScalarEnginesBitIdenticalUnderInjection) {
  const apps::LsqProblem problem = apps::MakeRandomLsqProblem(48, 24, 94);
  for (const linalg::LsqBaseline which :
       {linalg::LsqBaseline::kCholesky, linalg::LsqBaseline::kQr}) {
    core::FaultEnvironment env;
    env.fault_rate = 1e-3;
    env.seed = 4242;
    linalg::TiledOptions options;
    options.tile = 8;
    options.fault = apps::TileConfigFromEnv(env);

    options.fault.engine = faulty::Engine::kBlock;
    faulty::ContextStats block_stats;
    const linalg::Vector<double> block_x =
        apps::SolveLsqTiled<faulty::Real>(problem, which, options, &block_stats);

    options.fault.engine = faulty::Engine::kScalar;
    faulty::ContextStats scalar_stats;
    const linalg::Vector<double> scalar_x =
        apps::SolveLsqTiled<faulty::Real>(problem, which, options, &scalar_stats);

    EXPECT_TRUE(BitIdentical(block_x, scalar_x));
    EXPECT_EQ(block_stats.faulty_flops, scalar_stats.faulty_flops);
    EXPECT_EQ(block_stats.faults_injected, scalar_stats.faults_injected);
    EXPECT_GT(block_stats.faults_injected, 0u);
  }
}

// The acceptance pin: a large tiled Cholesky under injection is
// bit-identical at 1, 2, and 8 in-solve workers, with identical summed
// injector stats.  n = 2048 (tridiagonal SPD system, formed directly so the
// test budget goes to the factorization).
TEST(TiledCholesky, BitIdenticalAcrossWorkerCountsAtN2048UnderInjection) {
  const std::size_t n = 2048;
  linalg::Matrix<double> g(n, n);
  linalg::Vector<double> c(n);
  for (std::size_t i = 0; i < n; ++i) {
    g(i, i) = 4.0;
    if (i + 1 < n) {
      g(i, i + 1) = -1.0;
      g(i + 1, i) = -1.0;
    }
    c[i] = 4.0 - (i > 0 ? 1.0 : 0.0) - (i + 1 < n ? 1.0 : 0.0);  // G * ones
  }

  core::FaultEnvironment env;
  env.fault_rate = 1e-6;
  env.seed = 20480;
  linalg::TiledOptions options;
  options.tile = 256;
  options.fault = apps::TileConfigFromEnv(env);

  linalg::TiledLsqEngine<faulty::Real> engine;
  linalg::Vector<double> reference;
  faulty::ContextStats reference_stats;
  for (const int workers : {1, 2, 8}) {
    options.threads = workers;
    linalg::Vector<double> x;
    faulty::ContextStats stats;
    engine.SolveSpd(g, c, options, &x, &stats);
    if (workers == 1) {
      reference = x;
      reference_stats = stats;
      EXPECT_GT(stats.faults_injected, 0u) << "rate 1e-6 over ~n^3/3 ops";
    } else {
      EXPECT_TRUE(BitIdentical(x, reference)) << "workers=" << workers;
      EXPECT_EQ(stats.faulty_flops, reference_stats.faulty_flops);
      EXPECT_EQ(stats.faults_injected, reference_stats.faults_injected);
    }
  }
}

// Different solve seeds must give different fault streams (the per-task
// stream derivation must not collapse the seed).
TEST(Tiled, SolveSeedChangesTheFaultStream) {
  const apps::LsqProblem problem = apps::MakeRandomLsqProblem(48, 24, 95);
  core::FaultEnvironment env;
  env.fault_rate = 1e-3;
  env.seed = 1;
  linalg::TiledOptions options;
  options.tile = 8;
  options.fault = apps::TileConfigFromEnv(env);
  const linalg::Vector<double> a = apps::SolveLsqTiled<faulty::Real>(
      problem, linalg::LsqBaseline::kCholesky, options);
  options.fault.seed = 2;
  const linalg::Vector<double> b = apps::SolveLsqTiled<faulty::Real>(
      problem, linalg::LsqBaseline::kCholesky, options);
  EXPECT_FALSE(SameBits(a, b));
}

// The in-solve worker knob (ROBUSTIFY_TILE_THREADS, read when
// options.threads == 0) must leave campaign CSVs byte-identical: the whole
// tiled_cholesky scenario is swept at 1, 2, and 8 workers and the CSV bytes
// compared.
TEST(Tiled, CampaignCsvBytesIndependentOfTileWorkers) {
  const campaign::CampaignSpec& spec = campaign::RegistrySpec("tiled_cholesky");
  const campaign::Scenario scenario = campaign::BuildScenario(spec);
  campaign::CampaignSpec grid = spec;
  grid.fault_rates = {0.0, 1e-5, 1e-3};
  grid.fixed_trials = 2;

  std::string reference;
  for (const int workers : {1, 2, 8}) {
    ::setenv("ROBUSTIFY_TILE_THREADS", std::to_string(workers).c_str(), 1);
    // Outer trial loop serial; the knob under test is inner.
    const std::string bytes = testutil::CsvBytes(
        testutil::RunFixed(grid, scenario, 1).series,
        "tiled_csv_w" + std::to_string(workers));
    if (workers == 1) {
      reference = bytes;
      EXPECT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(bytes, reference) << "workers=" << workers;
    }
  }
  ::unsetenv("ROBUSTIFY_TILE_THREADS");
}

// Accuracy sanity at rate 0 (bit-identity alone would also pass for a
// solver that is deterministically wrong).
TEST(Tiled, SolvesTheProblemAtRateZero) {
  const apps::LsqProblem problem = apps::MakeRandomLsqProblem(60, 20, 96);
  for (const linalg::LsqBaseline which :
       {linalg::LsqBaseline::kCholesky, linalg::LsqBaseline::kQr}) {
    linalg::TiledOptions options;
    options.tile = 8;
    const linalg::Vector<double> x =
        apps::SolveLsqTiled<faulty::Real>(problem, which, options);
    ASSERT_EQ(x.size(), problem.exact.size());
    double err = 0.0, norm = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      err += (x[i] - problem.exact[i]) * (x[i] - problem.exact[i]);
      norm += problem.exact[i] * problem.exact[i];
    }
    EXPECT_LT(err, 1e-16 * norm);
  }
}

}  // namespace
