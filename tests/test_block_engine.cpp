// Block-engine equivalence: the faulty-BLAS bulk kernels must be
// observationally identical to the per-scalar faulty::Real path.
//
// The contract (src/faulty/block_engine.h): for a fixed (seed, rate,
// strategy), the block and scalar engines execute the same IEEE-754 op
// sequence and consume the injector RNG at the same op positions, so every
// trial result is bit-identical and the flop/fault accounting matches
// exactly.  These tests hold each dispatched kernel family to that, and the
// sweep harness to byte-identical CSVs across engines at rates spanning
// "no faults" to "fault every ~20 ops".
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "apps/configs.h"
#include "apps/eigen_app.h"
#include "apps/iir_app.h"
#include "apps/least_squares.h"
#include "apps/svm_app.h"
#include "core/fault_env.h"
#include "linalg/lsq.h"
#include "opt/cg.h"
#include "opt/workspace.h"
#include "signal/signals.h"
#include "tests/fixed_grid.h"

namespace {

using namespace robustify;
using faulty::Engine;

// Runs `fn` under a fault scope pinned to `engine`, returning the result;
// stats (flops + faults) land in *stats.
template <class Fn>
auto RunEngine(Engine engine, double rate, std::uint64_t seed, const Fn& fn,
               faulty::ContextStats* stats) {
  core::FaultEnvironment env;
  env.fault_rate = rate;
  env.seed = seed;
  env.engine = engine;
  return core::WithFaultyFpu(env, fn, stats);
}

// Bitwise comparison of double vectors (faults produce NaNs; EXPECT_EQ on
// doubles would treat those as unequal-to-themselves).
void ExpectBitEqual(const linalg::Vector<double>& a, const linalg::Vector<double>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t wa, wb;
    std::memcpy(&wa, &a[i], sizeof(wa));
    std::memcpy(&wb, &b[i], sizeof(wb));
    EXPECT_EQ(wa, wb) << what << " differs at [" << i << "]";
  }
}

const double kRates[] = {0.0, 1e-5, 1e-3, 0.05};

// Every dispatched solver stack end to end: SGD least squares (matvec +
// fused residual objective), with TMR voting and adaptive acceptance so the
// Value path runs too.
TEST(BlockEngine, LsqSgdBitIdenticalAcrossEngines) {
  const apps::LsqProblem problem = apps::MakeRandomLsqProblem(23, 7, 11);
  opt::SgdOptions options = apps::LsqSgdAsLs();
  options.iterations = 120;
  for (const double rate : kRates) {
    faulty::ContextStats scalar_stats, block_stats;
    const linalg::Vector<double> scalar = RunEngine(
        Engine::kScalar, rate, 77,
        [&] { return apps::SolveLsqSgd<faulty::Real>(problem, options); },
        &scalar_stats);
    const linalg::Vector<double> block = RunEngine(
        Engine::kBlock, rate, 77,
        [&] { return apps::SolveLsqSgd<faulty::Real>(problem, options); },
        &block_stats);
    ExpectBitEqual(scalar, block, "lsq sgd");
    EXPECT_EQ(scalar_stats.faulty_flops, block_stats.faulty_flops) << "rate " << rate;
    EXPECT_EQ(scalar_stats.faults_injected, block_stats.faults_injected)
        << "rate " << rate;
  }
}

TEST(BlockEngine, CglsBitIdenticalAcrossEngines) {
  const apps::LsqProblem problem = apps::MakeRandomLsqProblem(23, 7, 13);
  opt::CgOptions options;
  options.iterations = 12;
  options.restart_every = 4;
  for (const double rate : kRates) {
    faulty::ContextStats scalar_stats, block_stats;
    const opt::CgResult scalar = RunEngine(
        Engine::kScalar, rate, 91,
        [&] { return apps::SolveLsqCg<faulty::Real>(problem, options); },
        &scalar_stats);
    const opt::CgResult block = RunEngine(
        Engine::kBlock, rate, 91,
        [&] { return apps::SolveLsqCg<faulty::Real>(problem, options); },
        &block_stats);
    ExpectBitEqual(scalar.x, block.x, "cgls");
    EXPECT_EQ(scalar.iterations, block.iterations);
    std::uint64_t ra, rb;
    std::memcpy(&ra, &scalar.residual_norm, sizeof(ra));
    std::memcpy(&rb, &block.residual_norm, sizeof(rb));
    EXPECT_EQ(ra, rb) << "residual norm, rate " << rate;
    EXPECT_EQ(scalar_stats.faulty_flops, block_stats.faulty_flops) << "rate " << rate;
    EXPECT_EQ(scalar_stats.faults_injected, block_stats.faults_injected);
  }
}

// The strided kernels under the direct baselines (QR / Jacobi SVD /
// Cholesky: DotAcc[Neg], Axpy/Axmy, Rot, JacobiDots).
TEST(BlockEngine, DirectBaselinesBitIdenticalAcrossEngines) {
  const apps::LsqProblem problem = apps::MakeRandomLsqProblem(19, 6, 17);
  for (const auto which : {linalg::LsqBaseline::kQr, linalg::LsqBaseline::kSvd,
                           linalg::LsqBaseline::kCholesky}) {
    for (const double rate : kRates) {
      faulty::ContextStats scalar_stats, block_stats;
      const linalg::Vector<double> scalar = RunEngine(
          Engine::kScalar, rate, 29,
          [&] { return apps::SolveLsqBaseline<faulty::Real>(problem, which); },
          &scalar_stats);
      const linalg::Vector<double> block = RunEngine(
          Engine::kBlock, rate, 29,
          [&] { return apps::SolveLsqBaseline<faulty::Real>(problem, which); },
          &block_stats);
      ExpectBitEqual(scalar, block, "direct baseline");
      EXPECT_EQ(scalar_stats.faulty_flops, block_stats.faulty_flops)
          << "baseline " << static_cast<int>(which) << " rate " << rate;
      EXPECT_EQ(scalar_stats.faults_injected, block_stats.faults_injected);
    }
  }
}

// The banded IIR kernels (ramp-up, steady region, ramp-down tail).
TEST(BlockEngine, IirBitIdenticalAcrossEngines) {
  const signal::IirCoefficients coeffs = signal::MakeStableIir(4, 4, 5);
  const linalg::Vector<double> input = signal::SineMix(64, {3.0, 7.0}, {1.0, 0.4});
  opt::SgdOptions options = apps::IirSgdLs();
  options.iterations = 60;
  for (const double rate : kRates) {
    faulty::ContextStats scalar_stats, block_stats;
    const linalg::Vector<double> scalar = RunEngine(
        Engine::kScalar, rate, 41,
        [&] { return apps::RobustIir<faulty::Real>(coeffs, input, options); },
        &scalar_stats);
    const linalg::Vector<double> block = RunEngine(
        Engine::kBlock, rate, 41,
        [&] { return apps::RobustIir<faulty::Real>(coeffs, input, options); },
        &block_stats);
    ExpectBitEqual(scalar, block, "iir");
    EXPECT_EQ(scalar_stats.faulty_flops, block_stats.faulty_flops) << "rate " << rate;
    EXPECT_EQ(scalar_stats.faults_injected, block_stats.faults_injected);
  }
}

// The SVM kernels (DotAcc margins, Scal regularizer, SubScaled2 rows) plus
// the faulty comparisons in the accuracy readout.
TEST(BlockEngine, SvmBitIdenticalAcrossEngines) {
  const apps::SvmDataset data = apps::MakeBlobsDataset(20, 5, 2.0, 3);
  opt::SgdOptions options;
  options.iterations = 80;
  options.base_step = 0.5;
  options.scaling = opt::StepScaling::kLinear;
  for (const double rate : kRates) {
    faulty::ContextStats scalar_stats, block_stats;
    const apps::SvmResult scalar = RunEngine(
        Engine::kScalar, rate, 53,
        [&] { return apps::TrainSvm<faulty::Real>(data, 0.01, options); },
        &scalar_stats);
    const apps::SvmResult block = RunEngine(
        Engine::kBlock, rate, 53,
        [&] { return apps::TrainSvm<faulty::Real>(data, 0.01, options); },
        &block_stats);
    ExpectBitEqual(scalar.w, block.w, "svm weights");
    EXPECT_EQ(scalar.train_accuracy, block.train_accuracy);
    EXPECT_EQ(scalar_stats.faulty_flops, block_stats.faulty_flops) << "rate " << rate;
    EXPECT_EQ(scalar_stats.faults_injected, block_stats.faults_injected);
  }
}

// Rayleigh power ascent (Dot, Axpy/Axmy, DivScal, MatVec, Norm).
TEST(BlockEngine, EigenBitIdenticalAcrossEngines) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  const std::size_t n = 12;
  linalg::Matrix<double> a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      a(i, j) = dist(rng);
      a(j, i) = a(i, j);
    }
  }
  apps::RayleighOptions options;
  options.iterations = 40;
  for (const double rate : kRates) {
    faulty::ContextStats scalar_stats, block_stats;
    const auto scalar = RunEngine(
        Engine::kScalar, rate, 67,
        [&] { return apps::TopEigenpairsRayleigh<faulty::Real>(a, 2, options); },
        &scalar_stats);
    const auto block = RunEngine(
        Engine::kBlock, rate, 67,
        [&] { return apps::TopEigenpairsRayleigh<faulty::Real>(a, 2, options); },
        &block_stats);
    ASSERT_EQ(scalar.size(), block.size());
    for (std::size_t p = 0; p < scalar.size(); ++p) {
      std::uint64_t va, vb;
      std::memcpy(&va, &scalar[p].value, sizeof(va));
      std::memcpy(&vb, &block[p].value, sizeof(vb));
      EXPECT_EQ(va, vb) << "eigenvalue " << p << " rate " << rate;
      ExpectBitEqual(scalar[p].vector, block[p].vector, "eigenvector");
    }
    EXPECT_EQ(scalar_stats.faulty_flops, block_stats.faulty_flops) << "rate " << rate;
    EXPECT_EQ(scalar_stats.faults_injected, block_stats.faults_injected);
  }
}

// Under the per-op oracle injector the clean run is always zero, so block
// kernels must walk op by op and reproduce the oracle stream exactly.
TEST(BlockEngine, PerOpInjectorBitIdenticalAcrossEngines) {
  const apps::LsqProblem problem = apps::MakeRandomLsqProblem(17, 5, 19);
  opt::SgdOptions options = apps::LsqSgdLs();
  options.iterations = 60;
  for (const double rate : {1e-3, 0.05}) {
    linalg::Vector<double> results[2];
    faulty::ContextStats stats[2];
    int i = 0;
    for (const Engine engine : {Engine::kScalar, Engine::kBlock}) {
      core::FaultEnvironment env;
      env.fault_rate = rate;
      env.seed = 101;
      env.engine = engine;
      env.strategy = faulty::FaultInjector::Strategy::kPerOp;
      results[i] = core::WithFaultyFpu(
          env, [&] { return apps::SolveLsqSgd<faulty::Real>(problem, options); },
          &stats[i]);
      ++i;
    }
    ExpectBitEqual(results[0], results[1], "per-op oracle");
    EXPECT_EQ(stats[0].faulty_flops, stats[1].faulty_flops) << "rate " << rate;
    EXPECT_EQ(stats[0].faults_injected, stats[1].faults_injected);
  }
}

// --- sweep-level golden CSVs -------------------------------------------------

harness::TrialFn LsqSgdTrial(Engine engine, const apps::LsqProblem* problem) {
  return [engine, problem](const core::FaultEnvironment& base) {
    core::FaultEnvironment env = base;
    env.engine = engine;
    opt::SgdOptions options = apps::LsqSgdAsLs();
    options.iterations = 100;
    harness::TrialOutcome out;
    const linalg::Vector<double> x = core::WithFaultyFpu(
        env, [&] { return apps::SolveLsqSgd<faulty::Real>(*problem, options); },
        &out.fpu_stats);
    out.metric = linalg::AsDouble(Norm(x));
    out.success = std::isfinite(out.metric);
    return out;
  };
}

harness::TrialFn CglsTrial(Engine engine, const apps::LsqProblem* problem) {
  return [engine, problem](const core::FaultEnvironment& base) {
    core::FaultEnvironment env = base;
    env.engine = engine;
    opt::CgOptions options;
    options.iterations = 10;
    options.restart_every = 5;
    harness::TrialOutcome out;
    const opt::CgResult r = core::WithFaultyFpu(
        env, [&] { return apps::SolveLsqCg<faulty::Real>(*problem, options); },
        &out.fpu_stats);
    out.metric = r.residual_norm;
    out.success = std::isfinite(out.metric);
    return out;
  };
}

std::string SweepCsvBytes(const std::vector<harness::NamedTrial>& trials,
                          const std::string& tag) {
  return testutil::CsvBytes(
      testutil::RunFixedGrid(testutil::FixedSpec({0.0, 1e-5, 1e-3, 0.05}, 5, 71),
                             trials, 1),
      "engine_" + tag);
}

// The headline guarantee: whole sweep CSVs (success rates, median metrics,
// mean flop counts) are byte-identical between the engines at every rate.
TEST(BlockEngine, GoldenSweepCsvByteIdenticalAcrossEngines) {
  const apps::LsqProblem problem = apps::MakeRandomLsqProblem(23, 7, 5);
  const std::string scalar = SweepCsvBytes(
      {{"SGD+AS,LS", LsqSgdTrial(Engine::kScalar, &problem)},
       {"CG,N=10", CglsTrial(Engine::kScalar, &problem)}},
      "scalar");
  const std::string block = SweepCsvBytes(
      {{"SGD+AS,LS", LsqSgdTrial(Engine::kBlock, &problem)},
       {"CG,N=10", CglsTrial(Engine::kBlock, &problem)}},
      "block");
  EXPECT_FALSE(scalar.empty());
  EXPECT_EQ(scalar, block);
}

}  // namespace
