// Per-thread FP fault injector.
//
// Models the paper's "stochastic processor": a voltage-overscaled FPU whose
// arithmetic results are occasionally corrupted by a single-bit upset, while
// the integer/control core stays reliable.  Every faulty::Real arithmetic
// operation routes its IEEE-754 double result through the thread-local
// injector, which counts the op and, with probability `fault_rate`, flips
// one bit sampled from the configured BitDistribution.
//
// Hot path (geometric skip-ahead): instead of one Bernoulli RNG draw per
// op, the injector samples the number of clean ops until the next fault
// once per *fault* — from a shared per-rate GeometricGapSampler.  The work
// splits three ways:
//  * one inlined compare-and-decrement per op: Execute() and its
//    comparison twin are forced inline into every kernel, so a clean op is
//    a load, a test, and a store of the countdown;
//  * a lean out-of-line fault path (FaultPath) for the default transient
//    model: draw the next gap, re-arm the countdown, flip one bit — with
//    branch-free LFSR and alias-table draws, and telemetry tallied in
//    injector members, folded into the thread's shard once per scope;
//  * a cold path for everything else: non-default temporal models, the
//    per-op Bernoulli oracle, the fused RNG layout, and rates 0 and 1.
// The gap sampler's alias-table form keeps the per-fault cost at one draw
// + one probe even when a fault lands every few ops, so skip-ahead is the
// single strategy for the whole rate range (1e-7 .. 0.5 and beyond); the
// original per-op Bernoulli implementation survives only as the
// statistical test oracle, selectable explicitly or via
// ROBUSTIFY_INJECTOR=perop.  Flop accounting stays exact in both modes
// (skip-ahead derives it from the scheduled-gap arithmetic, so the hot path
// does not even touch a counter), and a fixed seed + strategy still
// reproduces the trial bit-for-bit.  Note: the *fault stream* for a given
// seed differs between the strategies — they are statistically, not
// bitwise, equivalent (tests/test_statistical.cpp holds them to that).
#pragma once

#include <cstdint>

#include "faulty/bit_distribution.h"
#include "faulty/fault_model.h"
#include "faulty/gap_sampler.h"
#include "faulty/lfsr.h"
#include "telemetry/telemetry.h"

// The countdown branch is taken for all but ~rate of the ops; telling the
// compiler keeps the fault machinery out of the fall-through path.  The
// per-op entry points are forced inline: left to the inliner's budget, a
// large objective (SortObjective<Real>::Value) kept 16 of its calls to them
// out of line, a call per op.
#if defined(__GNUC__) || defined(__clang__)
#define ROBUSTIFY_LIKELY(x) __builtin_expect(!!(x), 1)
#define ROBUSTIFY_UNLIKELY(x) __builtin_expect(!!(x), 0)
#define ROBUSTIFY_ALWAYS_INLINE [[gnu::always_inline]] inline
#define ROBUSTIFY_NOINLINE [[gnu::noinline]]
#define ROBUSTIFY_COLD [[gnu::cold, gnu::noinline]]
#else
#define ROBUSTIFY_LIKELY(x) (x)
#define ROBUSTIFY_UNLIKELY(x) (x)
#define ROBUSTIFY_ALWAYS_INLINE inline
#define ROBUSTIFY_NOINLINE
#define ROBUSTIFY_COLD
#endif

namespace robustify::faulty {

// Accounting for one activation scope (see core::WithFaultyFpu).
struct ContextStats {
  std::uint64_t faulty_flops = 0;    // FP ops executed on the faulty FPU
  std::uint64_t faults_injected = 0; // how many of them were corrupted
  // Corruptions split by op class (they sum to faults_injected), plus the
  // number of sticky/intermittent windows the temporal model opened.  All
  // zero except faults_arith/faults_compare under the default model.
  std::uint64_t faults_arith = 0;
  std::uint64_t faults_compare = 0;
  std::uint64_t faults_memory = 0;
  std::uint64_t windows_opened = 0;
};

// How many LFSR words one fault costs.  Split (the historical default)
// spends one word on the gap draw and one on the bit-position draw; fused
// carves both out of a single word — high 32 bits pick the gap, low 32 the
// bit — halving the per-fault RNG cost that dominates high-rate cells
// (every alias probe then reads a 26-bit residual against the top 26 bits
// of the 58-bit stay thresholds; the 2^-26 probability quantization is far
// below what the statistical gates can resolve, and
// tests/test_statistical.cpp holds the fused stream to the same
// chi-square/KS criteria as the split one).  The fault *streams* differ
// between modes for a fixed seed — they are statistically, not bitwise,
// equivalent, exactly like the skip-ahead/per-op strategy pair.
enum class RngMode {
  kAuto,   // defer to ROBUSTIFY_RNG, else split
  kSplit,  // one word per draw: gap, then bit position
  kFused,  // one word per fault: high 32 bits gap, low 32 bits bit
};

// The ROBUSTIFY_RNG override every kAuto scope resolves through: kFused for
// "fused", kSplit for "split", kAuto when unset or unrecognized.  Cached on
// first use.
RngMode EnvRngMode();

// Perf-report label for a mode: "fused", "split", or "" for kAuto (the
// unset default; perf JSON writers omit the field).  One mapping shared by
// every report producer so the JSONs cannot drift.
const char* RngModeName(RngMode mode);

// A live sticky (stuck-at / intermittent) window snapshotted at injector
// scope exit so the next scope of the same trial can resume it — a stuck
// line in silicon doesn't heal between kernel calls (see
// core::TrialFaultScope).  Dead (ops_left == 0) under the default model and
// for scopes whose window expired naturally.
struct CarriedWindow {
  std::uint64_t ops_left = 0;
  std::uint64_t stuck_or = 0;       // stuck-at-1 forcing mask
  std::uint64_t stuck_and = ~0ull;  // stuck-at-0 forcing mask
  Temporal temporal = Temporal::kTransient;
  bool live() const { return ops_left != 0; }
};

class FaultInjector {
 public:
  enum class Strategy {
    kAuto,       // skip-ahead, unless ROBUSTIFY_INJECTOR overrides
    kSkipAhead,  // geometric countdown (the production strategy, all rates)
    kPerOp,      // per-op Bernoulli draw (reference oracle for the tests)
  };

  // The injector's LFSR runs from `seed ^ kSeedSalt`: a test that replays
  // the gap stream outside the injector seeds its own Lfsr the same way.
  static constexpr std::uint64_t kSeedSalt = 0xA5A5A5A55A5A5A5Aull;

  // `bits` is captured by pointer and must outlive the injector; use
  // SharedBitDistribution() for the built-in models.  kAuto resolves via
  // the ROBUSTIFY_INJECTOR environment variable ("skip" or "perop") when
  // set, else to kSkipAhead; rng kAuto resolves via ROBUSTIFY_RNG, else to
  // kSplit (the per-op oracle always draws split, preserving its stream).
  FaultInjector(double fault_rate, const BitDistribution& bits, std::uint64_t seed,
                Strategy strategy = Strategy::kAuto, RngMode rng = RngMode::kAuto);
  // Fault-model form.  `model.temporal == kAuto` is taken as kTransient
  // here — the ROBUSTIFY_FAULT_MODEL override is resolved by the scope
  // layer (core::WithFaultyFpu via ResolveFaultModel), never by the
  // injector itself, so tests and benches that construct injectors
  // directly are immune to the env override.  Non-default models always
  // draw split RNG words (the fused layout applies only to the default
  // transient model).
  FaultInjector(double fault_rate, const BitDistribution& bits, std::uint64_t seed,
                const FaultModel& model, Strategy strategy = Strategy::kAuto,
                RngMode rng = RngMode::kAuto);
  // A temporary would dangle (only a pointer is kept); make it a compile
  // error instead of a use-after-free on the first injected fault.
  FaultInjector(double fault_rate, BitDistribution&& bits, std::uint64_t seed,
                Strategy strategy = Strategy::kAuto, RngMode rng = RngMode::kAuto) = delete;

  // Folds the scope's gap-draw counts and clean-run histogram into the
  // thread's telemetry shard (the per-fault path only tallies them here).
  ~FaultInjector();
  // A copy would fold the same tallies twice.
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Hot path: clean until the countdown expires, then the out-of-line fault
  // path.  In per-op mode the countdown is pinned to zero, so every op
  // takes the cold path's Bernoulli decision.
  ROBUSTIFY_ALWAYS_INLINE double Execute(double clean_result) {
    const std::uint64_t remaining = countdown_;
    if (ROBUSTIFY_LIKELY(remaining != 0)) {
      countdown_ = remaining - 1;
      return clean_result;
    }
    return FaultPath(clean_result);
  }

  // FP comparisons run through the subtractor and the comparator flags; a
  // timing fault there inverts the predicate outcome.
  ROBUSTIFY_ALWAYS_INLINE bool ExecuteComparison(bool clean_result) {
    const std::uint64_t remaining = countdown_;
    if (ROBUSTIFY_LIKELY(remaining != 0)) {
      countdown_ = remaining - 1;
      return clean_result;
    }
    return FaultPathComparison(clean_result);
  }

  // Memory-load corruption (op class kOpClassMemory): the linalg kernel
  // layer routes element reads through here when the model enables the
  // class (callers must check routes_loads() first — the default model
  // keeps loads entirely off the injector, preserving the historical op
  // stream).  A routed load counts as one scheduled op, exactly like an
  // arithmetic result.
  ROBUSTIFY_ALWAYS_INLINE double ExecuteLoad(double clean_value) {
    const std::uint64_t remaining = countdown_;
    if (ROBUSTIFY_LIKELY(remaining != 0)) {
      countdown_ = remaining - 1;
      return clean_value;
    }
    return ModelFault(clean_value, kOpClassMemory);
  }

  // True when the active model corrupts memory loads.  Implies a
  // non-default model, so dispatch layers force the templated per-scalar
  // kernels (where the load hooks live) on both engines.
  bool routes_loads() const { return routes_loads_; }

  const FaultModel& model() const { return model_; }

  // ---- block-engine API (src/faulty/block_engine.h, linalg/faulty_blas) --
  //
  // A block kernel executes the next `CleanRun()` ops as one tight loop over
  // raw doubles and then accounts for them with a single ConsumeClean —
  // observationally identical to that many Execute calls (the countdown is
  // the only per-op state, and stats derive from it), but with nothing of
  // the injector on the clean path.  In per-op oracle mode the countdown is
  // pinned at zero, so CleanRun() is 0 and block kernels degrade to the
  // per-scalar boundary path op by op, preserving the oracle's RNG stream.

  // Ops guaranteed clean from now under the deterministic gap schedule.
  // While a sticky window (stuck-at / intermittent) is live the countdown
  // is pinned at zero, so this returns 0 and block kernels degrade to the
  // per-scalar boundary path op by op — which is exactly what keeps the
  // block and scalar engines bit-identical under the sticky models.
  std::uint64_t CleanRun() const { return countdown_; }

  // Accounts for `n` clean ops executed outside Execute().  Precondition:
  // n <= CleanRun().
  void ConsumeClean(std::uint64_t n) { countdown_ -= n; }

  // Above this rate the mean clean run is too short for bulk loops to beat
  // the per-scalar path (the per-fault machinery dominates both), so the
  // block engine's dispatch falls back to the per-scalar loops — which are
  // bit-identical by construction, so the choice is invisible to results.
  static constexpr double kBulkProfitableMaxRate = 1.0 / 32.0;
  bool BulkProfitable() const { return bulk_profitable_; }

  ContextStats stats() const {
    ContextStats s;
    // Single invariant for both strategies (mod 2^64): ops executed =
    // scheduled_ - countdown_.  Skip-ahead keeps countdown_ inside the last
    // sampled gap; per-op mode pins countdown_ at 0 and bumps scheduled_
    // once per op, so the same subtraction is the plain op count.  A live
    // sticky window moves the suspended remainder of the gap to
    // pending_gap_ (outside both terms) and restores it symmetrically on
    // expiry, so the invariant holds through every window transition.
    s.faulty_flops = scheduled_ - countdown_;
    s.faults_injected = faults_arith_ + faults_compare_ + faults_memory_;
    s.faults_arith = faults_arith_;
    s.faults_compare = faults_compare_;
    s.faults_memory = faults_memory_;
    s.windows_opened = windows_opened_;
    return s;
  }

  Strategy strategy() const { return per_op_ ? Strategy::kPerOp : Strategy::kSkipAhead; }
  RngMode rng_mode() const { return fused_ ? RngMode::kFused : RngMode::kSplit; }

  // ---- window hand-off across scopes (core::TrialFaultScope) -------------
  //
  // Historically a live stuck/intermittent window died with its injector
  // scope: a bit reported "stuck" healed the moment one kernel call returned
  // and the next began.  ExportWindow snapshots the live window at scope
  // exit; AdoptWindow re-arms it in the next scope's injector (suspending
  // that injector's gap schedule exactly as OpenWindow would) so the window
  // runs out its remaining ops across scope boundaries.  Adoption is not a
  // new window: stats().windows_opened counts only windows the temporal
  // model opened.  A no-op unless the carried window is live and this
  // injector runs the same non-default temporal model.
  CarriedWindow ExportWindow() const;
  void AdoptWindow(const CarriedWindow& window);

 private:
  static constexpr std::uint64_t kNever = ~0ull;

  // Out of line (src/faulty/fault_injector.cpp).  FaultPath /
  // FaultPathComparison are the lean per-fault paths of the default
  // transient model (lean_); every other configuration falls through to the
  // cold pair, which owns the per-op oracle, the fused RNG layout, rates 0
  // and 1, and the non-default models.
  ROBUSTIFY_NOINLINE double FaultPath(double clean_result);
  ROBUSTIFY_NOINLINE bool FaultPathComparison(bool clean_result);
  ROBUSTIFY_COLD double ColdFaultPath(double clean_result);
  ROBUSTIFY_COLD bool ColdFaultPathComparison(bool clean_result);
  std::uint64_t SampleGap();
  std::uint64_t SampleGapFused(std::uint32_t u);
  void RecordCleanRun(std::uint64_t gap);
  double Corrupt(double value);
  static double FlipBit(double value, int bit);

  // Non-default temporal-model machinery (cold, out of line).  ModelFault /
  // ModelComparisonFault own the whole op under a non-default model:
  // schedule bookkeeping, firing the scheduled fault, and applying any live
  // window effect (stuck-bit forcing, intermittent in-window corruption).
  double ModelFault(double clean_result, unsigned op_class);
  bool ModelComparisonFault(bool clean_result);
  double FireScheduledFault(double value, unsigned op_class);
  void ArmStuckWindow();
  void OpenWindow(std::uint64_t length);
  void CloseWindow();
  double CorruptClass(double value, unsigned op_class);
  void CountClassFault(unsigned op_class);

  // Hot state first: the countdown is all a clean op touches, and the lean
  // fault path reads and writes only the fields up to clean_run_hist_.
  std::uint64_t countdown_ = 0;   // clean ops left before the next fault
  bool lean_ = false;             // default transient model, skip-ahead,
                                  // split RNG, 0 < rate < 1: FaultPath
  const GeometricGapSampler* gaps_ = nullptr;  // null at rates 0 and 1
  const BitDistribution* bits_;
  Lfsr rng_;
  std::uint64_t scheduled_ = 0;   // ops covered: sampled gaps (skip-ahead)
                                  // or one per op (per-op oracle)
  // Corruptions per op class; their sum is stats().faults_injected.
  std::uint64_t faults_arith_ = 0;
  std::uint64_t faults_compare_ = 0;
  std::uint64_t faults_memory_ = 0;
  // Telemetry tallies, folded into the thread's shard by the destructor.
  std::uint64_t gap_draws_ = 0;         // full-word gap draws (Sample)
  std::uint64_t fused_gap_draws_ = 0;   // gap draws from a fused word
  std::uint64_t clean_run_hist_[telemetry::kHistogramBuckets] = {};
  std::uint64_t threshold_ = 0;   // fault_rate scaled to the uint64 range
  bool per_op_ = false;
  bool fused_ = false;            // one LFSR word serves the gap + bit draws
  bool bulk_profitable_ = true;   // rate low enough for bulk clean runs

  // ---- temporal-model state (untouched under the default model) ----------
  FaultModel model_{};
  bool model_default_ = true;     // fast-path flag: skip all of the below
  bool routes_loads_ = false;     // model routes memory loads (kOpClassMemory)
  std::uint64_t window_ops_left_ = 0;  // live stuck/intermittent window ops
  std::uint64_t pending_gap_ = 0;  // skip-ahead gap suspended by the window
  std::uint64_t stuck_or_ = 0;     // live stuck-at-1 forcing mask
  std::uint64_t stuck_and_ = ~0ull;  // live stuck-at-0 forcing mask
  std::uint64_t window_threshold_ = 0;  // window_rate scaled to uint64
  std::uint64_t windows_opened_ = 0;
};

// The ROBUSTIFY_INJECTOR override every kAuto injector resolves through:
// kSkipAhead for "skip"/"skipahead"/"skip-ahead", kPerOp for "perop"/
// "per-op", kAuto when unset or unrecognized.  Cached on first use.
FaultInjector::Strategy EnvInjectorStrategy();

namespace detail {

// The active injector for this thread; null means "clean FPU".
inline thread_local FaultInjector* tls_injector = nullptr;

// Swap the active injector, returning the previous one (for RAII restore).
inline FaultInjector* ExchangeThreadInjector(FaultInjector* next) {
  FaultInjector* prev = tls_injector;
  tls_injector = next;
  return prev;
}

}  // namespace detail

// Routes one FP result through the thread's injector (clean when inactive).
ROBUSTIFY_ALWAYS_INLINE double Execute(double clean_result) {
  FaultInjector* inj = detail::tls_injector;
  return inj ? inj->Execute(clean_result) : clean_result;
}

// Routes one FP comparison outcome through the thread's injector.
ROBUSTIFY_ALWAYS_INLINE bool ExecuteComparison(bool clean_result) {
  FaultInjector* inj = detail::tls_injector;
  return inj ? inj->ExecuteComparison(clean_result) : clean_result;
}

// True when a fault-injection scope is active on this thread.
inline bool InjectorActive() { return detail::tls_injector != nullptr; }

// True when the active scope's model corrupts memory loads — the linalg
// kernels consult this before routing element reads through ExecuteLoad,
// and the engine dispatch forces the templated per-scalar loops (which
// carry the load hooks) whenever it holds.
inline bool LoadsRouted() {
  const FaultInjector* inj = detail::tls_injector;
  return inj != nullptr && inj->routes_loads();
}

// Routes one memory load through the thread's injector.  Callers must have
// checked LoadsRouted(); the null test here is only a safety net for
// kernels instantiated outside a scope.
ROBUSTIFY_ALWAYS_INLINE double ExecuteLoad(double clean_value) {
  FaultInjector* inj = detail::tls_injector;
  return inj ? inj->ExecuteLoad(clean_value) : clean_value;
}

}  // namespace robustify::faulty
