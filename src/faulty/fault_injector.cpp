#include "faulty/fault_injector.h"

#include <cstdlib>
#include <cstring>
#include <string>

#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace robustify::faulty {

// ROBUSTIFY_INJECTOR=skip|perop forces a strategy for every kAuto injector
// (measurement and A/B testing knob; the perop CI leg keeps the oracle from
// rotting).  Read once per process.
FaultInjector::Strategy EnvInjectorStrategy() {
  static const FaultInjector::Strategy cached = [] {
    const char* env = std::getenv("ROBUSTIFY_INJECTOR");
    if (env != nullptr) {
      const std::string value(env);
      if (value == "skip" || value == "skipahead" || value == "skip-ahead") {
        return FaultInjector::Strategy::kSkipAhead;
      }
      if (value == "perop" || value == "per-op") {
        return FaultInjector::Strategy::kPerOp;
      }
    }
    return FaultInjector::Strategy::kAuto;
  }();
  return cached;
}

// ROBUSTIFY_RNG=fused|split pins the per-fault draw layout for every kAuto
// scope (split remains the default).  Read once per process.
RngMode EnvRngMode() {
  static const RngMode cached = [] {
    const char* env = std::getenv("ROBUSTIFY_RNG");
    if (env != nullptr) {
      const std::string value(env);
      if (value == "fused") return RngMode::kFused;
      if (value == "split") return RngMode::kSplit;
    }
    return RngMode::kAuto;
  }();
  return cached;
}

const char* RngModeName(RngMode mode) {
  switch (mode) {
    case RngMode::kFused: return "fused";
    case RngMode::kSplit: return "split";
    case RngMode::kAuto: break;
  }
  return "";
}

FaultInjector::FaultInjector(double fault_rate, const BitDistribution& bits,
                             std::uint64_t seed, Strategy strategy, RngMode rng)
    : bits_(&bits), rng_(seed ^ kSeedSalt) {
  if (fault_rate <= 0.0) {
    threshold_ = 0;
  } else if (fault_rate >= 1.0) {
    threshold_ = kNever;
  } else {
    threshold_ = static_cast<std::uint64_t>(fault_rate * 18446744073709551616.0);
    if (threshold_ == 0) threshold_ = 1;
    gaps_ = &GeometricGapSampler::Shared(fault_rate);
  }

  bulk_profitable_ = fault_rate < kBulkProfitableMaxRate;

  if (strategy == Strategy::kAuto) strategy = EnvInjectorStrategy();
  // Skip-ahead covers the whole rate range (the gap sampler's alias table
  // keeps the per-fault cost flat even at rate 0.5); per-op exists only as
  // the explicitly requested reference oracle.
  per_op_ = strategy == Strategy::kPerOp;

  if (rng == RngMode::kAuto) rng = EnvRngMode();
  // The fused layout only applies where a fault draws gap + bit together:
  // the skip-ahead strategy at rates with a gap sampler.  The per-op
  // oracle keeps its historical split stream.
  fused_ = rng == RngMode::kFused && !per_op_ && gaps_ != nullptr;

  lean_ = !per_op_ && !fused_ && gaps_ != nullptr;

  if (per_op_) {
    countdown_ = 0;  // every op takes the fault path's Bernoulli decision
  } else if (threshold_ == 0) {
    countdown_ = kNever;
    scheduled_ = kNever;
  } else if (threshold_ == kNever) {
    countdown_ = 0;  // rate 1: every op faults
    scheduled_ = 0;
  } else {
    countdown_ = SampleGap();
    scheduled_ = countdown_;
  }
}

FaultInjector::FaultInjector(double fault_rate, const BitDistribution& bits,
                             std::uint64_t seed, const FaultModel& model,
                             Strategy strategy, RngMode rng)
    : FaultInjector(fault_rate, bits, seed, strategy, rng) {
  model_ = model;
  // kAuto is taken as kTransient here by contract: the environment override
  // is resolved by the scope layer (core::WithFaultyFpu), so directly
  // constructed injectors are immune to ROBUSTIFY_FAULT_MODEL.
  if (model_.temporal == Temporal::kAuto) model_.temporal = Temporal::kTransient;
  // Clamp the sampled-law parameters into their supported domains once, so
  // the per-fault samplers and window bookkeeping never re-validate.
  if (!(model_.stuck_mean_ops >= 1.0)) model_.stuck_mean_ops = 1.0;
  if (model_.burst_width_max < 1) model_.burst_width_max = 1;
  if (model_.burst_width_max > 64) model_.burst_width_max = 64;
  if (!(model_.window_mean_ops >= 1.0)) model_.window_mean_ops = 1.0;
  if (!(model_.window_rate >= 0.0)) model_.window_rate = 0.0;
  if (model_.window_rate > 1.0) model_.window_rate = 1.0;
  model_default_ = IsDefaultModel(model_);
  if (!model_default_) {
    routes_loads_ = (model_.op_classes & kOpClassMemory) != 0;
    if (model_.window_rate > 0.0) {
      window_threshold_ = model_.window_rate >= 1.0
                              ? kNever
                              : static_cast<std::uint64_t>(
                                    model_.window_rate * 18446744073709551616.0);
      if (window_threshold_ == 0) window_threshold_ = 1;
    }
    // Non-default models always draw split RNG words: the fused gap+bit
    // layout is an optimization of the default transient stream only.
    fused_ = false;
    lean_ = false;
  }
}

FaultInjector::~FaultInjector() {
  if (gaps_ != nullptr) {
    telemetry::Count(gaps_->uses_table() ? telemetry::Counter::kGapDrawsTable
                                         : telemetry::Counter::kGapDrawsInvCdf,
                     gap_draws_);
  }
  telemetry::Count(telemetry::Counter::kGapDrawsFused, fused_gap_draws_);
  telemetry::ObserveBuckets(telemetry::Histogram::kInjectorCleanRun, clean_run_hist_);
}

// Number of clean ops before the next fault: K ~ Geometric(rate),
// P(K = k) = rate * (1 - rate)^k, drawn from the shared per-rate sampler
// (alias table at high rates, inverse CDF at low ones — see gap_sampler.h).
std::uint64_t FaultInjector::SampleGap() {
  ++gap_draws_;
  return gaps_->Sample(rng_);
}

// Fused layout: the gap half of a word the caller already drew.
std::uint64_t FaultInjector::SampleGapFused(std::uint32_t u) {
  ++fused_gap_draws_;
  return gaps_->SampleFused(u, rng_);
}

// One clean-run observation for the kInjectorCleanRun histogram.
void FaultInjector::RecordCleanRun(std::uint64_t gap) {
  ++clean_run_hist_[telemetry::Log2Bucket(gap)];
}

double FaultInjector::FlipBit(double value, int bit) {
  std::uint64_t word;
  std::memcpy(&word, &value, sizeof(word));
  word ^= (1ull << bit);
  std::memcpy(&value, &word, sizeof(value));
  return value;
}

double FaultInjector::Corrupt(double value) {
  ++faults_arith_;
  return FlipBit(value, bits_->sample(rng_));
}

// The lean per-fault path: draw the next gap, re-arm the countdown, flip
// one bit.  RNG order (gap word(s), then the bit word) is the historical
// default stream.
double FaultInjector::FaultPath(double clean_result) {
  if (ROBUSTIFY_UNLIKELY(!lean_)) return ColdFaultPath(clean_result);
  const std::uint64_t gap = SampleGap();
  scheduled_ += gap + 1;  // this op plus the next clean stretch
  countdown_ = gap;
  RecordCleanRun(gap);
  telemetry::FaultInstant();
  return Corrupt(clean_result);
}

bool FaultInjector::FaultPathComparison(bool clean_result) {
  if (ROBUSTIFY_UNLIKELY(!lean_)) return ColdFaultPathComparison(clean_result);
  const std::uint64_t gap = SampleGap();
  scheduled_ += gap + 1;
  countdown_ = gap;
  ++faults_compare_;
  RecordCleanRun(gap);
  telemetry::FaultInstant();
  return !clean_result;
}

double FaultInjector::ColdFaultPath(double clean_result) {
  if (!model_default_) return ModelFault(clean_result, kOpClassArith);
  if (per_op_) {
    // The reference oracle: one Bernoulli draw per op.
    ++scheduled_;
    if (threshold_ != 0 && rng_.next() < threshold_) return Corrupt(clean_result);
    return clean_result;
  }
  if (threshold_ == 0) {
    // Rate 0 (reachable only after 2^64-1 ops): re-arm without faulting.
    // scheduled_ += kNever + 1 is += 0 mod 2^64, so the invariant
    // flops = scheduled_ - countdown_ still counts this op.
    countdown_ = kNever;
    return clean_result;
  }
  if (threshold_ == kNever) {
    // Rate 1: every op faults; no gap to sample (gaps_ is null here).
    scheduled_ += 1;
    return Corrupt(clean_result);
  }
  // Fused: one word pays for the whole fault — high half seeds the gap
  // draw, low half the bit draw.
  const std::uint64_t u = rng_.next();
  const std::uint64_t gap = SampleGapFused(static_cast<std::uint32_t>(u >> 32));
  scheduled_ += gap + 1;
  countdown_ = gap;
  ++faults_arith_;
  RecordCleanRun(gap);
  telemetry::FaultInstant();
  return FlipBit(clean_result, bits_->sample_fused(static_cast<std::uint32_t>(u)));
}

bool FaultInjector::ColdFaultPathComparison(bool clean_result) {
  if (!model_default_) return ModelComparisonFault(clean_result);
  if (per_op_) {
    ++scheduled_;
    if (threshold_ != 0 && rng_.next() < threshold_) {
      ++faults_compare_;
      return !clean_result;
    }
    return clean_result;
  }
  if (threshold_ == 0) {
    countdown_ = kNever;
    return clean_result;
  }
  if (threshold_ == kNever) {
    scheduled_ += 1;
    ++faults_compare_;
    return !clean_result;
  }
  // Fused: a comparison fault flips the predicate instead of a stored bit,
  // so only the gap half of the word is consumed.
  const std::uint64_t gap =
      SampleGapFused(static_cast<std::uint32_t>(rng_.next() >> 32));
  scheduled_ += gap + 1;
  countdown_ = gap;
  ++faults_compare_;
  RecordCleanRun(gap);
  telemetry::FaultInstant();
  return !clean_result;
}

// ---- non-default temporal models --------------------------------------------
//
// Everything below runs only when model_default_ is false.  The default
// transient stream never reaches these paths, so the pre-model goldens
// (tests/test_model_golden.cpp) stay byte-identical by construction.

void FaultInjector::CountClassFault(unsigned op_class) {
  if (op_class == kOpClassArith) {
    ++faults_arith_;
  } else if (op_class == kOpClassCompare) {
    ++faults_compare_;
  } else {
    ++faults_memory_;
  }
  telemetry::FaultInstant();
}

// One transient single-bit corruption attributed to `op_class` — the model
// analog of Corrupt() with per-class accounting.
double FaultInjector::CorruptClass(double value, unsigned op_class) {
  CountClassFault(op_class);
  return FlipBit(value, bits_->sample(rng_));
}

// Samples a stuck bit, its stuck value, and the window duration, then arms
// the forcing masks.  Shared by the arithmetic and comparison fire paths —
// a comparator fault latches the same datapath bit even though the
// predicate itself carries no result word to force.
void FaultInjector::ArmStuckWindow() {
  const int bit = bits_->sample(rng_);
  const bool stuck_one = (rng_.next() & 1) != 0;
  const std::uint64_t duration = SampleStuckDuration(model_.stuck_mean_ops, rng_);
  OpenWindow(duration);
  stuck_or_ = stuck_one ? (1ull << bit) : 0;
  stuck_and_ = stuck_one ? ~0ull : ~(1ull << bit);
}

// Opens (or, from a nested fire, replaces) a sticky window of `length`
// routed ops.  On first open in skip-ahead mode the remainder of the live
// gap moves to pending_gap_ and countdown_ is pinned at zero: CleanRun()
// reports 0, bulk clean runs are disabled, and every routed op takes the
// model path until the window expires.  scheduled_ gives the suspended gap
// back so the flops invariant (scheduled_ - countdown_) is unchanged by the
// suspension; windowed ops then bump scheduled_ one by one.
void FaultInjector::OpenWindow(std::uint64_t length) {
  ++windows_opened_;
  const bool was_open = window_ops_left_ != 0;
  window_ops_left_ = length;
  if (!per_op_ && !was_open) {
    pending_gap_ = countdown_;
    scheduled_ -= pending_gap_;
    countdown_ = 0;
  }
}

// Restores the base schedule suspended by OpenWindow and clears the stuck
// forcing masks.
void FaultInjector::CloseWindow() {
  stuck_or_ = 0;
  stuck_and_ = ~0ull;
  if (!per_op_) {
    countdown_ = pending_gap_;
    scheduled_ += pending_gap_;
    pending_gap_ = 0;
  }
}

// Applies one scheduled fault to an arithmetic or memory-load result under
// the active temporal model.  A fault landing on a masked-out op class
// re-arms the schedule without corrupting (the caller already consumed the
// gap draw), so each enabled class independently sees the configured rate
// and a disabled class sees exactly zero.
double FaultInjector::FireScheduledFault(double value, unsigned op_class) {
  if ((model_.op_classes & op_class) == 0) return value;
  switch (model_.temporal) {
    case Temporal::kTransient:
      return CorruptClass(value, op_class);
    case Temporal::kBurst: {
      // k adjacent bits flip starting at the sampled base position,
      // clamped at the top of the word.
      const int base = bits_->sample(rng_);
      const int width = SampleBurstWidth(model_.burst_width_max, rng_);
      CountClassFault(op_class);
      std::uint64_t word;
      std::memcpy(&word, &value, sizeof(word));
      for (int b = base; b < base + width && b < 64; ++b) word ^= 1ull << b;
      std::memcpy(&value, &word, sizeof(value));
      return value;
    }
    case Temporal::kStuckAt:
      // The forcing (and the per-op fault accounting) is applied by the
      // window-effect step in ModelFault, so the opening op is covered too.
      ArmStuckWindow();
      return value;
    case Temporal::kIntermittent:
      // The opening fault corrupts like a transient and starts the
      // high-rate window.
      OpenWindow(SampleWindowLength(model_.window_mean_ops, rng_));
      return CorruptClass(value, op_class);
    case Temporal::kAuto: break;  // resolved away in the constructor
  }
  return value;
}

CarriedWindow FaultInjector::ExportWindow() const {
  CarriedWindow window;
  if (model_default_ || window_ops_left_ == 0) return window;
  window.ops_left = window_ops_left_;
  window.stuck_or = stuck_or_;
  window.stuck_and = stuck_and_;
  window.temporal = model_.temporal;
  return window;
}

void FaultInjector::AdoptWindow(const CarriedWindow& window) {
  if (!window.live() || model_default_ || model_.temporal != window.temporal) {
    return;
  }
  // Suspend the fresh gap schedule exactly as OpenWindow does on first open
  // (adoption happens right after construction, before any routed op, but
  // guard on an already-open window for safety).
  if (!per_op_ && window_ops_left_ == 0) {
    pending_gap_ = countdown_;
    scheduled_ -= pending_gap_;
    countdown_ = 0;
  }
  window_ops_left_ = window.ops_left;
  stuck_or_ = window.stuck_or;
  stuck_and_ = window.stuck_and;
}

// The whole per-op decision for arithmetic/load results under a non-default
// model: schedule bookkeeping (fresh gap, suspended-gap countdown inside a
// window, or the per-op Bernoulli oracle), firing, and the live window
// effect.  Reached via FaultPath / the per-op branch / ExecuteLoad, always
// with countdown_ == 0.
double FaultInjector::ModelFault(double clean_result, unsigned op_class) {
  const bool in_window = window_ops_left_ != 0;
  bool fire = false;
  if (per_op_) {
    ++scheduled_;
    fire = threshold_ != 0 && rng_.next() < threshold_;
  } else if (in_window) {
    // The window pins countdown_ at 0; the base gap schedule keeps running
    // in pending_gap_ so the scheduled fault rate is unchanged inside the
    // window.  Each windowed op is accounted for individually.
    ++scheduled_;
    if (threshold_ == kNever) {
      fire = true;
    } else if (threshold_ != 0) {
      if (pending_gap_ == 0) {
        fire = true;
        pending_gap_ = SampleGap();
      } else {
        --pending_gap_;
      }
    }
  } else {
    if (threshold_ == 0) {
      // Rate 0: re-arm without faulting, exactly like the default path.
      countdown_ = kNever;
      return clean_result;
    }
    const std::uint64_t gap = threshold_ == kNever ? 0 : SampleGap();
    scheduled_ += gap + 1;
    countdown_ = gap;
    fire = true;
    RecordCleanRun(gap);
  }
  double result = clean_result;
  if (fire) result = FireScheduledFault(result, op_class);
  if (window_ops_left_ != 0) {
    if (model_.temporal == Temporal::kStuckAt) {
      if ((model_.op_classes & op_class) != 0) {
        // The stuck line drives its bit on every routed op in the window, so
        // every forced op counts as a fault — including ops whose result
        // already carried the stuck value.  Counting only value-changing ops
        // would make the count depend on the exact bits of intermediate
        // results, which are not stable across kernel engines (bulk loops
        // and per-scalar code round identically but the compiler is free to
        // schedule them differently); the structural count depends only on
        // the op stream and window placement, which are.
        CountClassFault(op_class);
        std::uint64_t word;
        std::memcpy(&word, &result, sizeof(word));
        const std::uint64_t forced = (word | stuck_or_) & stuck_and_;
        std::memcpy(&result, &forced, sizeof(result));
      }
    } else if (model_.temporal == Temporal::kIntermittent) {
      // Ops that already fired the scheduled fault skip the in-window
      // Bernoulli; everything else in an enabled class faults at
      // window_rate.  One RNG word per windowed op keeps the stream shape
      // independent of the outcome.
      if (!fire && (model_.op_classes & op_class) != 0 &&
          rng_.next() < window_threshold_) {
        result = CorruptClass(result, op_class);
      }
    }
    --window_ops_left_;
    if (window_ops_left_ == 0) CloseWindow();
  }
  return result;
}

// Comparison analog of ModelFault.  Predicates carry no result word:
// transient and burst invert the outcome, a stuck fault opens its window
// without altering the predicate (the stuck bit lives in the datapath, not
// the flag), and intermittent inverts + opens.
bool FaultInjector::ModelComparisonFault(bool clean_result) {
  const bool in_window = window_ops_left_ != 0;
  bool fire = false;
  if (per_op_) {
    ++scheduled_;
    fire = threshold_ != 0 && rng_.next() < threshold_;
  } else if (in_window) {
    ++scheduled_;
    if (threshold_ == kNever) {
      fire = true;
    } else if (threshold_ != 0) {
      if (pending_gap_ == 0) {
        fire = true;
        pending_gap_ = SampleGap();
      } else {
        --pending_gap_;
      }
    }
  } else {
    if (threshold_ == 0) {
      countdown_ = kNever;
      return clean_result;
    }
    const std::uint64_t gap = threshold_ == kNever ? 0 : SampleGap();
    scheduled_ += gap + 1;
    countdown_ = gap;
    fire = true;
    RecordCleanRun(gap);
  }
  bool result = clean_result;
  if (fire && (model_.op_classes & kOpClassCompare) != 0) {
    switch (model_.temporal) {
      case Temporal::kTransient:
      case Temporal::kBurst:
        // No word for a burst to spread across: both invert the predicate
        // (and draw nothing extra — the width has nowhere to land).
        CountClassFault(kOpClassCompare);
        result = !result;
        break;
      case Temporal::kStuckAt:
        ArmStuckWindow();
        break;
      case Temporal::kIntermittent:
        OpenWindow(SampleWindowLength(model_.window_mean_ops, rng_));
        CountClassFault(kOpClassCompare);
        result = !result;
        break;
      case Temporal::kAuto: break;
    }
  }
  if (window_ops_left_ != 0) {
    if (model_.temporal == Temporal::kIntermittent && !fire &&
        (model_.op_classes & kOpClassCompare) != 0 &&
        rng_.next() < window_threshold_) {
      CountClassFault(kOpClassCompare);
      result = !result;
    }
    --window_ops_left_;
    if (window_ops_left_ == 0) CloseWindow();
  }
  return result;
}

}  // namespace robustify::faulty
