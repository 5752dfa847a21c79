// Sequential CI-driven trial allocation for one campaign cell.
//
// A (series, fault-rate) cell of a success-rate sweep settles statistically
// long before a generous fixed budget is spent — a rate-0 cell succeeds
// every time, a far-past-the-cliff cell fails every time, and only cells on
// the figure's transition need many trials.  The controller implements a
// sequential stopping rule on the Wilson 95% score interval of the success
// fraction: scanning trial outcomes in seed order, a cell stops at the
// first trial count n >= min_trials whose interval half-width is <= the
// target (or at the budget cap).
//
// Determinism contract: the stopping point is a pure function of the
// outcome sequence in trial-index order, and trial t of a cell always runs
// with seed base_seed + t (harness::RunSingleTrial).  The runner issues a
// trial only once it is certain to be needed — every trial below the
// cell's horizon() — so no execution schedule ever runs a trial past the
// stopping point: the executed set, and with it every accepted tally and
// injector counter, is bit-identical for any thread count or batch size,
// and an adaptive cell is always an exact prefix of the fixed sweep at the
// same seed.
#pragma once

namespace robustify::campaign {

struct AdaptiveConfig {
  int min_trials = 4;   // floor before the stopping rule may fire
  int max_trials = 100; // budget cap per cell
  double ci_half_width = 0.15;  // target Wilson 95% half-width (fraction)
};

// Half-width of the Wilson 95% score interval for `successes` out of
// `trials`.  Returns +inf for trials == 0 (no information).
double WilsonHalfWidth(int successes, int trials);

// Feeds outcomes one at a time, in trial-index order, and reports when the
// stopping rule fires.  Record() must not be called once done().
class CellController {
 public:
  explicit CellController(const AdaptiveConfig& config);

  // Index of the next trial to run (= outcomes recorded so far).
  int next_trial() const { return trials_; }
  int trials() const { return trials_; }
  int successes() const { return successes_; }
  bool done() const { return done_; }
  // True when done() fired because the interval met the target (rather
  // than the budget running out).
  bool settled() const { return settled_; }

  void Record(bool success);

  // The smallest trial count n > trials() at which the rule could fire for
  // *some* outcomes of trials trials()..n-1: the first n >= min_trials
  // where a reachable success count meets the CI target, else max_trials.
  // Trials below the horizon are certain to run whatever they return; the
  // horizon only grows as outcomes are recorded.  Must not be called once
  // done().
  int horizon() const;

 private:
  AdaptiveConfig config_;
  int trials_ = 0;
  int successes_ = 0;
  bool done_ = false;
  bool settled_ = false;
};

}  // namespace robustify::campaign
