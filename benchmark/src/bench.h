// Shared pieces of the robustify benchmark: the per-run correctness ledger,
// the trial log that wraps every scenario TrialFn, per-repetition results,
// and the workload interface that main.cpp times from outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/scenarios.h"
#include "telemetry/attribution.h"
#include "telemetry/telemetry.h"

namespace bench {

namespace campaign = robustify::campaign;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to);

// Every operation and correctness check of a run: a query answered
// ok=false, a thrown campaign, or a failed check counts as failed.
class Ledger {
 public:
  // Records one attempted operation or check; prints `what` when !ok.
  void Record(bool ok, const std::string& what);
  long attempted() const { return attempted_; }
  long failed() const { return failed_; }

 private:
  long attempted_ = 0;
  long failed_ = 0;
};

// One call of a scenario TrialFn, as seen where the harness calls the app.
struct TrialSample {
  int series = 0;
  double rate = 0.0;
  double start_s = 0.0;  // since the last Restart()
  double ms = 0.0;
  std::uint64_t flops = 0;
  std::uint64_t faults = 0;
};

// Collects a TrialSample for every call of a wrapped TrialFn, from any
// worker thread.  Wrapped scenarios hold a pointer to the log, so it must
// outlive them and is neither copied nor moved.
class TrialLog {
 public:
  TrialLog() = default;
  TrialLog(const TrialLog&) = delete;
  TrialLog& operator=(const TrialLog&) = delete;

  // The scenario with every series' TrialFn timed and its fault counters
  // recorded; each call also emits a `trial` span when recording.
  campaign::Scenario Wrap(const campaign::Scenario& scenario);

  // Clears the log and restarts its clock.
  void Restart();
  std::vector<TrialSample> Take();

 private:
  std::mutex mu_;
  std::vector<TrialSample> samples_;  // guarded by mu_
  Clock::time_point origin_ = Clock::now();
};

// What one measured repetition produced.
struct Rep {
  bool traced = false;
  double wall_s = 0.0;
  std::vector<double> request_ms;  // per trial (campaigns) or per query
  // Work counts: must repeat exactly in every repetition at one seed.
  std::map<std::string, double> counts;
  // Per-layer timings (meaningful on traced repetitions).
  std::map<std::string, double> timings;
};

// Counter and attribution deltas around a measured phase.
class LayerProbe {
 public:
  LayerProbe();
  // Adds counter-derived counts and attribution-derived timings to `rep`.
  void Finish(Rep* rep) const;
  // Counter delta since construction (callers need exact injector totals).
  robustify::telemetry::CounterSnapshot CounterDelta() const;

 private:
  robustify::telemetry::CounterSnapshot counters_;
  robustify::telemetry::AttributionSnapshot attribution_;
};

// Per-layer timings derived from the wrapped trials of one repetition.
void AddTrialTimings(const std::vector<TrialSample>& trials, int threads,
                     double wall_s, Rep* rep);

class Workload {
 public:
  virtual ~Workload() = default;
  // Everything outside the timed phase; timed by main.cpp, repeatable.
  virtual void Setup() = 0;
  // One measured repetition, with its own correctness checks.
  virtual Rep Run(bool traced, Ledger* ledger) = 0;
  // Extra facts recorded with the result (journal sizes, digests...).
  virtual std::map<std::string, std::string> Info() const = 0;
};

// Digests recorded for one (workload, seed): the CSV the workload exports
// (for query_mix, its set-up campaign's CSV) and CountsText() of a
// repetition.
struct Reference {
  const char* workload;
  std::uint64_t seed;
  std::uint64_t csv_digest;
  std::uint64_t counts_digest;
};

// Null when no digests are recorded for the seed.
const Reference* FindReference(const std::string& workload, std::uint64_t seed);

std::uint64_t Fnv1a(const std::string& bytes);

// The work counts a repetition must reproduce exactly at one seed, one
// `name=value` line each.
std::string CountsText(const Rep& rep);

// Null when `name` is not a workload.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed, int max_threads,
                                       const std::string& dir);

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

}  // namespace bench
