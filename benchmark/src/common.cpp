#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench.h"
#include "core/fault_env.h"
#include "harness/trial.h"
#include "spans.h"

namespace bench {

namespace tel = robustify::telemetry;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

void Ledger::Record(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::cerr << "FAILED: " << what << "\n";
}

campaign::Scenario TrialLog::Wrap(const campaign::Scenario& scenario) {
  campaign::Scenario wrapped = scenario;
  for (std::size_t s = 0; s < wrapped.series.size(); ++s) {
    robustify::harness::TrialFn inner = wrapped.series[s].fn;
    const int series = static_cast<int>(s);
    wrapped.series[s].fn = [this, inner,
                            series](const robustify::core::FaultEnvironment& env) {
      Span span("trial");
      const Clock::time_point start = Clock::now();
      robustify::harness::TrialOutcome out = inner(env);
      const Clock::time_point end = Clock::now();
      TrialSample sample;
      sample.series = series;
      sample.rate = env.fault_rate;
      sample.ms = Seconds(start, end) * 1e3;
      sample.flops = out.fpu_stats.faulty_flops;
      sample.faults = out.fpu_stats.faults_injected;
      std::lock_guard<std::mutex> lock(mu_);
      sample.start_s = Seconds(origin_, start);
      samples_.push_back(sample);
      return out;
    };
  }
  return wrapped;
}

void TrialLog::Restart() {
  std::lock_guard<std::mutex> lock(mu_);
  samples_.clear();
  origin_ = Clock::now();
}

std::vector<TrialSample> TrialLog::Take() {
  std::vector<TrialSample> taken;
  std::lock_guard<std::mutex> lock(mu_);
  taken.swap(samples_);
  return taken;
}

LayerProbe::LayerProbe()
    : counters_(tel::SnapshotCounters()), attribution_(tel::SnapshotAttribution()) {}

tel::CounterSnapshot LayerProbe::CounterDelta() const {
  tel::CounterSnapshot now = tel::SnapshotCounters();
  for (int c = 0; c < tel::kNumCounters; ++c) {
    now.counters[c] -= counters_.counters[c];
  }
  return now;
}

void LayerProbe::Finish(Rep* rep) const {
  using C = tel::Counter;
  const tel::CounterSnapshot d = CounterDelta();
  const auto v = [&](C c) { return static_cast<double>(d.value(c)); };
  std::map<std::string, double>& n = rep->counts;
  n["campaign.trials"] = v(C::kCampaignTrials);
  n["checkpoint.flushes"] = v(C::kCheckpointFlushes);
  n["sgd.iterations"] = v(C::kSgdIterations);
  const double decisions = v(C::kSgdAccepts) + v(C::kSgdRejects);
  n["sgd.accept_frac"] = decisions > 0 ? v(C::kSgdAccepts) / decisions : 0.0;
  n["cgls.iterations"] = v(C::kCglsIterations);
  n["cgls.restarts"] = v(C::kCglsRestarts);
  n["injector.mops"] = v(C::kInjectorFlops) / 1e6;
  n["injector.faults"] = v(C::kInjectorFaults);
  n["gap.draws"] = v(C::kGapDrawsTable) + v(C::kGapDrawsInvCdf) + v(C::kGapDrawsFused);
  n["store.hits"] = v(C::kStoreHits);
  n["store.misses"] = v(C::kStoreMisses);
  n["store.fresh_trials"] = v(C::kStoreFreshTrials);
  n["store.ingested_cells"] = v(C::kStoreIngestedCells);

  const tel::AttributionSnapshot now = tel::SnapshotAttribution();
  const auto self_s = [&](tel::AttrCategory c) {
    return static_cast<double>(now.total(c).self_ns - attribution_.total(c).self_ns) /
           1e9;
  };
  const auto total_s = [&](tel::AttrCategory c) {
    return static_cast<double>(now.total(c).total_ns -
                               attribution_.total(c).total_ns) /
           1e9;
  };
  std::map<std::string, double>& t = rep->timings;
  t["checkpoint.flush_self_s"] = self_s(tel::AttrCategory::kCheckpointFlush);
  t["pool.wait_s"] = total_s(tel::AttrCategory::kPoolWait);
  t["solve.sgd.self_s"] = self_s(tel::AttrCategory::kSolveSgd);
  t["phase.self_s"] = self_s(tel::AttrCategory::kPhase);
  t["solve.cgls.self_s"] = self_s(tel::AttrCategory::kSolveCgls);
}

namespace {

// Least-squares fit of trial time ~ a*ops + b*faults over one series'
// trials (no intercept: a trial with no work costs nothing).  With no
// faults, or faults proportional to ops, b is not identifiable and is 0.
void FitCosts(const std::vector<const TrialSample*>& trials, double* ns_per_op,
              double* ns_per_fault) {
  double xx = 0, xy = 0, yy = 0, xt = 0, yt = 0;
  for (const TrialSample* s : trials) {
    const double x = static_cast<double>(s->flops);
    const double y = static_cast<double>(s->faults);
    const double t = s->ms * 1e6;
    xx += x * x;
    xy += x * y;
    yy += y * y;
    xt += x * t;
    yt += y * t;
  }
  const double det = xx * yy - xy * xy;
  if (yy > 0 && det > 1e-9 * xx * yy) {
    *ns_per_op = (xt * yy - yt * xy) / det;
    *ns_per_fault = (yt * xx - xt * xy) / det;
  } else {
    *ns_per_op = xx > 0 ? xt / xx : 0.0;
    *ns_per_fault = 0.0;
  }
}

}  // namespace

void AddTrialTimings(const std::vector<TrialSample>& trials, int threads,
                     double wall_s, Rep* rep) {
  std::vector<double> ms;
  ms.reserve(trials.size());
  double busy_ms = 0.0;
  std::map<int, std::vector<const TrialSample*>> by_series;
  for (const TrialSample& s : trials) {
    ms.push_back(s.ms);
    busy_ms += s.ms;
    by_series[s.series].push_back(&s);
  }
  std::map<std::string, double>& t = rep->timings;
  t["trial.p50_ms"] = Quantile(ms, 0.5);
  t["trial.p90_ms"] = Quantile(ms, 0.9);
  t["harness.busy_frac"] = wall_s > 0 ? busy_ms / 1e3 / (threads * wall_s) : 0.0;
  // Per-series fits, combined weighted by trial count: series run
  // different objectives, so their per-op costs differ.
  double op = 0.0, fault = 0.0;
  for (const auto& [series, samples] : by_series) {
    double a = 0.0, b = 0.0;
    FitCosts(samples, &a, &b);
    op += a * static_cast<double>(samples.size());
    fault += b * static_cast<double>(samples.size());
  }
  const double n = static_cast<double>(trials.size());
  t["injector.ns_per_op"] = n > 0 ? op / n : 0.0;
  t["injector.ns_per_fault"] = n > 0 ? fault / n : 0.0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace bench
