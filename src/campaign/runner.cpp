#include "campaign/runner.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "campaign/adaptive.h"
#include "core/fault_env.h"
#include "harness/parallel.h"
#include "harness/trial.h"
#include "telemetry/progress.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace robustify::campaign {

namespace {

harness::TrialOutcome ToOutcome(const TrialRecord& r) {
  harness::TrialOutcome out;
  out.success = r.success;
  out.metric = r.metric;
  out.fpu_stats.faulty_flops = r.faulty_flops;
  out.fpu_stats.faults_injected = r.faults_injected;
  out.verdict = static_cast<core::TrialVerdict>(r.verdict);
  return out;
}

TrialRecord ToRecord(const harness::TrialOutcome& out, int series, int rate,
                     int trial) {
  TrialRecord r;
  r.series = series;
  r.rate = rate;
  r.trial = trial;
  r.success = out.success;
  r.metric = out.metric;
  r.faulty_flops = out.fpu_stats.faulty_flops;
  r.faults_injected = out.fpu_stats.faults_injected;
  r.verdict = static_cast<int>(out.verdict);
  return r;
}

// Serial in-order reduction shared by RunCampaign and ReduceRecords: the
// accumulation order is fixed by cell order, never by execution schedule.
CampaignResult BuildResult(const CampaignSpec& spec, const Scenario& scenario,
                           const std::vector<std::vector<harness::TrialOutcome>>& accepted,
                           const std::vector<CellStats>& stats) {
  const int series_count = static_cast<int>(scenario.series.size());
  const int rate_count = static_cast<int>(spec.fault_rates.size());
  CampaignResult result;
  result.cell_count = series_count * rate_count;
  result.series.reserve(static_cast<std::size_t>(series_count));
  result.cells.resize(static_cast<std::size_t>(series_count));
  for (int s = 0; s < series_count; ++s) {
    harness::Series series;
    series.name = scenario.series[static_cast<std::size_t>(s)].name;
    for (int r = 0; r < rate_count; ++r) {
      const std::size_t cell = static_cast<std::size_t>(s * rate_count + r);
      const std::vector<harness::TrialOutcome>& outcomes = accepted[cell];
      harness::SeriesPoint point;
      point.fault_rate = spec.fault_rates[static_cast<std::size_t>(r)];
      point.summary = harness::SummarizeOutcomes(outcomes);
      series.points.push_back(point);
      result.cells[static_cast<std::size_t>(s)].push_back(stats[cell]);
      result.total_trials += stats[cell].trials;
      if (stats[cell].settled) ++result.settled_cells;
      for (const harness::TrialOutcome& out : outcomes) {
        result.faulty_flops += static_cast<double>(out.fpu_stats.faulty_flops);
      }
    }
    result.series.push_back(std::move(series));
  }
  return result;
}

// Per-cell telemetry, from the same controller state that feeds the result
// (counter totals are schedule independent: trials never run past the
// stopping point, so every schedule executes the same trial set).
void FinishCell(const CellController& controller, int replayed, CellStats* stats) {
  stats->trials = controller.trials();
  stats->settled = controller.settled();
  telemetry::Count(telemetry::Counter::kCampaignCells);
  if (controller.settled()) {
    telemetry::Count(telemetry::Counter::kCampaignCellsSettled);
  }
  telemetry::Count(telemetry::Counter::kCampaignTrials,
                   static_cast<std::uint64_t>(controller.trials()));
  telemetry::Count(telemetry::Counter::kCampaignTrialsResumed,
                   static_cast<std::uint64_t>(replayed));
  telemetry::Observe(telemetry::Histogram::kCampaignTrialsToStop,
                     static_cast<std::uint64_t>(controller.trials()));
  const double half_width =
      WilsonHalfWidth(controller.successes(), controller.trials());
  telemetry::Observe(telemetry::Histogram::kCampaignStopHalfWidthPpm,
                     static_cast<std::uint64_t>(half_width * 1e6));
}

// One unfinished cell.  env/fn/series/rate are fixed before the workers
// start; everything else is guarded by TrialScheduler::mu_.
struct CellTask {
  int series = 0;
  int rate = 0;
  core::FaultEnvironment env;
  const harness::TrialFn* fn = nullptr;
  CellController controller{AdaptiveConfig{}};
  int replayed = 0;  // trials taken from the journal
  int issued = 0;    // trials handed out: committed + in flight + buffered
  int horizon = 0;   // trials certain to be needed: controller.horizon()
  // Outcomes of trials [controller.trials(), issued); empty slots are still
  // running.  The front commits as soon as it is filled.
  std::deque<std::optional<harness::TrialOutcome>> window;
  std::vector<TrialRecord> unjournaled;  // committed, short of a batch
  std::vector<harness::TrialOutcome>* accepted = nullptr;
  CellStats* stats = nullptr;
};

// Trial-granular executor: workers claim (cell, trial) tasks from one
// locked queue, but only trials below a cell's horizon, which the stopping
// rule needs whatever they return.  Outcomes commit through the controller
// strictly in trial order, so nothing past a stopping point ever runs and
// every schedule produces the same accepted sets and the same journal
// contents per cell.
class TrialScheduler {
 public:
  TrialScheduler(std::vector<CellTask> tasks, CampaignJournal* journal, int batch)
      : tasks_(std::move(tasks)),
        journal_(journal),
        batch_(static_cast<std::size_t>(batch)),
        open_cells_(static_cast<int>(tasks_.size())) {}

  // With one worker the single loop runs every claimed trial to commit
  // before claiming the next.  Rethrows the first trial or journal error
  // once every worker has stopped.
  void Run(int threads) {
    const int workers = harness::ResolveThreadCount(threads);
    harness::ParallelFor(workers, workers, [this](int) { WorkerLoop(); });
    if (error_) std::rethrow_exception(error_);
  }

 private:
  // Fewest trials issued first, ties to the lowest cell index: open cells
  // advance together, so a deep transition cell is never left to run alone
  // at the end.
  CellTask* Claim() {
    CellTask* best = nullptr;
    for (CellTask& task : tasks_) {
      if (task.controller.done() || task.issued >= task.horizon) continue;
      if (best == nullptr || task.issued < best->issued) best = &task;
    }
    return best;
  }

  void WorkerLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      CellTask* task = Claim();
      if (task == nullptr && !error_ && open_cells_ > 0) {
        // Every certain trial is in flight: park until a commit moves a
        // horizon, closes a cell, or a worker fails.
        telemetry::SpanScope wait_span("sched.wait");
        changed_.wait(lock, [&] {
          return error_ || open_cells_ == 0 || (task = Claim()) != nullptr;
        });
      }
      if (error_ || task == nullptr) return;
      const int trial = task->issued++;
      task->window.emplace_back();
      lock.unlock();
      try {
        harness::TrialOutcome out = harness::RunSingleTrial(*task->fn, task->env, trial);
        lock.lock();
        if (!error_) Complete(*task, trial, std::move(out));
      } catch (...) {
        if (!lock.owns_lock()) lock.lock();
        if (!error_) error_ = std::current_exception();
        changed_.notify_all();
      }
    }
  }

  // Buffers trial `trial`'s outcome and commits the filled front of the
  // window.  Called with mu_ held.
  void Complete(CellTask& task, int trial, harness::TrialOutcome out) {
    CellController& controller = task.controller;
    task.window[static_cast<std::size_t>(trial - controller.trials())] = std::move(out);
    int committed = 0;
    while (!task.window.empty() && task.window.front() && !controller.done()) {
      const harness::TrialOutcome& next = *task.window.front();
      task.unjournaled.push_back(
          ToRecord(next, task.series, task.rate, controller.trials()));
      controller.Record(next.success);
      task.accepted->push_back(next);
      task.window.pop_front();
      ++committed;
    }
    if (committed == 0) return;  // an earlier trial is still running
    if (controller.done() && !task.window.empty()) {
      throw std::logic_error("campaign trial issued past its cell's stopping point");
    }
    for (int i = 0; i < committed; ++i) telemetry::ProgressUnitDone(1);
    if (journal_ != nullptr) Journal(task);
    if (controller.done()) {
      FinishCell(controller, task.replayed, task.stats);
      --open_cells_;
    } else {
      task.horizon = controller.horizon();
    }
    changed_.notify_all();
  }

  // Appends the cell's committed records in whole batches, plus the
  // remainder once the cell stops: committing T trials of a cell always
  // takes ceil(T / batch) appends, whatever the schedule.  Called with mu_
  // held, so each cell's records reach the journal in trial order.
  void Journal(CellTask& task) {
    std::vector<TrialRecord>& pending = task.unjournaled;
    std::size_t flushed = 0;
    while (pending.size() - flushed >= batch_ ||
           (task.controller.done() && flushed < pending.size())) {
      const std::size_t count = std::min(batch_, pending.size() - flushed);
      journal_->Append(pending.data() + flushed, count);
      flushed += count;
    }
    pending.erase(pending.begin(), pending.begin() + static_cast<std::ptrdiff_t>(flushed));
  }

  std::vector<CellTask> tasks_;
  CampaignJournal* journal_;
  const std::size_t batch_;
  std::mutex mu_;
  std::condition_variable changed_;
  int open_cells_;
  std::exception_ptr error_;
};

}  // namespace

AdaptiveConfig SpecAdaptiveConfig(const CampaignSpec& spec, bool adaptive) {
  AdaptiveConfig config;
  if (adaptive) {
    config.min_trials = spec.min_trials;
    config.max_trials = spec.max_trials;
    config.ci_half_width = spec.ci_half_width;
  } else {
    // Fixed budget: the stopping rule can never fire early, so every cell
    // runs exactly spec.fixed_trials — the historical sweep behavior.
    config.min_trials = spec.fixed_trials;
    config.max_trials = spec.fixed_trials;
    config.ci_half_width = 0.0;
  }
  return config;
}

CampaignResult ReduceRecords(const CampaignSpec& spec, const Scenario& scenario,
                             const std::vector<TrialRecord>& records,
                             bool adaptive) {
  const int series_count = static_cast<int>(scenario.series.size());
  const int rate_count = static_cast<int>(spec.fault_rates.size());
  const int cell_count = series_count * rate_count;
  const AdaptiveConfig config = SpecAdaptiveConfig(spec, adaptive);

  // Bucket by cell, accepting the contiguous trial-index prefix (records
  // arrive sorted from the store; a journal's per-cell order is already
  // trial order, but sort defensively like the resume path does).
  std::vector<std::vector<TrialRecord>> by_cell(static_cast<std::size_t>(cell_count));
  for (const TrialRecord& r : records) {
    if (r.series < 0 || r.series >= series_count || r.rate < 0 ||
        r.rate >= rate_count) {
      continue;
    }
    by_cell[static_cast<std::size_t>(r.series * rate_count + r.rate)].push_back(r);
  }

  std::vector<std::vector<harness::TrialOutcome>> accepted(
      static_cast<std::size_t>(cell_count));
  std::vector<CellStats> stats(static_cast<std::size_t>(cell_count));
  for (int cell = 0; cell < cell_count; ++cell) {
    std::vector<TrialRecord>& bucket = by_cell[static_cast<std::size_t>(cell)];
    std::sort(bucket.begin(), bucket.end(),
              [](const TrialRecord& a, const TrialRecord& b) {
                return a.trial < b.trial;
              });
    CellController controller(config);
    for (const TrialRecord& r : bucket) {
      if (controller.done()) break;
      if (r.trial != controller.next_trial()) break;  // gap: drop the rest
      controller.Record(r.success);
      accepted[static_cast<std::size_t>(cell)].push_back(ToOutcome(r));
    }
    CellStats& cs = stats[static_cast<std::size_t>(cell)];
    cs.trials = controller.trials();
    cs.settled = controller.settled();
  }

  CampaignResult result = BuildResult(spec, scenario, accepted, stats);
  result.budget_trials = static_cast<long>(config.max_trials) * cell_count;
  result.resumed_trials = result.total_trials;  // everything came from records
  return result;
}

CampaignResult RunCampaign(const CampaignSpec& spec, const Scenario& scenario,
                           const RunnerOptions& options) {
  telemetry::SpanScope campaign_span("campaign");
  const int series_count = static_cast<int>(scenario.series.size());
  const int rate_count = static_cast<int>(spec.fault_rates.size());
  const int cell_count = series_count * rate_count;

  if (spec.shard_count < 1 || spec.shard_index < 0 ||
      spec.shard_index >= spec.shard_count) {
    throw std::runtime_error("invalid shard selection " +
                             std::to_string(spec.shard_index) + "/" +
                             std::to_string(spec.shard_count));
  }
  const auto owns = [&](int cell) {
    return cell % spec.shard_count == spec.shard_index;
  };
  int owned_cells = 0;
  for (int cell = 0; cell < cell_count; ++cell) {
    if (owns(cell)) ++owned_cells;
  }

  const AdaptiveConfig adaptive = SpecAdaptiveConfig(spec, options.adaptive);

  // Per-cell accepted outcomes, in trial order, appended only by commits
  // under the scheduler's lock; the reduction below reads them serially in
  // cell order.
  std::vector<std::vector<harness::TrialOutcome>> accepted(
      static_cast<std::size_t>(cell_count));
  std::vector<CellStats> stats(static_cast<std::size_t>(cell_count));

  // ---- checkpoint plumbing --------------------------------------------------
  std::unique_ptr<CampaignJournal> journal;
  long resumed_trials = 0;
  if (!options.journal_path.empty()) {
    journal = std::make_unique<CampaignJournal>(options.journal_path);
    const std::uint64_t fingerprint = SpecFingerprint(spec);
    if (options.resume) {
      CampaignJournal::Loaded loaded = CampaignJournal::Load(options.journal_path);
      if (!loaded.exists) {
        throw std::runtime_error("cannot resume: no readable journal at " +
                                 options.journal_path);
      }
      if (loaded.fingerprint != fingerprint) {
        throw std::runtime_error(
            "cannot resume: journal " + options.journal_path +
            " was written by a different campaign spec (fingerprint mismatch)");
      }
      // Bucket records by cell; the journal holds each cell's trials in
      // index order, and anything out of contract (duplicate or
      // out-of-range indices) is dropped.
      for (const TrialRecord& r : loaded.records) {
        if (r.series < 0 || r.series >= series_count || r.rate < 0 ||
            r.rate >= rate_count) {
          continue;
        }
        const std::size_t cell =
            static_cast<std::size_t>(r.series * rate_count + r.rate);
        if (!owns(static_cast<int>(cell))) continue;  // re-sharded journal
        if (r.trial == static_cast<int>(accepted[cell].size())) {
          accepted[cell].push_back(ToOutcome(r));
          ++resumed_trials;
        }
      }
      // Heal any torn tail before new appends land after it.
      std::vector<TrialRecord> kept;
      kept.reserve(static_cast<std::size_t>(resumed_trials));
      for (int cell = 0; cell < cell_count; ++cell) {
        const int s = cell / rate_count;
        const int r = cell % rate_count;
        for (std::size_t t = 0; t < accepted[static_cast<std::size_t>(cell)].size();
             ++t) {
          kept.push_back(ToRecord(accepted[static_cast<std::size_t>(cell)][t], s, r,
                                  static_cast<int>(t)));
        }
      }
      journal->RewriteAndOpen(fingerprint, kept);
    } else {
      journal->Start(fingerprint);
    }
  } else if (options.resume) {
    throw std::runtime_error("cannot resume without a journal path");
  }

  // ---- replay, then schedule the unfinished cells ---------------------------
  std::vector<CellTask> tasks;
  long remaining_budget = 0;
  for (int cell = 0; cell < cell_count; ++cell) {
    if (!owns(cell)) continue;  // another shard's cell — not even journaled
    const std::size_t c = static_cast<std::size_t>(cell);
    CellTask task;
    task.series = cell / rate_count;
    task.rate = cell % rate_count;
    task.controller = CellController(adaptive);
    task.accepted = &accepted[c];
    task.stats = &stats[c];
    // Replay journaled outcomes through the stopping rule.  A journal never
    // holds trials past the stopping point, but the rule is cheap — replay
    // guards against hand-edited journals and re-derives settled state.
    std::vector<harness::TrialOutcome>& outcomes = accepted[c];
    std::size_t replayed = 0;
    while (replayed < outcomes.size() && !task.controller.done()) {
      task.controller.Record(outcomes[replayed].success);
      ++replayed;
    }
    outcomes.resize(replayed);
    task.replayed = static_cast<int>(replayed);
    if (task.controller.done()) {
      FinishCell(task.controller, task.replayed, task.stats);
      continue;
    }
    task.env.fault_rate = spec.fault_rates[static_cast<std::size_t>(task.rate)];
    task.env.seed = spec.base_seed;
    task.env.bit_model = spec.bit_model;
    task.env.model = spec.model;
    task.env.guard = spec.guard;
    task.fn = &scenario.series[static_cast<std::size_t>(task.series)].fn;
    task.issued = task.controller.trials();
    task.horizon = task.controller.horizon();
    remaining_budget += adaptive.max_trials - task.controller.trials();
    tasks.push_back(std::move(task));
  }

  // Progress units are committed trials against the remaining budget, so
  // an adaptive campaign's ETA is an upper bound.
  telemetry::ProgressBegin("campaign", remaining_budget);
  TrialScheduler(std::move(tasks), journal.get(), std::max(1, spec.batch))
      .Run(options.threads);
  telemetry::ProgressEnd();

  // ---- serial in-order reduction --------------------------------------------
  telemetry::SpanScope reduce_span("reduce");
  CampaignResult result = BuildResult(spec, scenario, accepted, stats);
  result.budget_trials = static_cast<long>(adaptive.max_trials) * owned_cells;
  result.resumed_trials = resumed_trials;
  return result;
}

}  // namespace robustify::campaign
