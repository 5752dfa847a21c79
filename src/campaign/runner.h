// Campaign execution: a trial-granular scheduler over the harness threads.
//
// The parallel unit is the *trial*.  Cells have wildly unequal cost under
// adaptive allocation (a saturated cell stops after a handful of trials, a
// transition cell runs to its budget), so one worker per cell would leave
// the deep cells running alone at the end.  Instead every worker claims
// (cell, trial) tasks from one locked queue — fewest trials issued first,
// ties to the lowest cell index — but only trials below the cell's horizon
// (CellController::horizon()), which the stopping rule needs whatever they
// return.  Outcomes are buffered and committed through the controller
// (campaign/adaptive.h) strictly in trial order and journaled in trial
// order, in whole batches (campaign/checkpoint.h); the final reduction runs
// serially in cell order — so no trial ever runs past a stopping point, and
// campaign output, trial counts, journal appends and injector counters are
// identical for every thread count and kill/resume schedule (output for
// every batch size too).  A fixed grid
// (min == max) is fully trial-parallel from the start.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/adaptive.h"
#include "campaign/checkpoint.h"
#include "campaign/scenarios.h"
#include "campaign/spec.h"
#include "harness/trial.h"

namespace robustify::campaign {

struct RunnerOptions {
  int threads = 0;           // 0 = auto (ROBUSTIFY_THREADS, else hardware)
  std::string journal_path;  // empty = run without checkpointing
  bool resume = false;       // load the journal and continue it
  bool adaptive = true;      // false = fixed budget (spec.fixed_trials per cell)
};

struct CellStats {
  int trials = 0;
  bool settled = false;  // stopping rule met the CI target within budget
};

struct CampaignResult {
  // One Series per scenario series, one point per fault rate: the shape
  // every table and CSV writer (harness/table.h, harness/csv.h) consumes.
  std::vector<harness::Series> series;
  std::vector<std::vector<CellStats>> cells;  // [series][rate]
  long total_trials = 0;     // accepted trials, all cells
  long resumed_trials = 0;   // of those, replayed from the journal
  long budget_trials = 0;    // per-cell cap * cell count
  int settled_cells = 0;
  int cell_count = 0;
  double faulty_flops = 0.0;  // ops through the injector, accepted trials
};

// Runs (or resumes) the campaign described by `spec` over `scenario`.
// Throws std::runtime_error on journal problems, including resuming against
// a journal whose fingerprint does not match the spec.
//
// Sharding: when spec.shard_count > 1, only the cells with grid index
// congruent to spec.shard_index (mod shard_count) are executed and
// journaled; every other cell stays empty in the result.  Per-cell seeding
// makes the owned cells' records identical to the same cells of an
// unsharded run, so N shard journals merge (store/result_store.h) into
// exactly the unsharded record set.
CampaignResult RunCampaign(const CampaignSpec& spec, const Scenario& scenario,
                           const RunnerOptions& options);

// The stopping-rule configuration RunCampaign derives from a spec — shared
// with ReduceRecords and the query service so every consumer of stored
// records replays them under the same rule the runner journaled them under.
AdaptiveConfig SpecAdaptiveConfig(const CampaignSpec& spec, bool adaptive);

// Reduces already-recorded trials (a merged store's records, a journal) to
// a CampaignResult without running anything: per cell, the contiguous
// trial-index prefix is replayed through the stopping rule — exactly the
// resume path — and the reduction runs serially in cell order.  Records
// beyond a cell's deterministic stopping point are ignored (a store cell
// extended by a tighter-CI query still reduces to the campaign's own
// answer), so a store merged from N complete shard runs reduces to a CSV
// byte-identical to the single-process run of the same spec.
CampaignResult ReduceRecords(const CampaignSpec& spec, const Scenario& scenario,
                             const std::vector<TrialRecord>& records,
                             bool adaptive);

}  // namespace robustify::campaign
