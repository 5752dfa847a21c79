// Journaled campaign state: crash-safe progress for long campaigns.
//
// The journal is an append-only text file.  Line 1 is a header carrying the
// spec fingerprint (campaign/spec.h); every subsequent line records one
// accepted trial: cell coordinates, trial index, success flag, the quality
// metric as a C99 %a hex float (exact binary64 round-trip — resuming must
// reproduce the uninterrupted run's CSV byte for byte), and the exact
// uint64 flop/fault counters.
//
// The campaign scheduler appends each cell's committed trials in trial
// order, a whole batch per locked write + flush, so a SIGKILL can lose at
// most each cell's unflushed batch and can tear at most the final line.
// Load() therefore accepts a truncated tail: the first malformed line and
// everything after it are dropped (they can only be the torn end of the
// final write).  Trials past a cell's deterministic
// stopping point are never journaled, so replaying a journal rebuilds
// exactly the accepted-outcome prefix of every cell.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace robustify::campaign {

struct TrialRecord {
  int series = 0;  // index into the scenario's series list
  int rate = 0;    // index into the spec's fault-rate axis
  int trial = 0;   // trial index within the cell (seed = base_seed + trial)
  bool success = false;
  double metric = 0.0;
  std::uint64_t faulty_flops = 0;
  std::uint64_t faults_injected = 0;
  // core::TrialVerdict as an int.  Journals written before the guarded
  // executor carry seven fields per line; Load() derives the verdict from
  // the success flag for those, so old journals resume cleanly.
  int verdict = 0;
};

class CampaignJournal {
 public:
  struct Loaded {
    bool exists = false;            // a readable journal with a valid header
    std::uint64_t fingerprint = 0;  // from the header, when exists
    std::vector<TrialRecord> records;
  };

  // Reads `path`, tolerating a torn trailing line.  exists == false when
  // the file is absent or its header is unreadable.
  static Loaded Load(const std::string& path);

  explicit CampaignJournal(std::string path) : path_(std::move(path)) {}

  // Truncates and writes a fresh header (a new campaign run).
  void Start(std::uint64_t fingerprint);

  // Resume path: atomically replaces the journal with a fresh header plus
  // the already-loaded records (write to <path>.tmp, then rename), then
  // opens it for appending.  This heals a torn trailing line — appending
  // directly after one would concatenate the next record onto it and lose
  // both — without ever leaving a window where the journal is truncated
  // but not yet rewritten.
  void RewriteAndOpen(std::uint64_t fingerprint,
                      const std::vector<TrialRecord>& records);

  // Appends `count` records as one locked write + flush.  Safe to call from
  // multiple workers.  Throws std::runtime_error when the write fails.
  void Append(const TrialRecord* records, std::size_t count);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::mutex mu_;
  std::ofstream os_;
};

}  // namespace robustify::campaign
