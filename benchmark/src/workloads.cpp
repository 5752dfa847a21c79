// The benchmark workloads.  Each drives the library only through its
// public entry points (BuildScenario / RunCampaign / ReduceRecords,
// ResultStore, QueryService::Handle) and checks its own outputs.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "campaign/adaptive.h"
#include "campaign/checkpoint.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "harness/csv.h"
#include "service/query_service.h"
#include "spans.h"
#include "store/result_store.h"

namespace bench {

namespace fs = std::filesystem;
using robustify::campaign::CampaignResult;
using robustify::campaign::CampaignSpec;
using robustify::campaign::Scenario;

// Digests recorded for the baseline seed (1) and the holdout seed (2) at
// the commit that introduced this benchmark.  Each CSV digest equals the
// digest of the CSVs `robustify_cli run` exports for the same specs (for
// sort_adaptive, its campaigns' CSVs in base-seed order); the counts digest
// covers CountsText() of one repetition.
constexpr Reference kReferences[] = {
    {"sort_adaptive", 1, 0xf3076e31b06051b2ull, 0xa1cd92b8023c364full},
    {"sort_adaptive", 2, 0x778f510c4a9d0500ull, 0x316e279ddd034513ull},
    {"query_mix", 1, 0xe835b28cb14e2970ull, 0xbbf6a2b0953c2434ull},
    {"query_mix", 2, 0xf776d5f63402bc88ull, 0x07f5deb256a618d8ull},
};

const Reference* FindReference(const std::string& workload, std::uint64_t seed) {
  for (const Reference& r : kReferences) {
    if (workload == r.workload && seed == r.seed) return &r;
  }
  return nullptr;
}

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string CountsText(const Rep& rep) {
  static constexpr const char* kPinned[] = {
      "campaign.trials", "injector.mops",  "injector.faults",    "sgd.iterations",
      "cgls.iterations", "store.hits",     "store.misses",       "store.fresh_trials",
      "store.ingested_cells",
  };
  std::string text;
  for (const char* name : kPinned) {
    const auto it = rep.counts.find(name);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s=%.17g\n", name,
                  it == rep.counts.end() ? 0.0 : it->second);
    text += buf;
  }
  return text;
}

namespace {

std::string Hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// The CSV the CLI would export for `result`, as bytes.
std::string CsvBytes(const CampaignSpec& spec, const CampaignResult& result,
                     const std::string& path) {
  robustify::harness::WriteSweepCsv(path, result.series, spec.guard.Active());
  return ReadFile(path);
}

// Checks a run's CSV digest against the recorded reference for its seed,
// or against the first repetition's digest when none is recorded.
class DigestCheck {
 public:
  DigestCheck(const std::string& workload, std::uint64_t seed)
      : reference_(FindReference(workload, seed)) {}

  void Check(const std::string& csv, Ledger* ledger) {
    const std::uint64_t digest = Fnv1a(csv);
    if (first_ == 0) first_ = digest;
    if (reference_ != nullptr) {
      ledger->Record(digest == reference_->csv_digest,
                     "CSV digest " + Hex(digest) + " != reference " +
                         Hex(reference_->csv_digest));
    }
    ledger->Record(digest == first_, "CSV digest " + Hex(digest) +
                                          " differs from the first repetition's " +
                                          Hex(first_));
  }

  std::string Describe() const {
    return Hex(first_) + (reference_ != nullptr ? " (reference recorded)"
                                                : " (no reference for this seed)");
  }

 private:
  const Reference* reference_;
  std::uint64_t first_ = 0;
};

// ---- sort_adaptive: adaptive campaigns, several per repetition --------------

class CampaignWorkload : public Workload {
 public:
  // One repetition runs the campaign at kCampaigns base seeds derived from
  // the workload seed.  An adaptive campaign's trial count and longest cell
  // depend on its seed, so summing several keeps one seed's luck from
  // setting wall_s and requests_per_s.
  static constexpr int kCampaigns = 3;

  CampaignWorkload(const std::string& name, const CampaignSpec& spec, int threads,
                   const std::string& dir)
      : threads_(threads),
        dir_(dir),
        digest_(name, spec.base_seed) {
    for (int k = 0; k < kCampaigns; ++k) {
      specs_.push_back(spec);
      specs_.back().base_seed = spec.base_seed * kCampaigns + static_cast<std::uint64_t>(k);
    }
  }

  // RunCampaign truncates each journal, so set-up only builds the scenario.
  void Setup() override {
    scenario_ = log_.Wrap(robustify::campaign::BuildScenario(specs_[0]));
  }

  Rep Run(bool traced, Ledger* ledger) override {
    Rep rep;
    rep.traced = traced;
    const LayerProbe probe;
    std::vector<TrialSample> all_trials;
    std::string csvs;
    long total_trials = 0, budget_trials = 0;
    double wait = 0.0;
    for (int k = 0; k < kCampaigns; ++k) {
      const CampaignSpec& spec = specs_[static_cast<std::size_t>(k)];
      log_.Restart();
      const LayerProbe campaign_probe;
      robustify::campaign::RunnerOptions options;
      options.threads = threads_;
      options.journal_path = Journal(k);
      options.adaptive = true;
      CampaignResult result;
      const Clock::time_point start = Clock::now();
      try {
        Span span("campaign");
        result = robustify::campaign::RunCampaign(spec, scenario_, options);
      } catch (const std::exception& e) {
        ledger->Record(false, std::string("campaign threw: ") + e.what());
        return rep;
      }
      rep.wall_s += Seconds(start, Clock::now());
      ledger->Record(true, "campaign");
      const robustify::telemetry::CounterSnapshot counters = campaign_probe.CounterDelta();
      const std::vector<TrialSample> trials = log_.Take();
      total_trials += result.total_trials;
      budget_trials += result.budget_trials;

      // The longest any cell waited for its first trial.
      std::map<std::pair<int, double>, double> first_start;
      for (const TrialSample& t : trials) {
        const auto key = std::make_pair(t.series, t.rate);
        const auto it = first_start.find(key);
        if (it == first_start.end() || t.start_s < it->second) first_start[key] = t.start_s;
      }
      for (const auto& [cell, s] : first_start) wait = std::max(wait, s);

      // Gate 1 (after the loop): the digest of every campaign's CSV.
      const std::string csv = CsvBytes(spec, result, dir_ + "/campaign.csv");
      csvs += csv;
      // Gate 2: the campaign's own journal reduces to the same CSV bytes.
      const robustify::campaign::CampaignJournal::Loaded loaded =
          robustify::campaign::CampaignJournal::Load(Journal(k));
      const CampaignResult reduced = robustify::campaign::ReduceRecords(
          spec, scenario_, loaded.records, /*adaptive=*/true);
      ledger->Record(loaded.exists &&
                         CsvBytes(spec, reduced, dir_ + "/reduced.csv") == csv,
                     "ReduceRecords over the journal does not reproduce the CSV");
      // Gate 3: the wrapped trials account for every trial, flop and fault.
      std::uint64_t flops = 0, faults = 0;
      for (const TrialSample& t : trials) {
        flops += t.flops;
        faults += t.faults;
      }
      using C = robustify::telemetry::Counter;
      ledger->Record(static_cast<long>(trials.size()) == result.total_trials,
                     "wrapped trials " + std::to_string(trials.size()) +
                         " != total_trials " + std::to_string(result.total_trials));
      ledger->Record(static_cast<double>(flops) == result.faulty_flops &&
                         flops == counters.value(C::kInjectorFlops),
                     "trial flops " + std::to_string(flops) +
                         " disagree with CampaignResult / injector.flops");
      ledger->Record(faults == counters.value(C::kInjectorFaults),
                     "trial faults " + std::to_string(faults) +
                         " != injector.faults " +
                         std::to_string(counters.value(C::kInjectorFaults)));
      all_trials.insert(all_trials.end(), trials.begin(), trials.end());
    }
    digest_.Check(csvs, ledger);

    probe.Finish(&rep);
    AddTrialTimings(all_trials, threads_, rep.wall_s, &rep);
    for (const TrialSample& t : all_trials) rep.request_ms.push_back(t.ms);
    rep.timings["campaign.cell_wait_max_s"] = wait;
    rep.counts["campaign.budget_frac"] =
        budget_trials > 0 ? static_cast<double>(total_trials) / budget_trials : 0.0;
    return rep;
  }

  std::map<std::string, std::string> Info() const override {
    std::string seeds, journal_bytes;
    for (int k = 0; k < kCampaigns; ++k) {
      const std::string sep = k > 0 ? "," : "";
      seeds += sep + std::to_string(specs_[static_cast<std::size_t>(k)].base_seed);
      journal_bytes += sep + std::to_string(fs::exists(Journal(k)) ? fs::file_size(Journal(k)) : 0);
    }
    return {{"threads", std::to_string(threads_)},
            {"csv_digest", digest_.Describe()},
            {"base_seeds", seeds},
            {"journal_bytes", journal_bytes},
            {"spec", robustify::campaign::FormatSpec(specs_[0])}};
  }

 private:
  std::string Journal(int k) const {
    return dir_ + "/campaign" + std::to_string(k) + ".journal";
  }

  TrialLog log_;  // before scenario_: the wrapped TrialFns point at it
  std::vector<CampaignSpec> specs_;
  Scenario scenario_;
  int threads_;
  std::string dir_;
  DigestCheck digest_;
};

// ---- query_mix: a closed-loop query stream over a result store -------------

// Minor page faults of the whole process so far.
long MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

// A uniform double in [0, 1) from the top 53 bits, so the stream does not
// depend on a library's distribution implementation.
double Uniform(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

struct StreamQuery {
  robustify::service::Query query;
  int cell = -1;  // series * rates + rate for on-grid queries
};

class QueryMixWorkload : public Workload {
 public:
  // Queries per repetition: at least 1000, so p99 has ten samples beyond it
  // in every repetition.
  static constexpr int kQueries = 1200;

  QueryMixWorkload(CampaignSpec spec, const std::string& dir)
      : spec_(std::move(spec)),
        dir_(dir),
        pristine_(dir + "/pristine"),
        store_root_(dir + "/store"),
        digest_("query_mix", spec_.base_seed) {
    stream_ = MakeStream();
  }

  void Setup() override {
    fs::remove_all(pristine_);
    const std::string journal = dir_ + "/setup.journal";
    fs::remove(journal);
    scenario_ = log_.Wrap(robustify::campaign::BuildScenario(spec_));
    robustify::campaign::RunnerOptions options;
    options.threads = 1;
    options.journal_path = journal;
    options.adaptive = false;
    const CampaignResult result =
        robustify::campaign::RunCampaign(spec_, scenario_, options);
    setup_csv_ = CsvBytes(spec_, result, dir_ + "/setup.csv");
    robustify::store::ResultStore(pristine_).IngestJournal(spec_, journal);
    // The measured stream starts from a copy of the set-up store.
    fs::remove_all(store_root_);
    fs::copy(pristine_, store_root_, fs::copy_options::recursive);
  }

  Rep Run(bool traced, Ledger* ledger) override {
    digest_.Check(setup_csv_, ledger);
    Rep rep;
    rep.traced = traced;
    robustify::store::ResultStore store(store_root_);
    robustify::service::QueryService service(&store);
    service.RegisterSpec(spec_, scenario_);

    const int rates = static_cast<int>(spec_.fault_rates.size());
    std::vector<CellState> cells(spec_.series.size() * static_cast<std::size_t>(rates));
    std::map<std::string, std::vector<double>> by_source;
    long answered = 0, hits = 0;

    log_.Restart();
    const LayerProbe probe;
    const long faults_before = MinorFaults();
    const Clock::time_point start = Clock::now();
    for (const StreamQuery& sq : stream_) {
      const Clock::time_point q0 = Clock::now();
      robustify::service::Answer answer;
      {
        Span span("query");
        answer = service.Handle(sq.query);
      }
      const double ms = Seconds(q0, Clock::now()) * 1e3;
      rep.request_ms.push_back(ms);
      ledger->Record(answer.ok,
                     answer.ok ? std::string() : "query answered ok=false: " + answer.error);
      if (!answer.ok) continue;
      ++answered;
      by_source[answer.source].push_back(ms);
      if (answer.source == "cache") ++hits;
      if (sq.cell >= 0) {
        CheckRepeat(sq, answer, &cells[static_cast<std::size_t>(sq.cell)], ledger);
      }
    }
    rep.wall_s = Seconds(start, Clock::now());
    // Fresh pages the stream maps in, per query: memory the store and the
    // service allocate without reusing.
    rep.timings["query.minor_faults"] = static_cast<double>(MinorFaults() - faults_before) /
                                        static_cast<double>(stream_.size());
    probe.Finish(&rep);
    const std::vector<TrialSample> trials = log_.Take();
    AddTrialTimings(trials, 1, rep.wall_s, &rep);
    ledger->Record(static_cast<double>(trials.size()) == rep.counts["store.fresh_trials"],
                   "wrapped fresh trials " + std::to_string(trials.size()) +
                       " != store.fresh_trials");

    rep.timings["query.cache_p50_ms"] = Quantile(by_source["cache"], 0.5);
    rep.timings["query.fresh_p50_ms"] = Quantile(by_source["fresh-trials"], 0.5);
    rep.timings["query.surrogate_p50_ms"] = Quantile(by_source["surrogate"], 0.5);
    rep.counts["service.hit_frac"] =
        answered > 0 ? static_cast<double>(hits) / static_cast<double>(answered) : 0.0;

    // The post-stream store: direct reload cost, size, and the set-up
    // campaign's CSV reproduced from the stored records.
    std::vector<double> load_ms;
    robustify::store::StoredCells stored;
    for (int i = 0; i < 9; ++i) {
      const Clock::time_point l0 = Clock::now();
      stored = store.Load(spec_);
      load_ms.push_back(Seconds(l0, Clock::now()) * 1e3);
    }
    rep.timings["store.load_ms"] = Quantile(load_ms, 0.5);
    journal_bytes_ = fs::file_size(store.CampaignDir(spec_) + "/cells.journal");
    rep.counts["store.journal_kb"] = static_cast<double>(journal_bytes_) / 1024.0;
    const CampaignResult reduced = robustify::campaign::ReduceRecords(
        spec_, scenario_, stored.records, /*adaptive=*/false);
    ledger->Record(CsvBytes(spec_, reduced, dir_ + "/reduced.csv") == setup_csv_,
                   "ReduceRecords over the post-stream store does not reproduce "
                   "the set-up campaign's CSV");
    return rep;
  }

  std::map<std::string, std::string> Info() const override {
    return {{"threads", "1"},
            {"queries_per_repetition", std::to_string(stream_.size())},
            {"setup_csv_digest", digest_.Describe()},
            {"setup_journal_bytes",
             std::to_string(fs::exists(dir_ + "/setup.journal")
                                ? fs::file_size(dir_ + "/setup.journal")
                                : 0)},
            {"store_journal_bytes_after_stream", std::to_string(journal_bytes_)},
            {"spec", robustify::campaign::FormatSpec(spec_)}};
  }

 private:
  struct CellState {
    bool known = false;
    int trials = 0;
    int successes = 0;
    double half_width = 0.0;
    double settled_ci = std::numeric_limits<double>::infinity();
  };

  // On-grid answers always report the cell's full stored tally, which only
  // a fresh-trial miss can change.  So a cache answer must repeat the last
  // interval seen, and a query at the same or a looser ci than one already
  // answered settled must be a cache hit.
  static void CheckRepeat(const StreamQuery& sq,
                          const robustify::service::Answer& a, CellState* cell,
                          Ledger* ledger) {
    if (cell->known) {
      const bool same = a.trials == cell->trials && a.successes == cell->successes &&
                        a.half_width == cell->half_width;
      if (sq.query.ci >= cell->settled_ci) {
        ledger->Record(a.source == "cache" && same,
                       "repeat query at a looser ci changed the interval");
      } else if (a.source == "cache") {
        ledger->Record(same, "cache answer changed without a fresh-trial miss");
      }
    }
    cell->known = true;
    cell->trials = a.trials;
    cell->successes = a.successes;
    cell->half_width = a.half_width;
    if (a.settled) cell->settled_ci = std::min(cell->settled_ci, sq.query.ci);
  }

  // The seeded mix, in seeded order: 75% repeat on-grid queries at ci
  // 0.10-0.20 on random cells (cache hits), 10% off-grid rates inside the
  // fitted support (surrogate), and 15% tightening queries.  The k-th
  // tightening query asks cell k mod cells for ci 0.08 * 0.9^(k / cells):
  // where the stored tally is not yet that tight it misses, runs fresh
  // trials and writes back.  Fixed shares and a fixed tightening schedule
  // keep the misses nearly the same at every seed: about 20 per 1200
  // queries, more than the 12 above the 99th percentile, so
  // request_p99_ms lands among the write-backs.
  std::vector<StreamQuery> MakeStream() const {
    enum Kind { kRepeat, kOffGrid, kTighten };
    std::vector<Kind> kinds(kQueries, kRepeat);
    std::fill_n(kinds.begin(), kQueries * 15 / 100, kTighten);
    std::fill_n(kinds.begin() + kQueries * 15 / 100, kQueries / 10, kOffGrid);
    std::mt19937_64 rng(spec_.base_seed * 0x9E3779B97F4A7C15ull + 0x51);
    const auto pick = [&](int n) {
      return std::min(n - 1, static_cast<int>(Uniform(rng) * n));
    };
    for (int i = kQueries - 1; i > 0; --i) std::swap(kinds[i], kinds[pick(i + 1)]);

    const int series = static_cast<int>(spec_.series.size());
    const int rates = static_cast<int>(spec_.fault_rates.size());
    const double log_lo = std::log(1.5e-5), log_hi = std::log(0.08);
    int tightened = 0;
    std::vector<StreamQuery> stream;
    for (const Kind kind : kinds) {
      StreamQuery sq;
      sq.query.app = spec_.app;
      if (kind == kOffGrid) {
        sq.query.series = spec_.series[static_cast<std::size_t>(pick(series))];
        sq.query.rate = std::exp(log_lo + (log_hi - log_lo) * Uniform(rng));
        sq.query.ci = spec_.ci_half_width;
      } else {
        if (kind == kRepeat) {
          sq.cell = pick(series * rates);
          sq.query.ci = 0.10 + 0.10 * Uniform(rng);
        } else {
          sq.cell = tightened % (series * rates);
          sq.query.ci = 0.08 * std::pow(0.9, tightened / (series * rates));
          ++tightened;
        }
        sq.query.series = spec_.series[static_cast<std::size_t>(sq.cell / rates)];
        sq.query.rate = spec_.fault_rates[static_cast<std::size_t>(sq.cell % rates)];
      }
      stream.push_back(sq);
    }
    return stream;
  }

  TrialLog log_;  // before scenario_: the wrapped TrialFns point at it
  CampaignSpec spec_;
  Scenario scenario_;
  std::string dir_, pristine_, store_root_;
  std::vector<StreamQuery> stream_;
  std::string setup_csv_;
  std::uintmax_t journal_bytes_ = 0;
  DigestCheck digest_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed,
                                       int max_threads, const std::string& dir) {
  if (name == "sort_adaptive") {
    // Clean cells beside high-rate cells: every op runs per scalar through
    // faulty::Real, the high rates load the per-fault path, and the cells'
    // very unequal adaptive cost loads the cell-parallel runner.
    CampaignSpec spec = robustify::campaign::RegistrySpec("fig6_1");
    spec.name = name;
    spec.series = {"SGD"};
    spec.fault_rates = {0.0, 0.01, 0.05, 0.1, 0.2};
    spec.ci_half_width = 0.15;
    spec.base_seed = seed;
    return std::make_unique<CampaignWorkload>(name, spec, max_threads, dir);
  }
  if (name == "query_mix") {
    // A store journal of ~200 KB, so reloading it is a visible share of a
    // cache hit; max_trials leaves room for tighter-ci write-backs.
    CampaignSpec spec = robustify::campaign::RegistrySpec("fig6_6");
    spec.name = name;
    spec.series = robustify::campaign::ScenarioSeriesNames("fig6_6");
    spec.fixed_trials = 200;
    spec.max_trials = 800;
    spec.base_seed = seed;
    return std::make_unique<QueryMixWorkload>(spec, dir);
  }
  return nullptr;
}

}  // namespace bench
