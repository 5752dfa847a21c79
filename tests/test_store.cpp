// Result store + query service: the serving tier over the trial engine.
//
// The load-bearing guarantees:
//   * N shard runs of one spec merge into the store and reduce to a CSV
//     byte-identical to the single-process run (N ∈ {2, 3}, including a
//     shard interrupted mid-run and resumed, and a shard journal with a
//     torn tail);
//   * merge is deterministic and idempotent — duplicate cells resolve to
//     the higher trial count, re-ingestion is a no-op, and a journal from
//     a different spec (fingerprint mismatch) is rejected;
//   * a query served from cache at equal-or-looser precision returns the
//     identical interval and runs zero trials; a miss runs fresh trials
//     that extend the cell's deterministic sequence and writes them back;
//   * the logistic cliff surrogate agrees with every stored on-grid cell
//     to within that cell's Wilson half-width, and off-grid queries inside
//     its support are answered without touching the trial engine.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/adaptive.h"
#include "campaign/checkpoint.h"
#include "campaign/runner.h"
#include "campaign/scenarios.h"
#include "campaign/spec.h"
#include "core/fault_env.h"
#include "service/query_service.h"
#include "service/surrogate.h"
#include "store/result_store.h"
#include "telemetry/telemetry.h"
#include "tests/fixed_grid.h"

namespace {

using namespace robustify;

// Deterministic synthetic trial with an exactly-logistic cliff in log-rate:
// p(success) = 1 / (1 + (rate / 0.1)^2), so the surrogate's model class
// contains the truth and on-grid agreement is a sharp test of the fit.
harness::TrialFn CliffTrial() {
  return [](const core::FaultEnvironment& env) {
    std::uint64_t h = env.seed * 0x9E3779B97F4A7C15ull;
    std::uint64_t rate_bits = 0;
    std::memcpy(&rate_bits, &env.fault_rate, sizeof(rate_bits));
    h ^= rate_bits + 0xBF58476D1CE4E5B9ull + (h << 6) + (h >> 2);
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    h ^= h >> 31;
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    const double ratio = env.fault_rate / 0.1;
    const double p = 1.0 / (1.0 + ratio * ratio);
    harness::TrialOutcome out;
    out.success = u < p;
    out.metric = u;
    out.fpu_stats.faulty_flops = 50 + (h % 17);
    out.fpu_stats.faults_injected = h % 3;
    return out;
  };
}

campaign::CampaignSpec StoreSpec() {
  campaign::CampaignSpec spec;
  spec.name = "store_synth";
  spec.app = "store_synth";
  spec.fault_rates = {0.02, 0.05, 0.1, 0.2, 0.4};
  spec.min_trials = 6;
  spec.max_trials = 40;
  spec.ci_half_width = 0.12;
  spec.fixed_trials = 40;
  spec.base_seed = 31337;
  return spec;
}

campaign::Scenario StoreScenario() {
  campaign::Scenario scenario;
  scenario.app = "store_synth";
  scenario.title = "store_synth";
  scenario.value = harness::TableValue::kSuccessRatePct;
  scenario.value_label = "success rate (%)";
  scenario.csv_name = "store_synth.csv";
  scenario.series = {{"A", CliffTrial()}, {"B", CliffTrial()}};
  return scenario;
}

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "/robustify_store_" + tag;
}

std::string CsvBytes(const std::vector<harness::Series>& series,
                     const std::string& tag) {
  return testutil::CsvBytes(series, "store_" + tag);
}

// Runs the spec unsharded (journal-free) and returns its CSV bytes.
std::string GoldenCsv(const campaign::CampaignSpec& spec,
                      const campaign::Scenario& scenario,
                      const std::string& tag) {
  campaign::RunnerOptions options;
  options.threads = 2;
  const campaign::CampaignResult result =
      campaign::RunCampaign(spec, scenario, options);
  return CsvBytes(result.series, tag);
}

// Runs shard i/N with a journal, returning the journal path.
std::string RunShard(const campaign::CampaignSpec& base,
                     const campaign::Scenario& scenario, int index, int count,
                     const std::string& tag) {
  campaign::CampaignSpec spec = base;
  spec.shard_index = index;
  spec.shard_count = count;
  campaign::RunnerOptions options;
  options.threads = 2;
  options.journal_path = TempPath(tag) + ".shard" + std::to_string(index) +
                         "of" + std::to_string(count) + ".journal";
  campaign::RunCampaign(spec, scenario, options);
  return options.journal_path;
}

std::string MergedCsv(store::ResultStore* rs,
                      const campaign::CampaignSpec& spec,
                      const campaign::Scenario& scenario,
                      const std::string& tag) {
  const store::StoredCells stored = rs->Load(spec);
  const campaign::CampaignResult result =
      campaign::ReduceRecords(spec, scenario, stored.records, /*adaptive=*/true);
  return CsvBytes(result.series, tag);
}

TEST(ResultStore, ShardedMergeIsByteIdenticalToSingleProcessRun) {
  const campaign::CampaignSpec spec = StoreSpec();
  const campaign::Scenario scenario = StoreScenario();
  const std::string golden = GoldenCsv(spec, scenario, "golden");
  ASSERT_FALSE(golden.empty());

  for (const int shards : {2, 3}) {
    const std::string tag = "merge_n" + std::to_string(shards);
    std::filesystem::remove_all(TempPath(tag) + ".store");
    store::ResultStore rs(TempPath(tag) + ".store");
    for (int i = 0; i < shards; ++i) {
      const std::string journal = RunShard(spec, scenario, i, shards, tag);
      rs.IngestJournal(spec, journal);
      std::remove(journal.c_str());
    }
    EXPECT_EQ(MergedCsv(&rs, spec, scenario, tag), golden) << shards;
  }
}

// A shard killed mid-run leaves a journal holding a prefix (possibly with a
// torn final line); resuming completes it and the merge is still exact.
TEST(ResultStore, InterruptedShardResumesAndMergesExactly) {
  const campaign::CampaignSpec spec = StoreSpec();
  const campaign::Scenario scenario = StoreScenario();
  const std::string golden = GoldenCsv(spec, scenario, "golden_resume");

  std::filesystem::remove_all(TempPath("resume") + ".store");
  store::ResultStore rs(TempPath("resume") + ".store");

  // Shard 0 runs fully; shard 1's journal is truncated mid-record to model
  // a SIGKILL between flushes, then resumed.
  rs.IngestJournal(spec, RunShard(spec, scenario, 0, 2, "resume"));
  const std::string shard1 = RunShard(spec, scenario, 1, 2, "resume");
  {
    std::ifstream in(shard1, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string bytes = buffer.str();
    ASSERT_GT(bytes.size(), 120u);
    bytes.resize(bytes.size() * 2 / 3);  // torn tail: mid-line truncation
    std::ofstream out(shard1, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  campaign::CampaignSpec shard_spec = spec;
  shard_spec.shard_index = 1;
  shard_spec.shard_count = 2;
  campaign::RunnerOptions resume;
  resume.threads = 2;
  resume.journal_path = shard1;
  resume.resume = true;
  campaign::RunCampaign(shard_spec, scenario, resume);
  rs.IngestJournal(spec, shard1);
  std::remove(shard1.c_str());

  EXPECT_EQ(MergedCsv(&rs, spec, scenario, "resume"), golden);
}

// A torn tail in an ingested journal is dropped, never merged: ingesting
// the truncated journal plus the intact one still reproduces the golden.
TEST(ResultStore, TornTailDoesNotPoisonMerge) {
  const campaign::CampaignSpec spec = StoreSpec();
  const campaign::Scenario scenario = StoreScenario();
  const std::string golden = GoldenCsv(spec, scenario, "golden_torn");

  std::filesystem::remove_all(TempPath("torn") + ".store");
  store::ResultStore rs(TempPath("torn") + ".store");
  const std::string shard0 = RunShard(spec, scenario, 0, 2, "torn");
  const std::string shard1 = RunShard(spec, scenario, 1, 2, "torn");
  {
    // Tear the tail of shard 0's journal, then ingest BOTH the torn copy
    // and the intact original: the torn records must be re-supplied by the
    // intact ingest, and nothing malformed may survive.
    std::ifstream in(shard0, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string bytes = buffer.str();
    const std::string torn = shard0 + ".torn";
    std::ofstream out(torn, std::ios::binary);
    out << bytes.substr(0, bytes.size() - 7) << std::flush;
    rs.IngestJournal(spec, torn);
    std::remove(torn.c_str());
  }
  rs.IngestJournal(spec, shard0);
  rs.IngestJournal(spec, shard1);
  std::remove(shard0.c_str());
  std::remove(shard1.c_str());
  EXPECT_EQ(MergedCsv(&rs, spec, scenario, "torn"), golden);
}

TEST(ResultStore, DuplicateCellHigherTrialCountWinsAndIngestIsIdempotent) {
  const campaign::CampaignSpec spec = StoreSpec();
  std::filesystem::remove_all(TempPath("dup") + ".store");
  store::ResultStore rs(TempPath("dup") + ".store");

  const auto record = [](int trial, bool success) {
    campaign::TrialRecord r;
    r.series = 0;
    r.rate = 1;
    r.trial = trial;
    r.success = success;
    r.verdict = success ? 0 : 1;  // journal lines must be verdict-consistent
    r.metric = 0.5;
    return r;
  };
  std::vector<campaign::TrialRecord> shorter, longer;
  for (int t = 0; t < 5; ++t) shorter.push_back(record(t, t % 2 == 0));
  for (int t = 0; t < 9; ++t) longer.push_back(record(t, t % 2 == 0));

  store::ResultStore::IngestStats stats = rs.IngestRecords(spec, shorter);
  EXPECT_EQ(stats.cells_updated, 1);
  EXPECT_EQ(stats.records_added, 5);
  // The same cell from a second shard run with more trials: longer wins.
  stats = rs.IngestRecords(spec, longer);
  EXPECT_EQ(stats.cells_updated, 1);
  EXPECT_EQ(stats.records_added, 4);
  EXPECT_EQ(rs.Load(spec).records.size(), 9u);
  // Re-ingesting the shorter duplicate is a no-op, in either order.
  stats = rs.IngestRecords(spec, shorter);
  EXPECT_EQ(stats.cells_updated, 0);
  EXPECT_EQ(stats.records_added, 0);
  stats = rs.IngestRecords(spec, longer);
  EXPECT_EQ(stats.cells_updated, 0);
  EXPECT_EQ(rs.Load(spec).records.size(), 9u);
}

TEST(ResultStore, NonContiguousRecordsTruncateAtTheGap) {
  const campaign::CampaignSpec spec = StoreSpec();
  std::filesystem::remove_all(TempPath("gap") + ".store");
  store::ResultStore rs(TempPath("gap") + ".store");
  std::vector<campaign::TrialRecord> records;
  for (const int t : {0, 1, 3, 4}) {  // trial 2 missing
    campaign::TrialRecord r;
    r.series = 1;
    r.rate = 0;
    r.trial = t;
    r.verdict = 1;  // success == false
    records.push_back(r);
  }
  const store::ResultStore::IngestStats stats = rs.IngestRecords(spec, records);
  EXPECT_EQ(stats.records_added, 2);  // only the contiguous prefix {0, 1}
  EXPECT_EQ(rs.Load(spec).records.size(), 2u);
}

TEST(ResultStore, MismatchedFingerprintIsRejected) {
  const campaign::CampaignSpec spec = StoreSpec();
  const campaign::Scenario scenario = StoreScenario();
  const std::string journal = RunShard(spec, scenario, 0, 2, "fpr");

  campaign::CampaignSpec other = spec;
  other.base_seed += 1;  // a different campaign's outcome sequences
  std::filesystem::remove_all(TempPath("fpr") + ".store");
  store::ResultStore rs(TempPath("fpr") + ".store");
  EXPECT_THROW(rs.IngestJournal(other, journal), std::runtime_error);
  // Allocation knobs do NOT refingerprint: the same journal ingests under a
  // tighter ci / larger budget.
  campaign::CampaignSpec tighter = spec;
  tighter.ci_half_width = 0.01;
  tighter.max_trials = 500;
  EXPECT_GT(rs.IngestJournal(tighter, journal).records_added, 0);
  std::remove(journal.c_str());
}

// ---- query service ----------------------------------------------------------

struct ServiceFixture {
  campaign::CampaignSpec spec = StoreSpec();
  campaign::Scenario scenario = StoreScenario();
  std::unique_ptr<store::ResultStore> rs;
  std::unique_ptr<service::QueryService> qs;

  explicit ServiceFixture(const std::string& tag, bool prefill = true) {
    const std::string root = TempPath(tag) + ".store";
    std::filesystem::remove_all(root);
    rs = std::make_unique<store::ResultStore>(root);
    qs = std::make_unique<service::QueryService>(rs.get());
    qs->RegisterSpec(spec, StoreScenario());
    if (prefill) {
      const std::string journal = RunShard(spec, scenario, 0, 1, tag);
      rs->IngestJournal(spec, journal);
      std::remove(journal.c_str());
    }
  }

  service::Query Q(const std::string& series, double rate, double ci) const {
    service::Query q;
    q.app = spec.app;
    q.series = series;
    q.rate = rate;
    q.ci = ci;
    return q;
  }
};

TEST(QueryService, CachedCellServedAtEqualOrLooserPrecision) {
  ServiceFixture f("hit");
  // The campaign ran at ci=0.12; a looser request must be a pure cache hit.
  const service::Answer a = f.qs->Handle(f.Q("A", 0.1, 0.3));
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.source, "cache");
  EXPECT_EQ(a.fresh_trials, 0);
  EXPECT_TRUE(a.on_grid);
  EXPECT_TRUE(a.settled);
  EXPECT_LE(a.half_width, 0.3);
  EXPECT_GE(a.trials, f.spec.min_trials);
  // Asking again — and again at a looser ci — returns the same interval.
  const service::Answer b = f.qs->Handle(f.Q("A", 0.1, 0.3));
  const service::Answer c = f.qs->Handle(f.Q("A", 0.1, 0.45));
  for (const service::Answer* r : {&b, &c}) {
    EXPECT_EQ(r->source, "cache");
    EXPECT_EQ(r->fresh_trials, 0);
    EXPECT_EQ(r->success_rate, a.success_rate);
    EXPECT_EQ(r->half_width, a.half_width);
    EXPECT_EQ(r->trials, a.trials);
  }
}

TEST(QueryService, TighterPrecisionRunsFreshTrialsOnceThenCaches) {
  ServiceFixture f("tighten");
  campaign::CampaignSpec wide = f.spec;
  wide.max_trials = 400;  // allocation knob: same fingerprint, deeper budget
  f.qs->RegisterSpec(wide, StoreScenario());

  const int before = static_cast<int>(f.rs->Load(f.spec).records.size());
  service::Query tight = f.Q("A", 0.1, 0.05);
  const service::Answer fresh = f.qs->Handle(tight);
  ASSERT_TRUE(fresh.ok) << fresh.error;
  EXPECT_EQ(fresh.source, "fresh-trials");
  EXPECT_GT(fresh.fresh_trials, 0);
  EXPECT_TRUE(fresh.settled);
  EXPECT_LE(fresh.half_width, 0.05);
  // The extension was written back.
  EXPECT_GT(static_cast<int>(f.rs->Load(f.spec).records.size()), before);

  // Repeat at the same ci: zero trials, identical interval.
  const service::Answer again = f.qs->Handle(tight);
  EXPECT_EQ(again.source, "cache");
  EXPECT_EQ(again.fresh_trials, 0);
  EXPECT_EQ(again.success_rate, fresh.success_rate);
  EXPECT_EQ(again.half_width, fresh.half_width);
  EXPECT_EQ(again.trials, fresh.trials);

  // And the campaign's own CSV is unaffected by the deeper store cell:
  // reduction truncates at the spec's stopping point.
  const std::string golden = GoldenCsv(f.spec, f.scenario, "tighten_golden");
  EXPECT_EQ(MergedCsv(f.rs.get(), f.spec, f.scenario, "tighten_after"), golden);
}

// Fresh trials extend the SAME deterministic sequence the campaign would
// run: a cell answered fresh from an empty store matches the campaign's
// tally for the same (cell, trial count).
TEST(QueryService, FreshTrialsExtendTheDeterministicSequence) {
  ServiceFixture f("det", /*prefill=*/false);
  const service::Answer a = f.qs->Handle(f.Q("B", 0.2, 0.12));
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.source, "fresh-trials");

  campaign::RunnerOptions options;
  options.threads = 1;
  const campaign::CampaignResult campaign_run =
      campaign::RunCampaign(f.spec, f.scenario, options);
  // Series B is index 1; rate 0.2 is index 3.
  const harness::TrialSummary& cell = campaign_run.series[1].points[3].summary;
  EXPECT_EQ(a.trials, cell.trials);
  EXPECT_EQ(a.successes, cell.successes);
}

TEST(QueryService, MissWithFreshDisallowedFailsLoudly) {
  ServiceFixture f("nofresh", /*prefill=*/false);
  service::Query q = f.Q("A", 0.1, 0.12);
  q.allow_fresh = false;
  q.allow_surrogate = false;
  const service::Answer a = f.qs->Handle(q);
  EXPECT_FALSE(a.ok);
  EXPECT_NE(a.error.find("fresh trials disallowed"), std::string::npos);
  // Unknown series and apps are errors, not crashes.
  EXPECT_FALSE(f.qs->Handle(f.Q("NoSuchSeries", 0.1, 0.1)).ok);
  service::Query bad = f.Q("A", 0.1, 0.1);
  bad.app = "no_such_app";
  EXPECT_FALSE(f.qs->Handle(bad).ok);
}

TEST(QueryService, SurrogateAgreesWithStoredCellsWithinWilsonHalfWidths) {
  ServiceFixture f("surr");
  // Build the surrogate exactly as the service does and check every stored
  // on-grid cell of series A.
  const store::StoredCells stored = f.rs->Load(f.spec);
  std::vector<service::CellTally> tallies;
  for (std::size_t r = 0; r < f.spec.fault_rates.size(); ++r) {
    int trials = 0, successes = 0;
    for (const campaign::TrialRecord& rec : stored.records) {
      if (rec.series != 0 || rec.rate != static_cast<int>(r)) continue;
      ++trials;
      if (rec.success) ++successes;
    }
    ASSERT_GT(trials, 0) << "rate index " << r;
    tallies.push_back({f.spec.fault_rates[r], successes, trials});
  }
  const service::CliffSurrogate fit = service::FitCliffSurrogate(tallies);
  ASSERT_TRUE(fit.valid);
  for (const service::CellTally& cell : tallies) {
    const double observed =
        static_cast<double>(cell.successes) / cell.trials;
    const double hw = campaign::WilsonHalfWidth(cell.successes, cell.trials);
    EXPECT_NEAR(fit.Predict(cell.rate), observed, hw)
        << "rate " << cell.rate;
  }

  // Off-grid inside the support: answered by the surrogate, zero trials.
  const service::Answer off = f.qs->Handle(f.Q("A", 0.07, 0.3));
  ASSERT_TRUE(off.ok) << off.error;
  EXPECT_EQ(off.source, "surrogate");
  EXPECT_EQ(off.fresh_trials, 0);
  EXPECT_FALSE(off.on_grid);
  EXPECT_GT(off.success_rate, 0.0);
  EXPECT_LT(off.success_rate, 1.0);
  // Outside the support it refuses to extrapolate; with fresh trials also
  // disallowed that is a hard error.
  service::Query beyond = f.Q("A", 0.9, 0.3);
  beyond.allow_fresh = false;
  const service::Answer out = f.qs->Handle(beyond);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("support"), std::string::npos);
}

TEST(Surrogate, RefusesDegenerateFits) {
  // Fewer than three usable cells, or all cells at one rate: invalid.
  EXPECT_FALSE(service::FitCliffSurrogate({}).valid);
  EXPECT_FALSE(
      service::FitCliffSurrogate({{0.1, 5, 10}, {0.2, 3, 10}}).valid);
  EXPECT_FALSE(service::FitCliffSurrogate(
                   {{0.1, 5, 10}, {0.1, 6, 10}, {0.1, 4, 10}})
                   .valid);
  // Rate-0 cells cannot enter a log-rate fit and must be skipped.
  EXPECT_FALSE(
      service::FitCliffSurrogate({{0.0, 9, 10}, {0.1, 5, 10}, {0.2, 2, 10}})
          .valid);
}

TEST(QueryService, NdjsonQueryRoundTrip) {
  service::Query q;
  std::string error;
  ASSERT_TRUE(service::QueryService::ParseQueryJson(
      R"({"app":"store_synth","series":"A","rate":0.1,"ci":0.05,)"
      R"("fresh":false,"surrogate":true})",
      &q, &error))
      << error;
  EXPECT_EQ(q.app, "store_synth");
  EXPECT_EQ(q.series, "A");
  EXPECT_DOUBLE_EQ(q.rate, 0.1);
  EXPECT_DOUBLE_EQ(q.ci, 0.05);
  EXPECT_FALSE(q.allow_fresh);
  EXPECT_TRUE(q.allow_surrogate);

  // Escapes in series names (they contain commas and may quote).
  ASSERT_TRUE(service::QueryService::ParseQueryJson(
      R"({"app":"fig6_1","series":"SGD+AS,\"SQS\"","rate":1e-3})", &q, &error));
  EXPECT_EQ(q.series, "SGD+AS,\"SQS\"");
  EXPECT_DOUBLE_EQ(q.rate, 1e-3);
  EXPECT_TRUE(q.allow_fresh);  // defaults

  for (const char* bad : {
           "",                                           // not an object
           "[]",                                         // wrong type
           "{}",                                         // empty
           R"({"app":"x","series":"A"})",                // missing rate
           R"({"app":"x","rate":1})",                    // missing series
           R"({"app":"x","series":"A","rate":"fast"})",  // wrong value type
           R"({"app":"x","series":"A","rate":1,"nope":2})",  // unknown key
           R"({"app":"x","series":"A","rate":1)",        // unterminated
       }) {
    EXPECT_FALSE(service::QueryService::ParseQueryJson(bad, &q, &error)) << bad;
    EXPECT_FALSE(error.empty());
  }
}

TEST(QueryService, AnswerJsonShapes) {
  service::Answer a;
  a.ok = true;
  a.source = "cache";
  a.success_rate = 0.625;
  a.half_width = 0.0859375;
  a.trials = 64;
  a.successes = 40;
  a.on_grid = true;
  a.settled = true;
  const std::string json = service::QueryService::AnswerJson(a);
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(json.find("\"source\":\"cache\""), std::string::npos);
  EXPECT_NE(json.find("\"success_rate\":0.625"), std::string::npos);
  EXPECT_NE(json.find("\"trials\":64"), std::string::npos);
  EXPECT_NE(json.find("\"settled\":true"), std::string::npos);

  service::Answer err;
  err.error = "bad \"quote\"";
  EXPECT_EQ(service::QueryService::AnswerJson(err),
            "{\"ok\":false,\"error\":\"bad \\\"quote\\\"\"}");
}

TEST(QueryService, ServeLoopAnswersOnePerLine) {
  ServiceFixture f("serve");
  std::istringstream in(
      "{\"app\":\"store_synth\",\"series\":\"A\",\"rate\":0.1,\"ci\":0.3}\n"
      "\n"  // blank keep-alive line: skipped, no output
      "not json\n"
      "{\"app\":\"store_synth\",\"series\":\"A\",\"rate\":0.07,\"ci\":0.3}\n");
  std::ostringstream out;
  f.qs->Serve(in, out);
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"source\":\"cache\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[2].find("\"source\":\"surrogate\""), std::string::npos);
}

// ---- stats + manifest -------------------------------------------------------

TEST(ResultStore, ManifestListsCampaignsAndAchievedCells) {
  ServiceFixture empty("manifest_empty", /*prefill=*/false);
  EXPECT_TRUE(empty.rs->Manifest().empty());

  ServiceFixture f("manifest");
  const auto manifest = f.rs->Manifest();
  ASSERT_EQ(manifest.size(), 1u);
  const store::ResultStore::ManifestEntry& entry = manifest[0];
  EXPECT_EQ(entry.fingerprint.size(), 16u);
  EXPECT_EQ(entry.fingerprint.find_first_not_of("0123456789abcdef"),
            std::string::npos);
  EXPECT_EQ(entry.app, "store_synth");
  // 2 series x 5 rates, all owned by the single prefill shard.
  ASSERT_EQ(entry.cells.size(), 10u);
  for (const store::ResultStore::ManifestCell& cell : entry.cells) {
    EXPECT_GE(cell.series, 0);
    EXPECT_LT(cell.series, 2);
    EXPECT_GE(cell.rate, 0);
    EXPECT_LT(cell.rate, 5);
    EXPECT_GE(cell.trials, f.spec.min_trials);
    EXPECT_LE(cell.trials, f.spec.max_trials);
    EXPECT_GE(cell.successes, 0);
    EXPECT_LE(cell.successes, cell.trials);
    // The achieved half-width is the Wilson interval of the tally.
    EXPECT_DOUBLE_EQ(cell.half_width,
                     campaign::WilsonHalfWidth(cell.successes, cell.trials));
  }
}

TEST(QueryService, ParseQueryJsonStatsCmd) {
  service::Query q;
  std::string error;
  // A stats command needs no app/series/rate.
  ASSERT_TRUE(
      service::QueryService::ParseQueryJson(R"({"cmd":"stats"})", &q, &error))
      << error;
  EXPECT_EQ(q.cmd, "stats");

  EXPECT_FALSE(
      service::QueryService::ParseQueryJson(R"({"cmd":"bogus"})", &q, &error));
  EXPECT_NE(error.find("unknown cmd"), std::string::npos);
}

TEST(QueryService, StatsJsonReportsLatencyAndManifest) {
  ServiceFixture f("stats");
  telemetry::SetCountersEnabled(true);
  telemetry::ResetCounters();
  ASSERT_TRUE(f.qs->Handle(f.Q("A", 0.1, 0.3)).ok);  // one cache answer

  const std::string json = f.qs->StatsJson();
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(json.find("\"cmd\":\"stats\""), std::string::npos);
  // All three per-source latency summaries are always present.
  EXPECT_NE(json.find("\"latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"fresh_trials\":{\"count\":"), std::string::npos);
  EXPECT_NE(json.find("\"surrogate\":{\"count\":0"), std::string::npos);
#if ROBUSTIFY_TELEMETRY_ENABLED
  EXPECT_NE(json.find("\"cache\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"store.hits\":1"), std::string::npos);
#else
  EXPECT_NE(json.find("\"counters\":{}"), std::string::npos);
#endif
  // The store manifest rides along: the campaign and its cell tallies.
  EXPECT_NE(json.find("\"campaigns\":[{\"fingerprint\":\""),
            std::string::npos);
  const auto manifest = f.rs->Manifest();
  ASSERT_EQ(manifest.size(), 1u);
  EXPECT_NE(json.find(manifest[0].fingerprint), std::string::npos);
  EXPECT_NE(json.find("\"app\":\"store_synth\""), std::string::npos);
  EXPECT_NE(json.find("\"half_width\":"), std::string::npos);
}

TEST(QueryService, ServeLoopAnswersStatsCmd) {
  ServiceFixture f("serve_stats");
  std::istringstream in(
      "{\"app\":\"store_synth\",\"series\":\"A\",\"rate\":0.1,\"ci\":0.3}\n"
      "{\"cmd\":\"stats\"}\n"
      "{\"cmd\":\"bogus\"}\n");
  std::ostringstream out;
  f.qs->Serve(in, out);
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"source\":\"cache\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"cmd\":\"stats\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"campaigns\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[2].find("unknown cmd"), std::string::npos);
}

// Reduction of stored records replays the spec's own stopping rule, so the
// runner and ReduceRecords agree exactly on a round-tripped journal.
TEST(ReduceRecords, MatchesRunnerOnItsOwnJournal) {
  const campaign::CampaignSpec spec = StoreSpec();
  const campaign::Scenario scenario = StoreScenario();
  campaign::RunnerOptions options;
  options.threads = 2;
  options.journal_path = TempPath("reduce") + ".journal";
  const campaign::CampaignResult direct =
      campaign::RunCampaign(spec, scenario, options);
  const campaign::CampaignJournal::Loaded loaded =
      campaign::CampaignJournal::Load(options.journal_path);
  ASSERT_TRUE(loaded.exists);
  const campaign::CampaignResult reduced = campaign::ReduceRecords(
      spec, scenario, loaded.records, /*adaptive=*/true);
  std::remove(options.journal_path.c_str());
  EXPECT_EQ(CsvBytes(reduced.series, "reduce_a"),
            CsvBytes(direct.series, "reduce_b"));
  EXPECT_EQ(reduced.total_trials, direct.total_trials);
  EXPECT_EQ(reduced.settled_cells, direct.settled_cells);
}

}  // namespace
