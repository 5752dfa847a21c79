// robustify_benchmark: runs one workload for a fixed time and prints its
// metrics, by name and unit, ending with one JSON result line.
//
//   robustify_benchmark --workload NAME --seed N --seconds S --trace 0|1
//                       --out DIR
//
// The run repeats set-up plus one measured repetition of the workload for
// about S seconds; set-up and each metric report medians.  With --trace 0
// every repetition is untraced and the end-to-end metrics are printed; with
// --trace 1 untraced and traced repetitions alternate, the per-layer
// metrics come from the traced ones, and the benchmark's spans plus the
// program's attribution ledger are written to DIR.  Exit status is nonzero
// when any operation or correctness check failed.
#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "spans.h"
#include "telemetry/attribution.h"
#include "telemetry/provenance.h"

namespace {

using bench::Clock;
using bench::Rep;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},           {"setup_s", "s"},
    {"requests_per_s", "1/s"}, {"request_p50_ms", "ms"},
    {"request_p99_ms", "ms"},  {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"campaign.trials", "count"},
    {"campaign.budget_frac", "frac"},
    {"campaign.cell_wait_max_s", "s"},
    {"checkpoint.flushes", "count"},
    {"checkpoint.flush_self_s", "s"},
    {"trial.p50_ms", "ms"},
    {"trial.p90_ms", "ms"},
    {"harness.busy_frac", "frac"},
    {"pool.wait_s", "s"},
    {"sgd.iterations", "count"},
    {"sgd.accept_frac", "frac"},
    {"cgls.iterations", "count"},
    {"cgls.restarts", "count"},
    {"solve.sgd.self_s", "s"},
    {"phase.self_s", "s"},
    {"solve.cgls.self_s", "s"},
    {"injector.mops", "Mop"},
    {"injector.faults", "count"},
    {"gap.draws", "count"},
    {"injector.ns_per_op", "ns"},
    {"injector.ns_per_fault", "ns"},
    {"store.load_ms", "ms"},
    {"store.journal_kb", "KiB"},
    {"store.hits", "count"},
    {"store.misses", "count"},
    {"store.fresh_trials", "count"},
    {"store.ingested_cells", "count"},
    {"query.cache_p50_ms", "ms"},
    {"query.fresh_p50_ms", "ms"},
    {"query.surrogate_p50_ms", "ms"},
    {"query.minor_faults", "count"},
    {"service.hit_frac", "frac"},
    {"trace.overhead_frac", "frac"},
};

// Environment overrides that would change what the workloads run.
constexpr const char* kForbiddenEnv[] = {
    "ROBUSTIFY_THREADS",     "ROBUSTIFY_ENGINE",      "ROBUSTIFY_INJECTOR",
    "ROBUSTIFY_RNG",         "ROBUSTIFY_FAULT_MODEL", "ROBUSTIFY_TRACE",
    "ROBUSTIFY_TILE_THREADS",
};

// Set-up runs before every repetition, in bursts that each last at least
// kSetupBurstSeconds, until kSetupSecondsPerRep have passed: a
// microsecond-scale set-up is timed over many calls rather than one call at
// a time, and a set-up longer than that runs once.  A burst's time is its
// total over its set-up count, and a repetition's set-up time is its
// fastest burst, the one least disturbed by the rest of the host.  setup_s
// is the median over the run's repetitions, so like wall_s it spans the
// whole run rather than one moment of it.
constexpr double kSetupBurstSeconds = 0.02;
constexpr double kSetupSecondsPerRep = 0.25;

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) kv[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || kv.size() != 5 || !kv.count("--workload") ||
      !kv.count("--seed") || !kv.count("--seconds") || !kv.count("--trace") ||
      !kv.count("--out")) {
    return false;
  }
  try {
    args->workload = kv["--workload"];
    args->seed = std::stoull(kv["--seed"]);
    args->seconds = std::stod(kv["--seconds"]);
    args->out = kv["--out"];
    const std::string trace = kv["--trace"];
    if (trace != "0" && trace != "1") return false;
    args->trace = trace == "1";
  } catch (const std::exception&) {
    return false;
  }
  return args->seconds > 0;
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

// VmHWM, the peak resident set of this process image.  getrusage's
// ru_maxrss would also carry the launching parent's peak across exec.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

double Median(const std::vector<double>& v) { return bench::Quantile(v, 0.5); }

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: robustify_benchmark --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out DIR\n";
    return 2;
  }
  for (const char* name : kForbiddenEnv) {
    if (std::getenv(name) != nullptr) {
      std::cerr << "refusing to run: " << name
                << " is set and would change what the workload runs\n";
      return 2;
    }
  }
  const int nproc = UsableCpus();
  std::unique_ptr<bench::Workload> workload =
      bench::MakeWorkload(args.workload, args.seed, std::min(nproc, 4), args.out);
  if (workload == nullptr) {
    std::cerr << "unknown workload '" << args.workload
              << "' (sort_adaptive, query_mix)\n";
    return 2;
  }
  std::filesystem::create_directories(args.out);

  bench::Ledger ledger;
  std::vector<double> setup_s;
  long setup_calls = 0;
  std::vector<Rep> reps;
  bench::SetRecording(args.trace);
  {
    bench::Span workload_span("workload");
    // Traced runs alternate untraced and traced repetitions, so drift hits
    // both sides of the overhead ratio alike.
    const Clock::time_point start = Clock::now();
    for (int i = 0;; ++i) {
      const Clock::time_point cycle_start = Clock::now();
      const bool traced = args.trace && i % 2 == 1;
      bench::SetRecording(traced);
      {
        bench::Span span("setup");
        const Clock::time_point setup_start = Clock::now();
        double fastest = std::numeric_limits<double>::infinity();
        do {
          const Clock::time_point burst = Clock::now();
          long n = 0;
          double elapsed = 0.0;
          do {
            workload->Setup();
            ++n;
            elapsed = bench::Seconds(burst, Clock::now());
          } while (elapsed < kSetupBurstSeconds);
          fastest = std::min(fastest, elapsed / static_cast<double>(n));
          setup_calls += n;
        } while (bench::Seconds(setup_start, Clock::now()) < kSetupSecondsPerRep);
        setup_s.push_back(fastest);
      }
      robustify::telemetry::SetAttributionEnabled(traced);
      reps.push_back(workload->Run(traced, &ledger));
      robustify::telemetry::SetAttributionEnabled(false);
      std::fprintf(stderr, "repetition %d%s: %.4f s\n", i, traced ? " (traced)" : "",
                   reps.back().wall_s);
      // Stop before a repetition like the last one would end past --seconds.
      const Clock::time_point now = Clock::now();
      const bool enough = !args.trace || i >= 1;
      if (enough && bench::Seconds(start, now) + bench::Seconds(cycle_start, now) >
                        args.seconds) {
        break;
      }
    }
  }
  bench::SetRecording(false);

  // Work counts must repeat exactly in every repetition at one seed.
  for (std::size_t r = 1; r < reps.size(); ++r) {
    for (const auto& [name, value] : reps[0].counts) {
      const auto it = reps[r].counts.find(name);
      ledger.Record(it != reps[r].counts.end() && it->second == value,
                    name + " differs between repetitions at one seed");
    }
  }

  const std::string counts = bench::CountsText(reps[0]);
  if (const bench::Reference* ref = bench::FindReference(args.workload, args.seed)) {
    ledger.Record(bench::Fnv1a(counts) == ref->counts_digest,
                  "work counts differ from the ones recorded for this seed:\n" + counts);
  }

  std::map<std::string, double> metrics;
  std::vector<double> untraced_wall, traced_wall;
  for (const Rep& rep : reps) (rep.traced ? traced_wall : untraced_wall).push_back(rep.wall_s);
  if (!args.trace) {
    std::vector<double> rate, request_ms;
    for (const Rep& rep : reps) {
      if (rep.wall_s > 0) rate.push_back(static_cast<double>(rep.request_ms.size()) / rep.wall_s);
      request_ms.insert(request_ms.end(), rep.request_ms.begin(), rep.request_ms.end());
    }
    metrics["wall_s"] = Median(untraced_wall);
    metrics["setup_s"] = Median(setup_s);
    metrics["requests_per_s"] = Median(rate);
    metrics["request_p50_ms"] = bench::Quantile(request_ms, 0.50);
    metrics["request_p99_ms"] = bench::Quantile(request_ms, 0.99);
    metrics["peak_rss_mb"] = PeakRssMb();
  } else {
    std::map<std::string, std::vector<double>> timings;
    const Rep* first_traced = nullptr;
    for (const Rep& rep : reps) {
      if (!rep.traced) continue;
      if (first_traced == nullptr) first_traced = &rep;
      for (const auto& [name, value] : rep.timings) timings[name].push_back(value);
    }
    for (const MetricDef& m : kPerLayer) metrics[m.name] = 0.0;
    for (const auto& [name, value] : first_traced->counts) metrics[name] = value;
    for (const auto& [name, values] : timings) metrics[name] = Median(values);
    metrics["trace.overhead_frac"] = Median(traced_wall) / Median(untraced_wall) - 1.0;

    const std::string trace_path = args.out + "/trace.json";
    const std::string attr_path = args.out + "/attribution.txt";
    ledger.Record(bench::WriteChromeTrace(trace_path), "cannot write " + trace_path);
    ledger.Record(robustify::telemetry::WriteAttributionReport(attr_path),
                  "cannot write " + attr_path);
  }

  // Provenance and run facts travel with every result.
  const robustify::telemetry::BuildProvenance& p = robustify::telemetry::Provenance();
  std::map<std::string, std::string> info = workload->Info();
  info["git_sha"] = p.git_sha;
  info["git_status"] = p.git_status;
  info["compiler"] = p.compiler;
  info["cxx_flags"] = p.cxx_flags;
  info["build_type"] = p.build_type;
  info["nproc"] = std::to_string(nproc);
  info["repetitions"] = std::to_string(reps.size());
  info["setup_calls"] = std::to_string(setup_calls);
  long requests = 0;
  for (const Rep& rep : reps) requests += static_cast<long>(rep.request_ms.size());
  info["latency_samples"] = std::to_string(requests);
  const double failed_frac =
      ledger.attempted() > 0
          ? static_cast<double>(ledger.failed()) / static_cast<double>(ledger.attempted())
          : 0.0;
  info["failed_frac"] = Number(failed_frac);
  info["counts"] = counts;
  char counts_digest[32];
  std::snprintf(counts_digest, sizeof(counts_digest), "%016llx",
                static_cast<unsigned long long>(bench::Fnv1a(counts)));
  info["counts_digest"] = counts_digest;

  std::string info_json = "{";
  for (const auto& [key, value] : info) {
    if (info_json.size() > 1) info_json += ", ";
    info_json += JsonString(key) + ": " + JsonString(value);
  }
  info_json += "}";
  std::cout << "info " << info_json << "\n";

  const auto* defs = args.trace ? kPerLayer : kEndToEnd;
  const std::size_t count = args.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  std::string metrics_json = "{";
  for (std::size_t i = 0; i < count; ++i) {
    const double value = metrics[defs[i].name];
    std::printf("%-26s %.6g %s\n", defs[i].name, value, defs[i].unit);
    if (i > 0) metrics_json += ", ";
    metrics_json += JsonString(defs[i].name) + ": {\"value\": " + Number(value) +
                    ", \"unit\": " + JsonString(defs[i].unit) + "}";
  }
  metrics_json += "}";
  const bool correct = ledger.failed() == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << ledger.attempted()
            << ", \"failed\": " << ledger.failed() << ", \"metrics\": " << metrics_json
            << "}" << std::endl;
  return correct ? 0 : 1;
}
