// E13 / Sections 4.5-4.6: robustified max-flow and all-pairs shortest path.
//
// The paper gives the LP formulations but no measured figure; this bench
// provides the missing sweep: solution quality of the LP robustification vs
// the combinatorial baseline (Ford-Fulkerson / Floyd-Warshall) on the faulty
// FPU, as a function of fault rate.
//
// Axis, seed, and series definitions live in the campaign registry
// (src/campaign/spec.cpp + scenarios.cpp); this main is presentation only.
#include "bench/bench_common.h"
#include "campaign/scenarios.h"
#include "campaign/spec.h"

int main(int argc, char** argv) {
  using namespace robustify;
  bench::BenchContext ctx("maxflow_apsp", argc, argv);
  bench::Banner(
      "Max-flow and APSP robustification (Sections 4.5-4.6)",
      "Eqs. 4.6-4.9 (max-flow LP) and 4.10-4.12 (APSP LP); no paper figure "
      "— this is the formulations' evaluation",
      "combinatorial baselines lose correctness as fault rate grows; the LP "
      "penalty forms degrade gracefully");

  for (const char* name : {"maxflow", "apsp"}) {
    const campaign::CampaignSpec& spec = campaign::RegistrySpec(name);
    const campaign::Scenario scenario = campaign::BuildScenario(spec);
    const auto series = ctx.RunGrid(name, spec, scenario);
    bench::EmitSweep(scenario.title, series, scenario.value, scenario.value_label,
                     scenario.csv_name);
  }
  return ctx.Finish();
}
