// E14 / Section 4.7: eigenpairs via Rayleigh-quotient ascent with deflation.
//
// The paper sketches this formulation without measurements; this bench
// sweeps the fault rate and reports the relative eigenvalue error of the
// top-3 pairs against the reliable Jacobi oracle.
//
// Axis, seed, and series definitions live in the campaign registry
// (src/campaign/spec.cpp + scenarios.cpp); this main is presentation only.
#include "bench/bench_common.h"
#include "campaign/scenarios.h"
#include "campaign/spec.h"

int main(int argc, char** argv) {
  using namespace robustify;
  bench::BenchContext ctx("eigen_rayleigh", argc, argv);
  bench::Banner(
      "Eigenpairs via Rayleigh quotient ascent (Section 4.7)",
      "Section 4.7 ('Other numerical problems'); no paper figure",
      "eigenvalue error grows smoothly with fault rate instead of "
      "collapsing; the ascent remains finite at every rate");

  const campaign::CampaignSpec& spec = campaign::RegistrySpec("eigen_rayleigh");
  const campaign::Scenario scenario = campaign::BuildScenario(spec);
  const auto series = ctx.RunGrid("rayleigh", spec, scenario);
  bench::EmitSweep(scenario.title, series, scenario.value, scenario.value_label,
                   scenario.csv_name);
  return ctx.Finish();
}
