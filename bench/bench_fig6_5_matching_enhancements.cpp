// E7 / Figure 6.5: the effect of gradient-descent enhancements on bipartite
// matching success rate, up to 50% of FLOPs erroneous.
//
// Series (paper legend): Non-robust (Hungarian on the faulty FPU), Basic,LS,
// SQS, PRECOND, ANNEAL, ALL.  The paper's findings to reproduce:
//  * basic SGD is worse than the non-robust baseline at low error rates;
//  * preconditioning matches the non-robust version up to ~2% and beats it
//    above;
//  * annealing the penalty weight gives the biggest single win (88% at ~50%
//    fault rate in the paper);
//  * ALL enhancements together reach ~100% even at a 50% fault rate.
//
// Axis, seed, and series definitions live in the campaign registry
// (src/campaign/spec.cpp + scenarios.cpp); this main is presentation only.
#include "bench/bench_common.h"
#include "campaign/scenarios.h"
#include "campaign/spec.h"

int main(int argc, char** argv) {
  using namespace robustify;
  bench::BenchContext ctx("fig6_5_matching_enhancements", argc, argv);
  bench::Banner(
      "Figure 6.5 - Matching enhancements (10000 iterations)",
      "Section 6.2, Figure 6.5",
      "Non-robust degrades steadily; Basic,LS plateaus low; ANNEAL "
      "dominates the single enhancements; ALL reaches ~100% even at 50% "
      "fault rate");

  const campaign::CampaignSpec& spec = campaign::RegistrySpec("fig6_5");
  const campaign::Scenario scenario = campaign::BuildScenario(spec);
  const auto series = ctx.RunGrid("matching-enhancements", spec, scenario);
  bench::EmitSweep(scenario.title, series, scenario.value, scenario.value_label,
                   scenario.csv_name);
  return ctx.Finish();
}
