// E5 / Figure 6.3: error-to-signal ratio of IIR filtering vs fault rate.
//
// Series (paper legend): Base (feed-forward recursion), SGD,LS, SGD+AS,LS,
// SGD+AS,SQS — 1000 iterations, 10-tap filter (5 feed-forward + 5 feedback),
// 500 input samples; quality = ||y - y*|| / ||y*||.
//
// Axis, seed, and series definitions live in the campaign registry
// (src/campaign/spec.cpp + scenarios.cpp); this main is presentation only.
// The axis stops at 2% faulty FLOPs: beyond that this fault model (binary64
// with occasional exponent corruption) destabilizes the variational form as
// well, and the interesting crossover lives below it.
#include "bench/bench_common.h"
#include "campaign/scenarios.h"
#include "campaign/spec.h"

int main(int argc, char** argv) {
  using namespace robustify;
  bench::BenchContext ctx("fig6_3_iir", argc, argv);
  bench::Banner(
      "Figure 6.3 - Accuracy of IIR (1000 iterations)",
      "Section 6.1, Figure 6.3 (lower is better)",
      "the feed-forward recursion accrues noise with t and collapses; the "
      "variational (least-squares) form holds the error-to-signal ratio "
      "orders of magnitude lower once faults are frequent");

  const campaign::CampaignSpec& spec = campaign::RegistrySpec("fig6_3");
  const campaign::Scenario scenario = campaign::BuildScenario(spec);
  const auto series = ctx.RunGrid("iir", spec, scenario);
  bench::EmitSweep(scenario.title, series, scenario.value, scenario.value_label,
                   scenario.csv_name);
  return ctx.Finish();
}
