// choose_epsilon: translate legal / societal identifiability requirements
// into DP parameters — the paper's core use case (Section 1).
//
// Given a maximum tolerable posterior belief (deniability) or expected
// re-identification advantage, prints the corresponding epsilon, the
// complementary score, and the per-step Gaussian noise multiplier for a
// k-step DPSGD run under RDP composition.
//
//   ./choose_epsilon [k] [delta] [runtime flags]
//   (defaults: k = 30, delta = 1e-3)

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "bench/bench_common.h"
#include "core/scores.h"
#include "dp/rdp_accountant.h"
#include "util/table_writer.h"

using namespace dpaudit;

int main(int argc, char** argv) {
  bench::InitBenchRuntime(&argc, argv);
  size_t k = argc > 1 ? static_cast<size_t>(std::strtol(argv[1], nullptr, 10)) : 30;
  double delta = argc > 2 ? std::strtod(argv[2], nullptr) : 1e-3;

  std::printf("policy table: identifiability -> DP parameters "
              "(k = %zu steps, delta = %g)\n\n",
              k, delta);

  // From deniability requirements (rho_beta).
  TableWriter from_beta({"max posterior belief", "epsilon (Eq. 10)",
                         "implied rho_alpha", "noise multiplier z"});
  for (double rho_beta : {0.55, 0.6, 0.7, 0.75, 0.8, 0.9, 0.95, 0.99}) {
    double epsilon = *EpsilonForRhoBeta(rho_beta);
    double z = *NoiseMultiplierForTargetEpsilon(epsilon, delta, k);
    from_beta.AddRow({TableWriter::Cell(rho_beta, 2),
                      TableWriter::Cell(epsilon, 3),
                      TableWriter::Cell(*RhoAlpha(epsilon, delta), 3),
                      TableWriter::Cell(z, 3)});
  }
  std::printf("choosing by deniability (rho_beta):\n");
  from_beta.RenderText(std::cout);

  // From expected-advantage requirements (rho_alpha).
  TableWriter from_alpha({"max expected advantage", "epsilon (Eq. 15)",
                          "implied rho_beta", "noise multiplier z"});
  for (double rho_alpha : {0.01, 0.05, 0.1, 0.2, 0.3, 0.5}) {
    double epsilon = *EpsilonForRhoAlpha(rho_alpha, delta);
    double z = *NoiseMultiplierForTargetEpsilon(epsilon, delta, k);
    from_alpha.AddRow({TableWriter::Cell(rho_alpha, 2),
                       TableWriter::Cell(epsilon, 3),
                       TableWriter::Cell(*RhoBeta(epsilon), 3),
                       TableWriter::Cell(z, 3)});
  }
  std::printf("\nchoosing by expected re-identification advantage "
              "(rho_alpha):\n");
  from_alpha.RenderText(std::cout);

  std::printf("\nreading the table: a requirement of rho_beta <= 0.9 means "
              "the strongest DP adversary\n"
              "(knowing all records but one, observing every gradient) can "
              "never be more than 90%%\n"
              "certain a given record was used; spend at most the listed "
              "epsilon.\n");
  return 0;
}
