// Figure 3: rho_beta and rho_alpha across (epsilon, delta).
//
// Panel (a): rho_beta depends only on epsilon (Theorem 1 holds for any
// mechanism; the delta term merely bounds the failure probability), so the
// curves for different delta coincide. Panel (b): rho_alpha (Theorem 2)
// depends strongly on delta through the Gaussian calibration factor.

#include <cmath>
#include <iostream>

#include "bench/bench_common.h"
#include "core/scores.h"

namespace dpaudit {
namespace {

constexpr double kDeltas[] = {1e-2, 1e-4, 1e-6, 1e-8};

void Run() {
  std::cout << "Figure 3: rho_beta and rho_alpha for various (epsilon, "
               "delta) under M_Gau\n";

  TableWriter beta({"epsilon", "rho_beta (any delta)"});
  for (double eps = 0.0; eps <= 10.0 + 1e-9; eps += 0.5) {
    beta.AddRow(
        {TableWriter::Cell(eps, 2), TableWriter::Cell(*RhoBeta(eps), 4)});
  }
  bench::Emit("panel (a): rho_beta vs epsilon", beta);

  TableWriter alpha({"epsilon", "d=1e-2", "d=1e-4", "d=1e-6", "d=1e-8"});
  for (double eps = 0.25; eps <= 10.0 + 1e-9; eps += 0.5) {
    std::vector<std::string> row = {TableWriter::Cell(eps, 2)};
    for (double delta : kDeltas) {
      row.push_back(TableWriter::Cell(*RhoAlpha(eps, delta), 4));
    }
    alpha.AddRow(row);
  }
  bench::Emit("panel (b): rho_alpha vs epsilon per delta", alpha);

  // The paper's k-dimensional remark: with f(D) and f(D') differing by 1 in
  // each of k dimensions, GS = sqrt(k) and the bound is dimension-free —
  // the advantage depends only on (epsilon, delta).
  TableWriter dims({"k (dims)", "GS = sqrt(k)", "rho_alpha(eps=2, d=1e-6)"});
  for (size_t k : {1, 4, 16, 64, 256}) {
    dims.AddRow({TableWriter::Cell(k),
                 TableWriter::Cell(std::sqrt(static_cast<double>(k)), 3),
                 TableWriter::Cell(*RhoAlpha(2.0, 1e-6), 4)});
  }
  bench::Emit("multidimensional invariance check", dims);
}

}  // namespace
}  // namespace dpaudit

int main(int argc, char** argv) {
  dpaudit::bench::InitBenchRuntime(&argc, argv);
  dpaudit::Run();
  dpaudit::obs::FlushTelemetry();
  return 0;
}
