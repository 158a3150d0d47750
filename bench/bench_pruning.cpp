// E9 — Exact vs vertex-budget (pruned) iterate states, the design-choice
// ablation from DESIGN.md §5.
//
// In d >= 3 the exact Minkowski iterates accumulate vertices; an inner
// approximation with a fixed vertex budget caps the cost. Because the
// approximation is a subset of the exact polytope, validity is preserved
// by construction; the experiment measures what happens to agreement,
// output size, the I_Z certificate, and wall-clock time.
#include <chrono>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/harness.hpp"

using namespace chc;

int main(int argc, char** argv) {
  const bool quick = bench::init(argc, argv).quick;
  bench::print_experiment_header(
      "E9", "exact vs vertex-budget pruned iterates (d = 3)");

  const std::vector<std::size_t> budgets =
      quick ? std::vector<std::size_t>{0, 8}
            : std::vector<std::size_t>{0, 32, 16, 8, 4};
  const std::size_t seeds = quick ? 1 : 2;

  Table t({"budget", "runs", "valid", "agree", "optimal", "max_dH",
           "mean_volume", "mean_seconds"});
  for (const std::size_t budget : budgets) {
    std::size_t valid = 0, agree = 0, optimal = 0, runs = 0;
    double max_dh = 0.0, vol = 0.0, secs = 0.0;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      core::RunConfig rc;
      // n = 8 keeps |X_i| comfortably above the Tverberg-tight size
      // (d+1)f+1 = 5, so round-0 polytopes are full-dimensional and the
      // Minkowski iterates genuinely accumulate vertices. (At the tight
      // size the output degenerates to a single point — the paper's §6
      // degenerate case, recorded under E5.)
      rc.cc = core::CCConfig{.n = 8, .f = 1, .d = 3, .eps = 0.05};
      rc.cc.max_polytope_vertices = budget;
      rc.pattern = core::InputPattern::kUniform;
      rc.crash_style = core::CrashStyle::kNone;
      rc.delay = core::DelayRegime::kLaggedOneCorrect;
      rc.seed = 2500 + seed;
      const auto t0 = std::chrono::steady_clock::now();
      const auto out = core::run_cc_once(rc);
      secs += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
      if (!out.cert.all_decided) continue;
      ++runs;
      if (out.cert.validity) ++valid;
      if (out.cert.agreement) ++agree;
      if (out.cert.optimality) ++optimal;
      max_dh = std::max(max_dh, out.cert.max_pairwise_hausdorff);
      vol += out.cert.min_output_measure;
    }
    t.add_row({budget == 0 ? "exact" : Table::num(budget), Table::num(runs),
               Table::num(valid), Table::num(agree), Table::num(optimal),
               Table::num(max_dh, 3),
               Table::num(runs ? vol / double(runs) : 0.0, 4),
               Table::num(runs ? secs / double(runs) : 0.0, 3)});
  }
  bench::emit(t);
  std::cout
      << "validity must hold at every budget (inner approximation); tight\n"
         "budgets may trim the I_Z floor and slow agreement slightly while\n"
         "cutting polytope-arithmetic cost.\n";
  return 0;
}
