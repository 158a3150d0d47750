// E5 — The resilience bound n >= (d+2)f + 1 (eq. 2) is tight.
//
// At or above the bound every execution certifies (Lemma 2 guarantees a
// non-empty h_i[0]). Below it, the round-0 subset-hull intersection is
// empty for spread-out inputs and processes cannot proceed. The bench
// sweeps n across the boundary for several (d, f).
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/harness.hpp"

using namespace chc;

int main(int argc, char** argv) {
  const bool quick = bench::init(argc, argv).quick;
  bench::print_experiment_header(
      "E5", "resilience boundary sweep: n vs (d+2)f+1");

  struct Dim {
    std::size_t d, f;
  };
  const std::vector<Dim> dims = quick
      ? std::vector<Dim>{{2, 1}}
      : std::vector<Dim>{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 1}};
  const std::size_t seeds = quick ? 3 : 8;

  Table t({"d", "f", "n", "bound", "at/above?", "regime", "runs", "empty_h0",
           "certified"});
  bool tight = true;

  // The bound is a WORST-CASE requirement: below it, benign executions can
  // still succeed (round-0 views happen to be large/benign), so the sweep
  // runs both a benign regime and an adversarial one (early crashes plus
  // lagged faulty channels, which shrink the round-0 views to n-f).
  struct Regime {
    const char* name;
    core::CrashStyle crash;
    core::DelayRegime delay;
  };
  const std::vector<Regime> regimes = {
      {"benign", core::CrashStyle::kNone, core::DelayRegime::kUniform},
      {"adversarial", core::CrashStyle::kEarly,
       core::DelayRegime::kLaggedFaulty},
  };

  for (const auto& dim : dims) {
    const std::size_t bound = (dim.d + 2) * dim.f + 1;
    const std::size_t lo = std::max(2 * dim.f + 1, bound - 2);
    for (std::size_t n = lo; n <= bound + 2; ++n) {
      for (const auto& regime : regimes) {
        std::size_t empty_h0 = 0, certified = 0, runs = 0;
        for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
          core::RunConfig rc;
          rc.cc = core::CCConfig{.n = n, .f = dim.f, .d = dim.d, .eps = 0.05};
          rc.pattern = core::InputPattern::kUniform;
          rc.crash_style = regime.crash;
          rc.delay = regime.delay;
          rc.seed = 9000 + seed * 31 + n;
          const auto out = core::run_cc_once(rc);
          ++runs;
          bool any_empty = false;
          for (sim::ProcessId p = 0; p < n; ++p) {
            if (out.trace->of(p).round0_empty) any_empty = true;
          }
          if (any_empty) ++empty_h0;
          if (out.cert.all_decided && out.cert.validity &&
              out.cert.agreement && out.cert.optimality) {
            ++certified;
          }
        }
        if (n >= bound && certified != runs) tight = false;
        t.add_row({Table::num(dim.d), Table::num(dim.f), Table::num(n),
                   Table::num(bound), n >= bound ? "yes" : "no", regime.name,
                   Table::num(runs), Table::num(empty_h0),
                   Table::num(certified)});
      }
    }
  }
  bench::emit(t);
  std::cout << "all runs at/above the bound certified (both regimes): "
            << (tight ? "yes" : "NO")
            << "\n(below the bound, empty_h0 counts executions whose round-0 "
               "subset-hull\nintersection was empty — concentrated in the "
               "adversarial regime, where views\nshrink to n-f entries and "
               "Lemma 2's Tverberg argument no longer applies)\n";
  return tight ? 0 : 1;
}
