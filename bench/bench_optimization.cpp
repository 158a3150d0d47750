// E7 — Convex hull function optimization (§7).
//
//  (a) Weak β-optimality: for b-Lipschitz costs and ε = β/b, the spread of
//      minimized values |c(y_i) - c(y_j)| stays below β.
//  (b) The 2f+1-identical-input clause: c(y_i) <= c(x*).
//  (c) The Theorem-4 tension: with the symmetric two-minimum cost and
//      binary inputs, value spread stays tiny but POINT spread can be ~1 —
//      ε-agreement on y_i fails, exactly as the impossibility predicts.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "optimize/two_step.hpp"

using namespace chc;

int main(int argc, char** argv) {
  const bool quick = bench::init(argc, argv).quick;
  bench::print_experiment_header("E7",
                                 "2-step function optimization (weak "
                                 "beta-optimality, Theorem-4 tension)");

  // ---------- (a) beta sweep with quadratic + linear costs ----------
  {
    Table t({"cost", "beta", "eps=beta/b", "runs", "ok", "max_val_spread",
             "max_pt_spread"});
    const std::vector<double> betas =
        quick ? std::vector<double>{0.25} : std::vector<double>{0.5, 0.25, 0.1};
    const std::size_t seeds = quick ? 2 : 4;
    for (const double beta : betas) {
      for (const bool linear : {false, true}) {
        std::unique_ptr<opt::CostFunction> cost;
        if (linear) {
          cost = std::make_unique<opt::LinearCost>(geo::Vec{1.0, 0.5});
        } else {
          cost = std::make_unique<opt::QuadraticCost>(geo::Vec{0.0, 0.0});
        }
        const double b =
            *cost->lipschitz_on(geo::Vec{-2, -2}, geo::Vec{2, 2});
        double val_spread = 0, pt_spread = 0;
        std::size_t ok = 0;
        for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
          core::RunConfig rc;
          rc.cc = core::CCConfig{.n = 9, .f = 2, .d = 2,
                                 .eps = opt::epsilon_for_beta(beta, b)};
          rc.pattern = core::InputPattern::kUniform;
          rc.crash_style = core::CrashStyle::kMidBroadcast;
          rc.seed = 600 + seed;
          const auto out = opt::optimize_two_step(rc, *cost);
          if (out.all_decided && out.validity &&
              out.max_cost_spread < beta) {
            ++ok;
          }
          val_spread = std::max(val_spread, out.max_cost_spread);
          pt_spread = std::max(pt_spread, out.max_point_spread);
        }
        t.add_row({linear ? "linear" : "quadratic", Table::num(beta, 3),
                   Table::num(opt::epsilon_for_beta(beta, b), 4),
                   Table::num(seeds), Table::num(ok),
                   Table::num(val_spread, 4), Table::num(pt_spread, 4)});
      }
    }
    bench::emit(t);
  }

  // ---------- (b) the 2f+1 identical-input clause ----------
  {
    Table t({"n", "f", "c(x*)", "max c(y_i)", "clause_holds"});
    core::RunConfig rc;
    rc.cc = core::CCConfig{.n = 9, .f = 2, .d = 2, .eps = 0.02};
    rc.pattern = core::InputPattern::kIdentical;
    rc.crash_style = core::CrashStyle::kLate;
    rc.seed = 77;
    const opt::QuadraticCost cost(geo::Vec{0.9, 0.9});
    const auto out = opt::optimize_two_step(rc, cost);
    const double cx = cost.value(out.run.correct_inputs[0]);
    double worst = -1e100;
    for (const auto& o : out.outputs) worst = std::max(worst, o.cost);
    t.add_row({Table::num(rc.cc.n), Table::num(rc.cc.f), Table::num(cx, 5),
               Table::num(worst, 5),
               (worst <= cx + 1e-6) ? "yes" : "NO"});
    bench::emit(t);
  }

  // ---------- (c) Theorem-4 tension: binary inputs, symmetric cost ------
  {
    Table t({"seed", "val_spread", "pt_spread", "eps", "pt_agreement"});
    std::size_t agree_fail = 0, runs = 0;
    const std::size_t seeds = quick ? 3 : 10;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      // d = 1, n = 9, f = 2 >= resilience bound 3f+1 = 7. Correct inputs
      // split between 0 and 1 (the impossibility proof's instance).
      core::CCConfig cc{.n = 9, .f = 2, .d = 1, .eps = 0.05};
      core::Workload w;
      w.inputs.resize(cc.n);
      w.faulty = {0, 1};
      for (sim::ProcessId p = 0; p < cc.n; ++p) {
        if (p < 2) {
          w.inputs[p] = geo::Vec{3.0};  // incorrect inputs
        } else {
          w.inputs[p] = geo::Vec{(p % 2 == 0) ? 0.0 : 1.0};
        }
      }
      w.correct_magnitude = 1.0;
      const auto run =
          core::run_cc_custom(cc, w, core::CrashStyle::kMidBroadcast,
                              core::DelayRegime::kUniform, 300 + seed);
      if (!run.cert.all_decided) continue;
      ++runs;
      const opt::Theorem4Cost cost;
      double val_lo = 1e100, val_hi = -1e100;
      std::vector<geo::Vec> ys;
      std::size_t idx = 0;
      for (sim::ProcessId p : run.correct) {
        const auto& dec = run.trace->of(p).decision;
        // "Break tie arbitrarily" (paper step 2): different processes may
        // legitimately resolve the two-global-minima tie differently.
        opt::MinimizeOptions mo;
        mo.tie_break = (idx++ % 2 == 0) ? opt::TieBreak::kLexMin
                                        : opt::TieBreak::kLexMax;
        const auto r = opt::minimize_over_polytope(cost, *dec, mo);
        val_lo = std::min(val_lo, r.value);
        val_hi = std::max(val_hi, r.value);
        ys.push_back(r.argmin);
      }
      double pt_spread = 0;
      for (std::size_t a = 0; a < ys.size(); ++a) {
        for (std::size_t b = a + 1; b < ys.size(); ++b) {
          pt_spread = std::max(pt_spread, ys[a].dist(ys[b]));
        }
      }
      const bool agrees = pt_spread < cc.eps;
      if (!agrees) ++agree_fail;
      t.add_row({Table::num(std::size_t(seed)), Table::num(val_hi - val_lo, 4),
                 Table::num(pt_spread, 4), Table::num(cc.eps, 3),
                 agrees ? "yes" : "NO"});
    }
    bench::emit(t);
    std::cout << "point-agreement failures: " << agree_fail << "/" << runs
              << "  (value spread stays ~0 — weak beta-optimality — while "
                 "Theorem 4\n   predicts point agreement cannot be "
                 "guaranteed for this cost)\n";
  }
  return 0;
}
