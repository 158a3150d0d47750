// E3 — Termination bound (Figure): t_end from eq. (19) as a function of
// n, eps and d, against the measured rounds-to-eps in actual executions.
// The bound must always dominate the measurement; the gap quantifies its
// conservatism (the proof bounds Omega by sqrt(d) n U).
#include <cmath>
#include <iostream>
#include <optional>
#include <vector>

#include "bench_util.hpp"
#include "core/harness.hpp"

using namespace chc;

namespace {

/// Max pairwise Hausdorff over correct processes at a given round, or
/// nullopt if some process has no state recorded there.
std::optional<double> round_disagreement(const core::RunOutput& out,
                                         std::size_t round) {
  double dh = 0.0;
  for (std::size_t a = 0; a < out.correct.size(); ++a) {
    for (std::size_t b = a + 1; b < out.correct.size(); ++b) {
      const auto& ha = out.trace->of(out.correct[a]).h;
      const auto& hb = out.trace->of(out.correct[b]).h;
      const auto ia = ha.find(round);
      const auto ib = hb.find(round);
      if (ia == ha.end() || ib == hb.end()) return std::nullopt;
      dh = std::max(dh, geo::hausdorff(ia->second, ib->second));
    }
  }
  return dh;
}

/// First round at which max pairwise Hausdorff over correct processes
/// drops below eps (and stays measurable), or 0 if never.
std::size_t measured_rounds_to_eps(const core::RunOutput& out, double eps) {
  const std::size_t tmax = out.trace->max_round();
  for (std::size_t round = 1; round <= tmax; ++round) {
    const auto dh = round_disagreement(out, round);
    if (dh.has_value() && *dh < eps) return round;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::init(argc, argv).quick;
  bench::print_experiment_header(
      "E3", "t_end (eq. 19) vs measured rounds-to-eps");

  struct Case {
    std::size_t n, f, d;
    double eps;
  };
  const std::vector<Case> cases = quick
      ? std::vector<Case>{{7, 1, 2, 0.05}, {7, 1, 2, 0.01}}
      : std::vector<Case>{{7, 1, 2, 0.1},  {7, 1, 2, 0.05}, {7, 1, 2, 0.01},
                          {7, 1, 2, 0.001}, {13, 2, 2, 0.05}, {19, 3, 2, 0.05},
                          {25, 4, 2, 0.05}, {4, 1, 1, 0.05}, {6, 1, 3, 0.05}};

  Table t({"n", "f", "d", "eps", "t_end(eq19)", "measured", "dH[1]",
           "bound/measured"});
  bool bound_holds = true;
  for (const auto& c : cases) {
    core::CCConfig cc{.n = c.n, .f = c.f, .d = c.d, .eps = c.eps};
    // Same adversarial setup as bench_convergence: one lagged correct
    // process holding an extreme (corner) input, so round-0 views — and
    // hence per-round states — genuinely differ.
    Rng rng(500 + c.n);
    core::Workload w;
    w.inputs.resize(c.n);
    for (std::size_t i = 0; i < c.f; ++i) {
      w.faulty.push_back(i);
      geo::Vec x(c.d, 0.0);
      for (std::size_t k = 0; k < c.d; ++k) x[k] = rng.uniform(1.5, 2.0);
      w.inputs[i] = x;
    }
    for (sim::ProcessId p = c.f; p + 1 < c.n; ++p) {
      geo::Vec x(c.d, 0.0);
      for (std::size_t k = 0; k < c.d; ++k) x[k] = rng.uniform(-0.6, 0.6);
      w.inputs[p] = x;
    }
    w.inputs[c.n - 1] = geo::Vec(std::vector<double>(c.d, 1.0));  // corner
    w.correct_magnitude = 1.0;
    const auto out =
        core::run_cc_custom(cc, w, core::CrashStyle::kNone,
                            core::DelayRegime::kLaggedOneCorrect, 500 + c.n);
    const std::size_t bound = cc.t_end();
    const std::size_t measured = measured_rounds_to_eps(out, c.eps);
    const double dh1 = round_disagreement(out, 1).value_or(0.0);
    if (measured == 0 || measured > bound) bound_holds = false;
    t.add_row({Table::num(c.n), Table::num(c.f), Table::num(c.d),
               Table::num(c.eps, 4), Table::num(bound), Table::num(measured),
               Table::num(dh1, 3),
               Table::num(measured > 0
                              ? static_cast<double>(bound) /
                                    static_cast<double>(measured)
                              : 0.0,
                          3)});
  }
  bench::emit(t);
  std::cout << "eq. 19 bound dominates measurement in every case: "
            << (bound_holds ? "yes" : "NO") << "\n";
  return bound_holds ? 0 : 1;
}
