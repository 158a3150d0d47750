// E1 — Validity, ε-agreement, termination (Theorem 2) across the
// configuration space: dimensions, fault counts, input patterns, crash
// styles and network schedules. The paper proves these properties always
// hold for n >= (d+2)f+1; every row must show ok = runs.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/harness.hpp"

using namespace chc;

int main(int argc, char** argv) {
  const bool quick = bench::init(argc, argv).quick;
  bench::print_experiment_header(
      "E1", "Theorem 2 certification sweep (validity / eps-agreement / "
            "termination / optimality)");

  struct Sys {
    std::size_t n, f, d;
    bool full_sweep;  ///< false: single workload combo (expensive config)
  };
  const std::vector<Sys> systems = quick
      ? std::vector<Sys>{{7, 1, 2, true}, {9, 2, 2, true}}
      : std::vector<Sys>{{4, 1, 1, true},  {7, 2, 1, true},
                         {7, 1, 2, true},  {9, 2, 2, true},
                         {13, 2, 2, true}, {6, 1, 3, true},
                         {11, 2, 3, false}};
  const std::vector<core::InputPattern> patterns = {
      core::InputPattern::kUniform, core::InputPattern::kCollinear,
      core::InputPattern::kClustered};
  const std::vector<std::pair<core::CrashStyle, const char*>> styles = {
      {core::CrashStyle::kMidBroadcast, "mid-bcast"},
      {core::CrashStyle::kEarly, "early"},
  };
  const std::vector<std::pair<core::DelayRegime, const char*>> delays = {
      {core::DelayRegime::kUniform, "uniform"},
      {core::DelayRegime::kLaggedFaulty, "lagged"},
  };
  const std::size_t seeds = quick ? 2 : 3;

  Table t({"n", "f", "d", "pattern", "crash", "delay", "runs", "ok",
           "max_dH", "eps", "rounds", "msgs"});

  auto pattern_name = [](core::InputPattern p) {
    switch (p) {
      case core::InputPattern::kUniform: return "uniform";
      case core::InputPattern::kCollinear: return "collinear";
      case core::InputPattern::kClustered: return "clustered";
      case core::InputPattern::kIdentical: return "identical";
    }
    return "?";
  };

  std::size_t total = 0, total_ok = 0;
  for (const auto& sys : systems) {
    for (const auto pattern : patterns) {
      if (!sys.full_sweep && pattern != core::InputPattern::kUniform) continue;
      for (const auto& [style, style_name] : styles) {
        if (!sys.full_sweep && style != core::CrashStyle::kMidBroadcast) {
          continue;
        }
        for (const auto& [delay, delay_name] : delays) {
          if (!sys.full_sweep && delay != core::DelayRegime::kUniform) {
            continue;
          }
          std::size_t ok = 0;
          double max_dh = 0.0;
          std::size_t rounds = 0;
          std::uint64_t msgs = 0;
          for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
            core::RunConfig rc;
            rc.cc = core::CCConfig{
                .n = sys.n, .f = sys.f, .d = sys.d, .eps = 0.05};
            rc.pattern = pattern;
            rc.crash_style = style;
            rc.delay = delay;
            rc.seed = seed * 1000 + sys.n;
            const auto out = core::run_cc_once(rc);
            const bool certified = out.cert.all_decided && out.cert.validity &&
                                   out.cert.agreement && out.cert.optimality;
            if (certified) ++ok;
            max_dh = std::max(max_dh, out.cert.max_pairwise_hausdorff);
            rounds = out.cert.rounds;
            msgs = out.stats.messages_sent;
          }
          total += seeds;
          total_ok += ok;
          t.add_row({Table::num(sys.n), Table::num(sys.f), Table::num(sys.d),
                     pattern_name(pattern), style_name, delay_name,
                     Table::num(seeds), Table::num(ok), Table::num(max_dh, 3),
                     "0.05", Table::num(rounds),
                     Table::num(static_cast<std::size_t>(msgs))});
        }
      }
    }
  }
  bench::emit(t);
  std::cout << "TOTAL: " << total_ok << "/" << total
            << " executions certified (paper: all must certify)\n";
  return (total_ok == total) ? 0 : 1;
}
