// chc_cli — run convex hull consensus executions from the command line.
//
//   chc_cli [--n N] [--f F] [--d D] [--eps E] [--seed S] [--runs R]
//           [--pattern uniform|clustered|collinear|identical]
//           [--crash none|early|mid|late]
//           [--delay uniform|expo|lagged|lagged1]
//           [--model incorrect|correct]
//           [--round0 stable|naive]
//           [--csv]
//
// One row per run: seed, certificate flags, disagreement, sizes, cost.
// Exit status 0 iff every run certified.
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/harness.hpp"

using namespace chc;

namespace {

void usage() {
  std::cerr
      << "usage: chc_cli [--n N] [--f F] [--d D] [--eps E] [--seed S]\n"
      << "  [--runs R] [--pattern uniform|clustered|collinear|identical]\n"
      << "  [--crash none|early|mid|late]\n"
      << "  [--delay uniform|expo|lagged|lagged1]\n"
      << "  [--model incorrect|correct] [--round0 stable|naive] [--csv]\n";
}

}  // namespace

int main(int argc, char** argv) {
  core::RunConfig rc;
  rc.cc = core::CCConfig{.n = 7, .f = 1, .d = 2, .eps = 0.05};
  rc.pattern = core::InputPattern::kUniform;
  rc.crash_style = core::CrashStyle::kMidBroadcast;
  rc.delay = core::DelayRegime::kUniform;
  rc.seed = 1;
  std::size_t runs = 1;
  bool csv = false;

  cli::Args args(argc, argv, usage);
  while (args.next()) {
    if (args.is("--n")) {
      rc.cc.n = args.count();
    } else if (args.is("--f")) {
      rc.cc.f = args.count();
    } else if (args.is("--d")) {
      rc.cc.d = args.count();
    } else if (args.is("--eps")) {
      rc.cc.eps = args.positive();
    } else if (args.is("--seed")) {
      rc.seed = args.count();
    } else if (args.is("--runs")) {
      runs = args.count();
    } else if (args.is("--pattern")) {
      const std::string v = args.value();
      if (v == "uniform") rc.pattern = core::InputPattern::kUniform;
      else if (v == "clustered") rc.pattern = core::InputPattern::kClustered;
      else if (v == "collinear") rc.pattern = core::InputPattern::kCollinear;
      else if (v == "identical") rc.pattern = core::InputPattern::kIdentical;
      else args.fail("unknown pattern");
    } else if (args.is("--crash")) {
      const std::string v = args.value();
      if (v == "none") rc.crash_style = core::CrashStyle::kNone;
      else if (v == "early") rc.crash_style = core::CrashStyle::kEarly;
      else if (v == "mid") rc.crash_style = core::CrashStyle::kMidBroadcast;
      else if (v == "late") rc.crash_style = core::CrashStyle::kLate;
      else args.fail("unknown crash style");
    } else if (args.is("--delay")) {
      const std::string v = args.value();
      if (v == "uniform") rc.delay = core::DelayRegime::kUniform;
      else if (v == "expo") rc.delay = core::DelayRegime::kExponential;
      else if (v == "lagged") rc.delay = core::DelayRegime::kLaggedFaulty;
      else if (v == "lagged1") rc.delay = core::DelayRegime::kLaggedOneCorrect;
      else args.fail("unknown delay regime");
    } else if (args.is("--model")) {
      const std::string v = args.value();
      if (v == "incorrect") {
        rc.cc.fault_model = core::FaultModel::kCrashIncorrectInputs;
      } else if (v == "correct") {
        rc.cc.fault_model = core::FaultModel::kCrashCorrectInputs;
      } else {
        args.fail("unknown fault model");
      }
    } else if (args.is("--round0")) {
      const std::string v = args.value();
      if (v == "stable") rc.cc.round0 = core::Round0Policy::kStableVector;
      else if (v == "naive") rc.cc.round0 = core::Round0Policy::kNaiveCollect;
      else args.fail("unknown round0 policy");
    } else if (args.is("--csv")) {
      csv = true;
    } else {
      args.unknown();
    }
  }

  if (!rc.cc.meets_resilience_bound()) {
    std::cerr << "note: n=" << rc.cc.n << " is below the resilience bound "
              << "for f=" << rc.cc.f << ", d=" << rc.cc.d
              << " — running anyway (expect round-0 failures)\n";
  }

  Table t({"seed", "decided", "valid", "agree", "optimal", "max_dH",
           "min_area", "IZ_area", "rounds", "msgs", "sim_time"});
  bool all_ok = true;
  for (std::size_t r = 0; r < runs; ++r) {
    core::RunConfig one = rc;
    one.seed = rc.seed + r;
    const auto out = core::run_cc_once(one);
    const bool ok = out.cert.all_decided && out.cert.validity &&
                    out.cert.agreement && out.cert.optimality;
    all_ok = all_ok && ok;
    t.add_row({Table::num(std::size_t(one.seed)),
               out.cert.all_decided ? "y" : "N", out.cert.validity ? "y" : "N",
               out.cert.agreement ? "y" : "N", out.cert.optimality ? "y" : "N",
               Table::num(out.cert.max_pairwise_hausdorff, 3),
               Table::num(out.cert.min_output_measure, 4),
               Table::num(out.cert.iz_measure, 4), Table::num(out.cert.rounds),
               Table::num(std::size_t(out.stats.messages_sent)),
               Table::num(out.stats.end_time, 4)});
  }
  if (csv) {
    t.print_csv(std::cout);
  } else {
    std::cout << "convex hull consensus: n=" << rc.cc.n << " f=" << rc.cc.f
              << " d=" << rc.cc.d << " eps=" << rc.cc.eps
              << " t_end=" << rc.cc.t_end() << "\n";
    t.print(std::cout);
  }
  return all_ok ? 0 : 1;
}
