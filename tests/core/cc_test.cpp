// End-to-end tests of Algorithm CC: every run is certified against the
// paper's three properties (validity, ε-agreement, termination) plus the
// optimality containment I_Z ⊆ output (Lemma 6).
#include <gtest/gtest.h>

#include <utility>

#include "core/harness.hpp"

namespace chc::core {
namespace {

void expect_certified(const RunOutput& out, const char* what) {
  EXPECT_TRUE(out.quiescent) << what;
  EXPECT_TRUE(out.cert.all_decided) << what << ": some correct process stuck";
  EXPECT_TRUE(out.cert.validity) << what << ": validity violated";
  EXPECT_TRUE(out.cert.agreement)
      << what << ": eps-agreement violated, d_H = "
      << out.cert.max_pairwise_hausdorff;
  EXPECT_TRUE(out.cert.optimality) << what << ": I_Z not contained in output";
}

RunConfig base_config() {
  RunConfig rc;
  rc.cc = CCConfig{.n = 7, .f = 1, .d = 2, .eps = 0.05};
  rc.pattern = InputPattern::kUniform;
  rc.crash_style = CrashStyle::kMidBroadcast;
  rc.delay = DelayRegime::kUniform;
  rc.seed = 1;
  return rc;
}

TEST(AlgorithmCC, FaultFreeBaseline) {
  RunConfig rc = base_config();
  rc.cc.f = 0;
  rc.crash_style = CrashStyle::kNone;
  const auto out = run_cc_once(rc);
  expect_certified(out, "fault-free n=7 d=2");
  // With f=0, h_i[0] = H(X_i) and the output should have positive area.
  EXPECT_GT(out.cert.min_output_measure, 0.0);
}

TEST(AlgorithmCC, OneFaultMidBroadcastCrash) {
  const auto out = run_cc_once(base_config());
  expect_certified(out, "n=7 f=1 mid-broadcast");
}

TEST(AlgorithmCC, FaultyButNoCrash) {
  // Incorrect inputs without crashes: validity must still exclude them.
  RunConfig rc = base_config();
  rc.crash_style = CrashStyle::kNone;
  const auto out = run_cc_once(rc);
  expect_certified(out, "n=7 f=1 no-crash");
}

TEST(AlgorithmCC, EarlyCrashDuringStableVector) {
  RunConfig rc = base_config();
  rc.crash_style = CrashStyle::kEarly;
  const auto out = run_cc_once(rc);
  expect_certified(out, "n=7 f=1 early crash");
}

TEST(AlgorithmCC, AdversarialLaggedSchedule) {
  // Theorem 3's schedule: the faulty set is extremely slow, others must
  // decide without it.
  RunConfig rc = base_config();
  rc.delay = DelayRegime::kLaggedFaulty;
  rc.crash_style = CrashStyle::kNone;
  const auto out = run_cc_once(rc);
  expect_certified(out, "n=7 f=1 lagged");
}

TEST(AlgorithmCC, TwoFaultsAtResilienceBound) {
  // n = (d+2)f + 1 exactly: 2 faults, d = 2 -> n = 9.
  RunConfig rc = base_config();
  rc.cc = CCConfig{.n = 9, .f = 2, .d = 2, .eps = 0.05};
  rc.seed = 3;
  const auto out = run_cc_once(rc);
  expect_certified(out, "n=9 f=2 at bound");
}

TEST(AlgorithmCC, OneDimensionalInputs) {
  RunConfig rc = base_config();
  rc.cc = CCConfig{.n = 4, .f = 1, .d = 1, .eps = 0.05};
  const auto out = run_cc_once(rc);
  expect_certified(out, "n=4 f=1 d=1 at bound");
}

TEST(AlgorithmCC, ThreeDimensionalInputs) {
  RunConfig rc = base_config();
  rc.cc = CCConfig{.n = 6, .f = 1, .d = 3, .eps = 0.2};
  expect_certified(run_cc_once(rc), "n=6 f=1 d=3");
  // Runs whose subset-hull intersections are thin slabs. The simplex used
  // to pivot on a row whose basic value roundoff had left slightly
  // negative, so the Chebyshev centre sat outside a constraint and the
  // halfspace intersection threw instead of deciding. These are entries
  // 851 and 874 of perfbench's svc-d3 instance sets for seeds 5 and 6.
  rc.cc.eps = 0.15;
  for (const auto& [seed, crash] :
       {std::pair{13714490759342288657ull, CrashStyle::kLate},
        std::pair{9187792019719314826ull, CrashStyle::kMidBroadcast}}) {
    rc.seed = seed;
    rc.crash_style = crash;
    expect_certified(run_cc_once(rc), "n=6 f=1 d=3 thin slab");
  }
}

TEST(AlgorithmCC, CollinearAdversarialInputs) {
  // Degenerate correct inputs on a line: outputs stay lower-dimensional.
  RunConfig rc = base_config();
  rc.pattern = InputPattern::kCollinear;
  const auto out = run_cc_once(rc);
  expect_certified(out, "collinear inputs");
}

TEST(AlgorithmCC, IdenticalInputsDegenerateOutput) {
  // §6 degenerate case: all correct inputs identical -> output is within
  // eps of a single point; with f faulty outliers the output is exactly the
  // common input point (every subset hull intersection pins it).
  RunConfig rc = base_config();
  rc.pattern = InputPattern::kIdentical;
  const auto out = run_cc_once(rc);
  expect_certified(out, "identical inputs");
  for (sim::ProcessId p : out.correct) {
    const auto& dec = out.trace->of(p).decision;
    ASSERT_TRUE(dec.has_value());
    EXPECT_LT(geo::hausdorff(
                  *dec, geo::Polytope::from_points({out.correct_inputs[0]})),
              rc.cc.eps);
  }
}

TEST(AlgorithmCC, ClusteredInputs) {
  RunConfig rc = base_config();
  rc.pattern = InputPattern::kClustered;
  rc.cc.n = 9;
  rc.cc.f = 2;
  const auto out = run_cc_once(rc);
  expect_certified(out, "clustered inputs");
}

TEST(AlgorithmCC, ExponentialDelaysWithStragglers) {
  RunConfig rc = base_config();
  rc.delay = DelayRegime::kExponential;
  const auto out = run_cc_once(rc);
  expect_certified(out, "exponential delays");
}

TEST(AlgorithmCC, SeedSweepAllCertified) {
  // Property sweep across seeds: every execution must certify.
  for (std::uint64_t seed = 10; seed < 22; ++seed) {
    RunConfig rc = base_config();
    rc.seed = seed;
    rc.crash_style =
        (seed % 2 == 0) ? CrashStyle::kMidBroadcast : CrashStyle::kEarly;
    const auto out = run_cc_once(rc);
    expect_certified(out, "seed sweep");
  }
}

TEST(AlgorithmCC, TighterEpsilonStillAgrees) {
  RunConfig rc = base_config();
  rc.cc.eps = 0.005;
  const auto out = run_cc_once(rc);
  expect_certified(out, "eps=0.005");
  EXPECT_LT(out.cert.max_pairwise_hausdorff, 0.005);
}

TEST(AlgorithmCC, BelowResilienceBoundCanFail) {
  // n = 5 < (d+2)f+1 = 9 with f = 2, d = 2, spread inputs: round-0
  // intersections are typically empty and processes halt. This documents
  // that the bound is load-bearing (E5); stable vector still works since
  // n >= 2f+1.
  RunConfig rc = base_config();
  rc.cc = CCConfig{.n = 5, .f = 2, .d = 2, .eps = 0.05};
  rc.crash_style = CrashStyle::kNone;
  bool saw_failure = false;
  for (std::uint64_t seed = 1; seed <= 5 && !saw_failure; ++seed) {
    rc.seed = seed;
    const auto out = run_cc_once(rc);
    for (sim::ProcessId p = 0; p < rc.cc.n; ++p) {
      if (out.trace->of(p).round0_empty) saw_failure = true;
    }
  }
  EXPECT_TRUE(saw_failure);
}

TEST(AlgorithmCC, CorrectInputsModelSmallN) {
  // TR [16] extension: faulty processes have CORRECT inputs and may crash.
  // n = 2f+1 suffices — here n = 5, f = 2, d = 2, far below (d+2)f+1 = 9.
  RunConfig rc = base_config();
  rc.cc = CCConfig{.n = 5, .f = 2, .d = 2, .eps = 0.05};
  rc.cc.fault_model = FaultModel::kCrashCorrectInputs;
  rc.crash_style = CrashStyle::kMidBroadcast;
  const auto out = run_cc_once(rc);
  expect_certified(out, "correct-inputs n=5 f=2");
  EXPECT_TRUE(rc.cc.meets_resilience_bound());
  EXPECT_EQ(rc.cc.round0_drop(), 0u);
}

TEST(AlgorithmCC, CorrectInputsModelNeverEmptyRound0) {
  // With no subset-dropping, h_i[0] = H(X_i) is always non-empty even at
  // tiny n — the Tverberg requirement disappears.
  RunConfig rc = base_config();
  rc.cc = CCConfig{.n = 3, .f = 1, .d = 2, .eps = 0.1};
  rc.cc.fault_model = FaultModel::kCrashCorrectInputs;
  rc.crash_style = CrashStyle::kEarly;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    rc.seed = seed;
    const auto out = run_cc_once(rc);
    for (sim::ProcessId p = 0; p < rc.cc.n; ++p) {
      EXPECT_FALSE(out.trace->of(p).round0_empty);
    }
    expect_certified(out, "correct-inputs n=3 f=1");
  }
}

TEST(AlgorithmCC, CorrectInputsValidityCoversAllInputs) {
  // Outputs may legitimately include crashed processes' inputs (they are
  // correct inputs in this model): validity is against ALL inputs' hull.
  RunConfig rc = base_config();
  rc.cc = CCConfig{.n = 5, .f = 1, .d = 2, .eps = 0.05};
  rc.cc.fault_model = FaultModel::kCrashCorrectInputs;
  rc.crash_style = CrashStyle::kLate;
  const auto out = run_cc_once(rc);
  expect_certified(out, "correct-inputs validity");
  const geo::Polytope all_hull =
      geo::Polytope::from_points(out.workload.inputs);
  for (sim::ProcessId p : out.correct) {
    const auto& dec = out.trace->of(p).decision;
    ASSERT_TRUE(dec.has_value());
    EXPECT_TRUE(all_hull.contains(*dec, 1e-6));
  }
}

TEST(AlgorithmCC, VertexBudgetPreservesValidityAndAgreement) {
  // E9 knob: pruned iterates are subsets of the exact ones, so validity
  // must survive any budget; agreement still certifies at sane budgets.
  RunConfig rc = base_config();
  rc.cc = CCConfig{.n = 8, .f = 1, .d = 3, .eps = 0.1};
  rc.cc.max_polytope_vertices = 10;
  rc.crash_style = CrashStyle::kNone;
  const auto out = run_cc_once(rc);
  EXPECT_TRUE(out.cert.all_decided);
  EXPECT_TRUE(out.cert.validity);
  EXPECT_TRUE(out.cert.agreement);
  for (sim::ProcessId p : out.correct) {
    const auto& dec = out.trace->of(p).decision;
    ASSERT_TRUE(dec.has_value());
    EXPECT_LE(dec->vertices().size(), 10u);
  }
}

TEST(AlgorithmCC, Theorem1ReplayAcrossDimensions) {
  // The matrix representation must hold in every dimension, not just d=2.
  for (const std::size_t d : {std::size_t{1}, std::size_t{3}}) {
    RunConfig rc = base_config();
    rc.cc = CCConfig{.n = (d + 2) + 1, .f = 1, .d = d, .eps = 0.5};
    rc.seed = 31 + d;
    const auto out = run_cc_once(rc);
    ASSERT_TRUE(out.cert.all_decided) << "d=" << d;
    const std::size_t tmax = std::min<std::size_t>(out.trace->max_round(), 4);
    for (std::size_t t = 1; t <= tmax; ++t) {
      const auto v = replay_matrix_evolution(*out.trace, t);
      for (sim::ProcessId i : completed_round(*out.trace, t)) {
        EXPECT_LT(geo::hausdorff(v[i], out.trace->of(i).h.at(t)), 1e-6)
            << "d=" << d << " round " << t << " process " << i;
      }
    }
  }
}

TEST(AlgorithmCC, DecisionsMatchTraceAndHistory) {
  const auto out = run_cc_once(base_config());
  for (sim::ProcessId p : out.correct) {
    const auto& tr = out.trace->of(p);
    ASSERT_TRUE(tr.decision.has_value());
    ASSERT_TRUE(tr.h0.has_value());
    // The trace's last h equals the decision.
    ASSERT_FALSE(tr.h.empty());
    EXPECT_TRUE(geo::approx_equal(tr.h.rbegin()->second, *tr.decision, 1e-9));
    // Monotone rounds: every round 1..t_end recorded exactly once.
    std::size_t expect_round = 1;
    for (const auto& [t, poly] : tr.h) {
      EXPECT_EQ(t, expect_round++);
    }
  }
}

TEST(AlgorithmCC, OutputsShrinkTowardConsensus) {
  // Round-over-round max pairwise Hausdorff must reach < eps at the end
  // (checked by certify) and the history length must equal t_end + 1.
  RunConfig rc = base_config();
  const auto out = run_cc_once(rc);
  const std::size_t t_end = rc.cc.t_end();
  for (sim::ProcessId p : out.correct) {
    EXPECT_EQ(out.trace->of(p).h.size(), t_end);
  }
}

}  // namespace
}  // namespace chc::core
