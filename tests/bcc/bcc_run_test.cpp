// BCC end-to-end decide grid: every adversary class, at and above the
// resilience bound, must decide with validity (decided hull inside the
// hull of fault-free inputs) and ε-agreement among fault-free processes —
// each run re-verified by the offline checker and replayed bit-identically
// via nemesis::run_preset.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "bcc/harness.hpp"
#include "common/check.hpp"
#include "geometry/polytope.hpp"
#include "nemesis/presets.hpp"

namespace chc::bcc {
namespace {

nemesis::Preset grid_point(std::size_t n, std::size_t f, std::size_t d,
                           BehaviorKind kind) {
  nemesis::Preset p = nemesis::byzantine_preset(n, f, d, kind, 0);
  p.name = "grid";
  return p;
}

/// The acceptance grid: (n, f, d) with n >= max(3f, (d+2)f) + 1, times all
/// four behavior classes. Each cell runs two seeds.
TEST(BccDecideGrid, EveryAdversaryEveryTupleDecides) {
  const std::vector<std::array<std::size_t, 3>> tuples = {
      {4, 1, 1},  // 3f + 1 exactly (d = 1)
      {5, 1, 1},  // one above
      {7, 2, 1},  // f = 2 at 3f + 1
      {5, 1, 2},  // (d+2)f + 1 exactly (d = 2)
      {6, 1, 2},  // one above
  };
  const BehaviorKind kinds[] = {
      BehaviorKind::kEquivocate, BehaviorKind::kForgePoint,
      BehaviorKind::kSilent, BehaviorKind::kMalformed};
  for (const auto& [n, f, d] : tuples) {
    for (const BehaviorKind kind : kinds) {
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        const nemesis::ScenarioResult r =
            nemesis::run_preset(grid_point(n, f, d, kind), seed);
        EXPECT_TRUE(r.passed)
            << "n=" << n << " f=" << f << " d=" << d << " "
            << behavior_name(kind) << " seed=" << seed << ": " << r.detail;
        EXPECT_EQ(r.decided, n - f);
        EXPECT_TRUE(r.cert.validity);
        EXPECT_TRUE(r.cert.agreement);
        EXPECT_TRUE(r.replay_identical);
      }
    }
  }
}

/// Validity, from first principles rather than the certificate: run a
/// forging adversary and check every fault-free decision is contained in
/// the hull of the fault-free inputs — the forged outlier (far outside
/// that hull) must leave no geometric footprint.
TEST(BccRun, ForgedOutlierLeavesNoGeometricFootprint) {
  ByzRunConfig bc;
  bc.lossy.base.cc = core::CCConfig{.n = 5, .f = 1, .d = 2, .eps = 0.15};
  bc.lossy.base.seed = 42;
  bc.behaviors[4] = BehaviorSpec{BehaviorKind::kForgePoint, 0};
  const core::LossyRunOutput out = run_bcc(bc);
  ASSERT_TRUE(out.quiescent);
  ASSERT_EQ(out.correct.size(), 4u);

  const geo::Polytope fault_free =
      geo::Polytope::from_points(out.correct_inputs);
  std::size_t decisions = 0;
  for (const sim::ProcessId p : out.correct) {
    const auto& st = out.trace->of(p);
    if (!st.decision.has_value()) continue;
    ++decisions;
    EXPECT_TRUE(fault_free.contains(*st.decision, 1e-6)) << "p=" << p;
    // The forged point lives at |coord| >= 3.0; a valid decision cannot
    // reach anywhere near it (fault-free inputs are within |coord| <= 2).
    for (const geo::Vec& v : st.decision->vertices()) {
      for (double c : v) EXPECT_LT(std::abs(c), 2.5);
    }
  }
  EXPECT_EQ(decisions, 4u);
}

/// ε-agreement from first principles: pairwise Hausdorff distance between
/// fault-free decisions is below eps under every behavior class.
TEST(BccRun, PairwiseHausdorffBelowEps) {
  for (int kind_int = 0; kind_int <= 3; ++kind_int) {
    BehaviorKind kind;
    ASSERT_TRUE(behavior_from_int(kind_int, kind));
    ByzRunConfig bc;
    bc.lossy.base.cc = core::CCConfig{.n = 4, .f = 1, .d = 1, .eps = 0.15};
    bc.lossy.base.seed = 7 + kind_int;
    bc.behaviors[1] = BehaviorSpec{kind, 2};
    const core::LossyRunOutput out = run_bcc(bc);
    ASSERT_TRUE(out.quiescent) << behavior_name(kind);
    std::vector<const geo::Polytope*> decisions;
    for (const sim::ProcessId p : out.correct) {
      const auto& st = out.trace->of(p);
      ASSERT_TRUE(st.decision.has_value())
          << behavior_name(kind) << " p=" << p;
      decisions.push_back(&*st.decision);
    }
    for (std::size_t a = 0; a < decisions.size(); ++a) {
      for (std::size_t b = a + 1; b < decisions.size(); ++b) {
        EXPECT_LT(geo::hausdorff(*decisions[a], *decisions[b]),
                  bc.lossy.base.cc.eps + 1e-9)
            << behavior_name(kind);
      }
    }
    EXPECT_LE(out.cert.max_pairwise_hausdorff, bc.lossy.base.cc.eps + 1e-9);
  }
}

/// Byzantine runs survive a lossy network behind the reliable shim: the
/// adversary mutates messages *before* retransmission, so the shim can
/// never "heal" Byzantine behavior into honesty.
TEST(BccRun, DecidesOverLossyLinks) {
  ByzRunConfig bc;
  bc.lossy.base.cc = core::CCConfig{.n = 4, .f = 1, .d = 1, .eps = 0.15};
  bc.lossy.base.seed = 11;
  bc.lossy.policy = net::NetworkPolicy::lossy(0.15, 0.05, 0.10);
  bc.lossy.reliable = true;
  bc.behaviors[2] = BehaviorSpec{BehaviorKind::kEquivocate, 1};
  const core::LossyRunOutput out = run_bcc(bc);
  EXPECT_TRUE(out.quiescent);
  EXPECT_TRUE(out.cert.all_decided);
  EXPECT_TRUE(out.cert.validity);
  EXPECT_TRUE(out.cert.agreement);
  EXPECT_GT(out.stats.net_dropped, 0u);
}

/// Config contract checks: behavior keys must match the workload's faulty
/// set, at most f behaviors, and below-bound runs need the explicit flag.
TEST(BccRun, RejectsIllFormedConfigs) {
  ByzRunConfig bc;
  bc.lossy.base.cc = core::CCConfig{.n = 4, .f = 1, .d = 1, .eps = 0.15};
  bc.behaviors[0] = BehaviorSpec{BehaviorKind::kSilent, 0};
  bc.behaviors[1] = BehaviorSpec{BehaviorKind::kSilent, 0};
  EXPECT_THROW(run_bcc(bc), ContractViolation);  // 2 behaviors > f = 1

  ByzRunConfig below;
  below.lossy.base.cc = core::CCConfig{.n = 3, .f = 1, .d = 1, .eps = 0.15};
  below.behaviors[2] = BehaviorSpec{BehaviorKind::kSilent, 0};
  EXPECT_THROW(run_bcc(below), ContractViolation);  // n = 3f, no opt-in
  below.allow_below_bound = true;
  EXPECT_NO_THROW(run_bcc(below));
}

}  // namespace
}  // namespace chc::bcc
