// Byzantine steps in the nemesis DSL: scenario validation, routing onto
// the BCC harness, and the two byz_* presets.
#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "nemesis/presets.hpp"
#include "nemesis/runner.hpp"
#include "nemesis/scenario.hpp"

namespace chc::nemesis {
namespace {

TEST(ByzScenario, CompileCarriesBehaviorAssignments) {
  Scenario s;
  s.byzantine(1, {bcc::BehaviorKind::kEquivocate, 3});
  s.byzantine(2, {bcc::BehaviorKind::kSilent, 0});
  const Scenario::Compiled c = s.compile(5);
  ASSERT_EQ(c.byz.size(), 2u);
  EXPECT_EQ(c.byz.at(1).kind, bcc::BehaviorKind::kEquivocate);
  EXPECT_EQ(c.byz.at(1).param, 3u);
  EXPECT_EQ(c.byz.at(2).kind, bcc::BehaviorKind::kSilent);
}

TEST(ByzScenario, RejectsConflictingSteps) {
  // One behavior per process.
  Scenario twice;
  twice.byzantine(1, {bcc::BehaviorKind::kSilent, 0});
  EXPECT_THROW(twice.byzantine(1, {bcc::BehaviorKind::kEquivocate, 0}),
               ContractViolation);
  // Byzantine and crashed are different fault models — a process that
  // should go dark is kSilent, not crash(p).
  Scenario both;
  both.byzantine(1, {bcc::BehaviorKind::kSilent, 0});
  EXPECT_THROW(both.crash(1, 5.0), ContractViolation);
  // Out-of-range pid surfaces at compile time.
  Scenario oob;
  oob.byzantine(9, {bcc::BehaviorKind::kSilent, 0});
  EXPECT_THROW(oob.compile(4), ContractViolation);
}

TEST(ByzScenario, ScenarioRunRoutesOntoBccHarness) {
  ScenarioSpec spec;
  spec.name = "byz_route";
  spec.cc = core::CCConfig{.n = 4, .f = 1, .d = 1, .eps = 0.15};
  spec.seed = 13;
  spec.crash_count = 1;
  spec.expect = Expect::kDecide;
  // The builder below is what presets do: target the workload's faulty
  // pid. ScenarioSpec carries a ready-built scenario, so resolve the
  // faulty pid the same way run_preset does — via the workload.
  const core::Workload w = core::make_workload(
      spec.cc.n, spec.cc.f, spec.cc.d, spec.pattern, spec.seed, true);
  ASSERT_EQ(w.faulty.size(), 1u);
  spec.scenario.byzantine(w.faulty[0],
                          {bcc::BehaviorKind::kForgePoint, 2});
  const ScenarioResult r = run_scenario(spec);
  EXPECT_TRUE(r.passed) << outcome_name(r.outcome);
  EXPECT_EQ(r.decided, 3u);
  // The trace must identify itself as a Byzantine run.
  ASSERT_FALSE(r.trace_lines.empty());
  EXPECT_NE(r.trace_lines[0].find("\"protocol\":\"bcc\""),
            std::string::npos)
      << r.trace_lines[0];
}

TEST(ByzScenario, ByzPresetsPass) {
  for (const char* name : {"byz_equivocator", "byz_silent_partition"}) {
    const Preset* p = find_preset(name);
    ASSERT_NE(p, nullptr) << name;
    const ScenarioResult r = run_preset(*p, 3);
    EXPECT_TRUE(r.passed)
        << name << ": outcome=" << outcome_name(r.outcome)
        << " decided=" << r.decided;
  }
}

}  // namespace
}  // namespace chc::nemesis
