// Preset matrix tests: every named scenario runs checker-clean, replays
// bit-identically and meets its expectation; the over-budget preset stalls
// safe; a contradicting expectation fails the run and names the cause.
#include "nemesis/presets.hpp"

#include <gtest/gtest.h>

#include <set>

#include "obs/metrics.hpp"

namespace chc::nemesis {
namespace {

TEST(Presets, MatrixIsStable) {
  const auto& all = presets();
  ASSERT_GE(all.size(), 7u);
  std::set<std::string> names;
  for (const Preset& p : all) {
    EXPECT_TRUE(names.insert(p.name).second) << "duplicate " << p.name;
    EXPECT_FALSE(p.description.empty()) << p.name;
    EXPECT_LE(p.crash_count, p.f) << p.name;
    // Resilience: the paper needs n >= (d+2)f + 1. Only BCC's two
    // below-bound demos sit under it, and they expect exactly that failure.
    if (p.expect == Expect::kRbcStall || p.expect == Expect::kRound0Empty) {
      EXPECT_LT(p.n, (p.d + 2) * p.f + 1) << p.name;
    } else {
      EXPECT_GE(p.n, (p.d + 2) * p.f + 1) << p.name;
    }
  }
  EXPECT_NE(find_preset("partition_heal"), nullptr);
  EXPECT_NE(find_preset("over_budget"), nullptr);
  EXPECT_NE(find_preset("vector_bound_gap"), nullptr);
  EXPECT_EQ(find_preset("no_such_preset"), nullptr);
}

TEST(Presets, EveryPresetPassesAtMultipleSeeds) {
  for (const Preset& p : presets()) {
    for (const std::uint64_t seed : {3ull, 11ull}) {
      const ScenarioResult r = run_preset(p, seed);
      EXPECT_TRUE(r.check.ok())
          << p.name << " seed=" << seed << ": " << summarize(r);
      EXPECT_TRUE(r.passed)
          << p.name << " seed=" << seed << ": " << summarize(r);
      EXPECT_FALSE(r.trace_lines.empty()) << p.name;
    }
  }
}

TEST(Presets, OverBudgetStallsSafeNotUnsafe) {
  const Preset* p = find_preset("over_budget");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->expect, Expect::kStallSafe);
  const ScenarioResult r = run_preset(*p, 3);
  EXPECT_EQ(r.outcome, Outcome::kStalledSafe) << summarize(r);
  EXPECT_TRUE(r.check.ok()) << summarize(r);
  EXPECT_TRUE(r.check.over_budget);  // checker saw > f crashes
  EXPECT_EQ(r.decided, 0u);
}

TEST(Presets, CrashRecoverActuallyRecovers) {
  const Preset* p = find_preset("crash_recover");
  ASSERT_NE(p, nullptr);
  const ScenarioResult r = run_preset(*p, 3);
  EXPECT_TRUE(r.passed) << summarize(r);
  EXPECT_EQ(r.recoveries, 1u);
  EXPECT_EQ(r.check.recoveries, 1u);  // offline checker agrees
  EXPECT_GE(r.channel_resets, 1u);    // epoch protocol kicked in
}

TEST(Presets, RunFeedsMetricsRegistry) {
  obs::Registry reg;
  const Preset* p = find_preset("partition_heal");
  ASSERT_NE(p, nullptr);
  const ScenarioResult r = run_preset(*p, 3, &reg);
  ASSERT_TRUE(r.passed) << summarize(r);
  EXPECT_EQ(reg.counter("nemesis.runs").value(), 1u);
  EXPECT_EQ(reg.counter("nemesis.decided_runs").value(), 1u);
  EXPECT_EQ(reg.counter("nemesis.violations").value(), 0u);
  EXPECT_GT(reg.gauge("nemesis.decide_latency").value(), 0.0);
  // The run's own counters flow through the same registry.
  EXPECT_GT(reg.counter("net.rel.data_sent").value(), 0u);
}

/// Runs `name` at seed 3 with its expectation replaced by `expect`.
ScenarioResult run_relabelled(const char* name, Expect expect,
                              obs::Registry* metrics = nullptr) {
  const Preset* p = find_preset(name);
  EXPECT_NE(p, nullptr) << name;
  Preset relabelled = *p;
  relabelled.expect = expect;
  return run_preset(relabelled, 3, metrics);
}

TEST(Presets, ContradictedDecideFails) {
  obs::Registry reg;
  const ScenarioResult r =
      run_relabelled("vector_bound_gap", Expect::kDecide, &reg);
  EXPECT_FALSE(r.passed);
  EXPECT_EQ(r.detail, "expected every fault-free process to decide");
  EXPECT_NE(summarize(r).find("[FAIL]"), std::string::npos);
  EXPECT_NE(summarize(r).find("detail=[" + r.detail + "]"),
            std::string::npos);
  EXPECT_EQ(reg.counter("nemesis.failed_runs").value(), 1u);
}

TEST(Presets, ContradictedStallSafeFails) {
  const ScenarioResult r =
      run_relabelled("partition_heal", Expect::kStallSafe);
  EXPECT_FALSE(r.passed);
  EXPECT_EQ(r.detail,
            "expected a safe stall, but every expected process decided");
}

TEST(Presets, ContradictedRbcStallFails) {
  const ScenarioResult r =
      run_relabelled("vector_bound_gap", Expect::kRbcStall);
  EXPECT_FALSE(r.passed);
  EXPECT_EQ(r.detail, "expected a total RBC stall (no deliveries at all)");
}

TEST(Presets, ContradictedRound0EmptyFails) {
  const ScenarioResult r =
      run_relabelled("rbc_stall_3f", Expect::kRound0Empty);
  EXPECT_FALSE(r.passed);
  EXPECT_EQ(r.detail,
            "expected every fault-free process to halt on empty gamma");
}

}  // namespace
}  // namespace chc::nemesis
