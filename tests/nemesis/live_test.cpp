// Live nemesis lowering: the new scenario steps (flapping / rolling /
// pause / clock_skew) and compile_live(), which splits a Scenario into the
// schedule, process actions and clock skews the real-cluster orchestrator
// executes.
#include "nemesis/live.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/check.hpp"
#include "nemesis/presets.hpp"
#include "nemesis/scenario.hpp"

namespace chc::nemesis {
namespace {

using Kind = LiveAction::Kind;

/// Drop rate of the directed channel from->to at model time t.
double drop_at(const net::PolicySchedule& sched, double t,
               sim::ProcessId from, sim::ProcessId to) {
  return sched.active(t).for_channel(from, to).drop_rate;
}

TEST(ScenarioLive, FlappingPartitionExpandsToAlternatingPhases) {
  // [0, 64) with period 16: cut during [0,8) [16,24) [32,40) [48,56),
  // healed in between and after.
  const Scenario s =
      Scenario{}.partition_flapping(0.0, 64.0, 16.0, {0, 1});
  const auto c = s.compile(5);
  ASSERT_FALSE(c.schedule.empty());
  for (const double t : {0.0, 4.0, 17.0, 33.0, 49.0}) {
    EXPECT_EQ(drop_at(c.schedule, t, 0, 2), 1.0) << "t=" << t;
    EXPECT_EQ(drop_at(c.schedule, t, 2, 1), 1.0) << "t=" << t;
  }
  for (const double t : {8.0, 12.0, 25.0, 47.0, 56.0, 99.0}) {
    EXPECT_EQ(drop_at(c.schedule, t, 0, 2), 0.0) << "t=" << t;
    EXPECT_EQ(drop_at(c.schedule, t, 2, 1), 0.0) << "t=" << t;
  }
  // Links inside the cut set stay clean throughout.
  EXPECT_EQ(drop_at(c.schedule, 4.0, 0, 1), 0.0);
}

TEST(ScenarioLive, RollingPartitionIsolatesEachNodeRoundRobin) {
  const Scenario s = Scenario{}.partition_rolling(0.0, 60.0, 12.0);
  const auto c = s.compile(5);
  for (std::size_t w = 0; w < 5; ++w) {
    const double t = 12.0 * static_cast<double>(w) + 6.0;
    const auto victim = static_cast<sim::ProcessId>(w);
    for (sim::ProcessId p = 0; p < 5; ++p) {
      if (p == victim) continue;
      EXPECT_EQ(drop_at(c.schedule, t, victim, p), 1.0)
          << "window " << w << " victim outbound";
      EXPECT_EQ(drop_at(c.schedule, t, p, victim), 1.0)
          << "window " << w << " victim inbound";
      for (sim::ProcessId q = 0; q < 5; ++q) {
        if (q == victim || q == p) continue;
        EXPECT_EQ(drop_at(c.schedule, t, p, q), 0.0)
            << "window " << w << " bystander link";
      }
    }
  }
  EXPECT_EQ(drop_at(c.schedule, 61.0, 0, 1), 0.0);  // all healed at t1
}

TEST(ScenarioLive, PauseFoldsToCutForSimButStaysFirstClassForLive) {
  const Scenario s = Scenario{}.pause(2, 4.0, 48.0);
  const auto sim = s.compile(5, Scenario::Target::kSim);
  // kSim: the freeze is approximated as a symmetric cut of {2}.
  EXPECT_TRUE(sim.pauses.empty());
  EXPECT_EQ(drop_at(sim.schedule, 10.0, 2, 0), 1.0);
  EXPECT_EQ(drop_at(sim.schedule, 10.0, 0, 2), 1.0);
  EXPECT_EQ(drop_at(sim.schedule, 50.0, 2, 0), 0.0);

  const auto live = s.compile(5, Scenario::Target::kLive);
  // kLive: no cut — the orchestrator SIGSTOPs the real process instead.
  ASSERT_EQ(live.pauses.size(), 1u);
  EXPECT_EQ(live.pauses[0].p, 2u);
  EXPECT_DOUBLE_EQ(live.pauses[0].t0, 4.0);
  EXPECT_DOUBLE_EQ(live.pauses[0].t1, 48.0);
  EXPECT_TRUE(live.schedule.empty());
}

TEST(ScenarioLive, ClockSkewIsLiveOnly) {
  const Scenario s = Scenario{}.clock_skew(1, 1.5);
  const auto live = s.compile(5, Scenario::Target::kLive);
  ASSERT_EQ(live.skews.size(), 1u);
  EXPECT_DOUBLE_EQ(live.skews.at(1), 1.5);
  // The sim's virtual clock cannot skew: kSim lowering must refuse.
  EXPECT_THROW(s.compile(5, Scenario::Target::kSim), ContractViolation);
}

TEST(CompileLive, CrashRecoverPauseLowerToSortedActions) {
  Scenario s;
  s.crash(4, 8.0).recover(4, 60.0);
  s.pause(2, 4.0, 48.0);
  s.clock_skew(0, 1.5);
  s.clock_skew(1, 0.6);
  const LivePlan plan = compile_live(s, 5);
  ASSERT_EQ(plan.actions.size(), 4u);
  EXPECT_EQ(plan.actions[0].kind, Kind::kStop);
  EXPECT_EQ(plan.actions[0].node, 2u);
  EXPECT_EQ(plan.actions[1].kind, Kind::kKill);
  EXPECT_EQ(plan.actions[1].node, 4u);
  EXPECT_EQ(plan.actions[2].kind, Kind::kCont);
  EXPECT_DOUBLE_EQ(plan.actions[2].at, 48.0);
  EXPECT_EQ(plan.actions[3].kind, Kind::kRestart);
  EXPECT_DOUBLE_EQ(plan.actions[3].at, 60.0);
  // quiet_at is the last intervention: the restart.
  EXPECT_DOUBLE_EQ(plan.quiet_at, 60.0);
  ASSERT_EQ(plan.skews.size(), 2u);
  EXPECT_DOUBLE_EQ(plan.skews.at(0), 1.5);
  EXPECT_DOUBLE_EQ(plan.skews.at(1), 0.6);
  EXPECT_TRUE(plan.schedule.empty());
}

TEST(CompileLive, QuietAtCoversTheLastHeal) {
  const LivePlan plan =
      compile_live(Scenario{}.partition(0.0, 40.0, {0, 1}), 5);
  EXPECT_DOUBLE_EQ(plan.quiet_at, 40.0);
  EXPECT_TRUE(plan.actions.empty());
  EXPECT_FALSE(plan.schedule.empty());
}

TEST(CompileLive, CutFreeLossyBaseStillProducesASchedule) {
  // FaultyTransport needs a schedule to arm; a pure lossy base policy must
  // become a single phase at t=0.
  const LivePlan plan = compile_live(
      Scenario{}.base_policy(net::NetworkPolicy::lossy(0.15, 0.10, 0.20)),
      5);
  ASSERT_EQ(plan.schedule.phases().size(), 1u);
  EXPECT_DOUBLE_EQ(plan.schedule.phases()[0].policy.link.drop_rate, 0.15);
  EXPECT_DOUBLE_EQ(plan.quiet_at, 0.0);
}

TEST(CompileLive, RejectsWhatHasNoLiveLowering) {
  EXPECT_THROW(
      compile_live(Scenario{}.delay_storm(0.0, 10.0, 4.0), 5),
      ContractViolation);
  EXPECT_THROW(
      compile_live(Scenario{}.crash_after(1, 25), 5),
      ContractViolation);
  EXPECT_THROW(
      compile_live(Scenario{}.byzantine(1, bcc::BehaviorSpec{}), 5),
      ContractViolation);
}

TEST(LivePresets, MatrixCompilesAndRespectsTheFaultBudget) {
  const auto& presets = live_presets();
  ASSERT_GE(presets.size(), 7u);
  std::set<std::string> names;
  for (const auto& p : presets) {
    names.insert(p.name);
    ASSERT_LE(p.crash_count, p.f) << p.name;
    const std::vector<sim::ProcessId> faulty =
        p.crash_count > 0 ? std::vector<sim::ProcessId>{4}
                          : std::vector<sim::ProcessId>{};
    const LivePlan plan = compile_live(p.build(faulty, p.n), p.n);
    // Every preset must go quiet so never-killed nodes can decide.
    EXPECT_TRUE(std::isfinite(plan.quiet_at)) << p.name;
    // Process-level actions only ever target the workload-faulty node.
    for (const LiveAction& a : plan.actions) {
      EXPECT_EQ(a.node, 4u) << p.name;
    }
  }
  EXPECT_EQ(names.size(), presets.size());  // names are unique
  for (const char* required :
       {"partition_heal", "asym_partition", "flapping_partition",
        "rolling_partition", "crash_recover_skew", "pause_resume",
        "lossy_links"}) {
    EXPECT_TRUE(names.count(required)) << required;
    EXPECT_NE(find_preset(required, presets), nullptr);
  }
  EXPECT_EQ(find_preset("no_such_preset", presets), nullptr);
}

TEST(LivePresets, CrashRecoverSkewMeetsTheAcceptanceShape) {
  const Preset* p = find_preset("crash_recover_skew", live_presets());
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->crash_count, 1u);
  const LivePlan plan = compile_live(p->build({4}, p->n), p->n);
  ASSERT_EQ(plan.actions.size(), 2u);
  EXPECT_EQ(plan.actions[0].kind, Kind::kKill);
  EXPECT_EQ(plan.actions[1].kind, Kind::kRestart);
  // Acceptance requires skew >= 1.5x on at least one node.
  double max_skew = 0.0;
  for (const auto& [node, rate] : plan.skews) max_skew = std::max(max_skew, rate);
  EXPECT_GE(max_skew, 1.5);
}

TEST(LivePresets, FuzzSamplerIsSeededAndAlwaysQuiets) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const Preset p = sample_live_preset(seed);
    ASSERT_LE(p.crash_count, 1u) << seed;
    const std::vector<sim::ProcessId> faulty =
        p.crash_count > 0 ? std::vector<sim::ProcessId>{3}
                          : std::vector<sim::ProcessId>{};
    const LivePlan plan = compile_live(p.build(faulty, p.n), p.n);
    EXPECT_TRUE(std::isfinite(plan.quiet_at)) << seed;
    // f = 1 budget: at most one distinct process is ever killed/paused.
    std::set<sim::ProcessId> touched;
    for (const LiveAction& a : plan.actions) touched.insert(a.node);
    EXPECT_LE(touched.size(), 1u) << seed;
    // A skewed node is never also the killed/paused node.
    for (const auto& [node, rate] : plan.skews) {
      EXPECT_FALSE(touched.count(node)) << seed;
      EXPECT_GT(rate, 0.0) << seed;
    }
  }
  // Same seed, same structure; different seeds eventually differ.
  const LivePlan a = compile_live(sample_live_preset(5).build({3}, 5), 5);
  const LivePlan b = compile_live(sample_live_preset(5).build({3}, 5), 5);
  EXPECT_EQ(a.actions.size(), b.actions.size());
  EXPECT_DOUBLE_EQ(a.quiet_at, b.quiet_at);
  bool differs = false;
  for (std::uint64_t seed = 0; seed < 16 && !differs; ++seed) {
    const LivePlan c =
        compile_live(sample_live_preset(seed).build({3}, 5), 5);
    differs = c.quiet_at != a.quiet_at || c.actions.size() != a.actions.size();
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace chc::nemesis
