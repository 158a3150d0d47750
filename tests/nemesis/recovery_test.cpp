// Crash->recover determinism (satellite): the same seed + scenario replays
// bit-identically through bcc/replay, and the recovered incarnation never
// violates stable-vector containment (the offline checker re-verifies every
// run, all incarnations included).
#include <gtest/gtest.h>

#include "bcc/replay.hpp"
#include "nemesis/presets.hpp"

namespace chc::nemesis {
namespace {

ScenarioResult run_crash_recover(std::uint64_t seed) {
  const Preset* p = find_preset("crash_recover");
  EXPECT_NE(p, nullptr);
  return run_preset(*p, seed);
}

TEST(Recovery, SameSeedSameTraceBytes) {
  const ScenarioResult a = run_crash_recover(5);
  const ScenarioResult b = run_crash_recover(5);
  ASSERT_FALSE(a.trace_lines.empty());
  EXPECT_EQ(a.trace_lines, b.trace_lines);

  const ScenarioResult c = run_crash_recover(6);
  EXPECT_NE(a.trace_lines, c.trace_lines);  // the seed actually matters
}

TEST(Recovery, ReplaysBitIdenticallyFromHeader) {
  // The trace header carries the scenario's lowered form (policy phases,
  // crash plans with recover_at, storms); replay rebuilds the config
  // from the header alone and must reproduce the run byte for byte —
  // including the crash, the restart and the fresh incarnation's messages.
  const ScenarioResult r = run_crash_recover(5);
  ASSERT_TRUE(r.passed) << summarize(r);
  ASSERT_GE(r.recoveries, 1u);
  const bcc::ReplayResult rep = bcc::replay_trace_lines(r.trace_lines);
  ASSERT_TRUE(rep.ran) << rep.error;
  EXPECT_TRUE(rep.identical)
      << "first diff at line " << rep.first_diff_line << "\n  expected: "
      << rep.expected << "\n  actual:   " << rep.actual;
  EXPECT_EQ(rep.original_lines, r.trace_lines.size());
}

TEST(Recovery, RecoveredIncarnationStaysContained) {
  // Across several seeds: every crash_recover run is checker-clean, which
  // in particular verifies stable-vector containment for the recovered
  // incarnation's fresh round-0 state (the checker tracks incarnations
  // separately and applies safety to all of them).
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const ScenarioResult r = run_crash_recover(seed);
    EXPECT_TRUE(r.check.ok()) << "seed=" << seed << ": " << summarize(r);
    EXPECT_EQ(r.check.recoveries, 1u) << "seed=" << seed;
    EXPECT_EQ(r.outcome, Outcome::kDecided)
        << "seed=" << seed << ": " << summarize(r);
  }
}

TEST(Recovery, PartitionedRecoveryReplaysToo) {
  // The composed preset (partition x crash-recover) exercises scheduled
  // policy phases AND crash plans in one header.
  const Preset* p = find_preset("partition_crash_recover");
  ASSERT_NE(p, nullptr);
  const ScenarioResult r = run_preset(*p, 9);
  ASSERT_TRUE(r.passed) << summarize(r);
  const bcc::ReplayResult rep = bcc::replay_trace_lines(r.trace_lines);
  ASSERT_TRUE(rep.ran) << rep.error;
  EXPECT_TRUE(rep.identical)
      << "first diff at line " << rep.first_diff_line << "\n  expected: "
      << rep.expected << "\n  actual:   " << rep.actual;
}

}  // namespace
}  // namespace chc::nemesis
