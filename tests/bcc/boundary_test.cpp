// Resilience-boundary suite: BCC's behavior exactly at, below, and in the
// gap between its two lower bounds.
//
//   n >= 3f + 1            reliable broadcast (Bracha quorums);
//   n >= (d+2)f + 1        nonempty Γ (the vector-consensus bound of
//                          arXiv 1302.2543).
//
// At n = 3f the protocol must not decide — and must not crash or violate
// safety either: it quiesces with zero deliveries (the READY quorum 2f+1
// exceeds the number of live correct processes). In (3f+1 .. (d+2)f+1)
// broadcast completes but Γ(X) is empty, so every fault-free process halts
// at round 0, recorded in the trace as round0_empty. Both failure modes
// are deterministic, checker-clean, and bit-replayable.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "nemesis/presets.hpp"

namespace chc::nemesis {
namespace {

using bcc::BehaviorKind;

Preset boundary(std::size_t n, std::size_t f, std::size_t d, Expect expect,
                BehaviorKind kind, std::uint64_t param) {
  Preset p = byzantine_preset(n, f, d, kind, param, expect);
  p.name = "boundary";
  return p;
}

TEST(BccBoundary, AtThreeFNoDecisionEver) {
  // n = 3f for f = 1 and f = 2: documented non-decision. A completely
  // silent faulty set leaves 2f correct processes, strictly below the
  // 2f + 1 READY quorum, so reliable broadcast delivers nothing.
  for (const auto& [n, f] : std::vector<std::pair<std::size_t, std::size_t>>{
           {3, 1}, {6, 2}}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const ScenarioResult r = run_preset(
          boundary(n, f, 1, Expect::kRbcStall, BehaviorKind::kSilent, 0),
          seed);
      EXPECT_TRUE(r.passed) << "n=" << n << " f=" << f << " seed=" << seed
                            << ": " << r.detail;
      EXPECT_EQ(r.decided, 0u);
      EXPECT_TRUE(r.quiescent);
      EXPECT_TRUE(r.replay_identical);
    }
  }
}

TEST(BccBoundary, OneAboveThreeFDecides) {
  // The same silent adversary, one process more: n = 3f + 1 decides (for
  // d = 1, where 3f + 1 >= (d+2)f + 1).
  for (const auto& [n, f] : std::vector<std::pair<std::size_t, std::size_t>>{
           {4, 1}, {7, 2}}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const ScenarioResult r = run_preset(
          boundary(n, f, 1, Expect::kDecide, BehaviorKind::kSilent, 0),
          seed);
      EXPECT_TRUE(r.passed) << "n=" << n << " f=" << f << " seed=" << seed
                            << ": " << r.detail;
      EXPECT_EQ(r.decided, n - f);
    }
  }
}

TEST(BccBoundary, VectorConsensusGapHaltsAtRoundZero) {
  // 3f + 1 <= n < (d+2)f + 1: broadcast works, geometry fails. For
  // d = 2, f = 1 that is exactly n = 4: X has 3 points, Γ drops every
  // 1-subset and intersects 2-point hulls (segments) — generically empty
  // in the plane. Every fault-free process must halt at round 0, not
  // decide and not crash.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const ScenarioResult r = run_preset(
        boundary(4, 1, 2, Expect::kRound0Empty,
                 BehaviorKind::kSilent, 1'000'000),
        seed);
    EXPECT_TRUE(r.passed) << "seed=" << seed << ": " << r.detail;
    EXPECT_EQ(r.decided, 0u);
    EXPECT_EQ(r.round0_empty, 3u);
    EXPECT_TRUE(r.replay_identical);
  }
}

TEST(BccBoundary, AtVectorBoundDecidesInThePlane) {
  // n = (d+2)f + 1 = 5 for d = 2, f = 1: the exact vector-consensus
  // bound, under the harsher equivocating adversary.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const ScenarioResult r = run_preset(
        boundary(5, 1, 2, Expect::kDecide,
                 BehaviorKind::kEquivocate, 0),
        seed);
    EXPECT_TRUE(r.passed) << "seed=" << seed << ": " << r.detail;
    EXPECT_EQ(r.decided, 4u);
  }
}

TEST(BccBoundary, NamedBoundaryPresetsMatchTheirExpectations) {
  for (const char* name : {"rbc_stall_3f", "vector_bound_gap"}) {
    const Preset* p = find_preset(name);
    ASSERT_NE(p, nullptr) << name;
    const ScenarioResult r = run_preset(*p, 5);
    EXPECT_TRUE(r.passed) << name << ": " << r.detail;
    EXPECT_EQ(r.decided, 0u) << name;
  }
}

}  // namespace
}  // namespace chc::nemesis
