// Seeded Byzantine adversary fuzz: sample_byz_preset draws random deciding
// (n, f, d) tuples with random behavior classes and parameters; every
// sampled execution must decide with validity + ε-agreement, pass the
// offline checker, and replay bit-identically. CI's nightly lane runs the
// same loop with 200+ rotating seeds through
// chc_nemesis --protocol bcc --fuzz.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <numeric>
#include <vector>

#include "nemesis/presets.hpp"

namespace chc::nemesis {
namespace {

/// The behavior assignments a preset's scenario makes for faulty pids
/// 0..f-1.
std::map<sim::ProcessId, bcc::BehaviorSpec> behaviors(const Preset& p) {
  std::vector<sim::ProcessId> faulty(p.crash_count);
  std::iota(faulty.begin(), faulty.end(), sim::ProcessId{0});
  return p.build(faulty, p.n).byzantine_plans();
}

TEST(ByzFuzz, SamplerIsDeterministic) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const Preset a = sample_byz_preset(seed);
    const Preset b = sample_byz_preset(seed);
    EXPECT_EQ(a.n, b.n);
    EXPECT_EQ(a.f, b.f);
    EXPECT_EQ(a.d, b.d);
    const auto ba = behaviors(a);
    const auto bb = behaviors(b);
    ASSERT_EQ(ba.size(), a.f);
    ASSERT_EQ(bb.size(), b.f);
    for (const auto& [pid, spec] : ba) {
      EXPECT_EQ(spec.kind, bb.at(pid).kind);
      EXPECT_EQ(spec.param, bb.at(pid).param);
    }
    EXPECT_EQ(a.pattern, b.pattern);
  }
}

TEST(ByzFuzz, SampledTuplesAlwaysSatisfyBothBounds) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Preset p = sample_byz_preset(seed);
    EXPECT_GE(p.n, 3 * p.f + 1) << "seed=" << seed;
    EXPECT_GE(p.n, (p.d + 2) * p.f + 1) << "seed=" << seed;
    EXPECT_EQ(p.expect, Expect::kDecide);
  }
}

TEST(ByzFuzz, SampledAdversariesAllPass) {
  std::size_t failed = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Preset p = sample_byz_preset(seed);
    const ScenarioResult r = run_preset(p, seed);
    if (!r.passed) {
      ++failed;
      ADD_FAILURE() << "seed=" << seed << " n=" << p.n << " f=" << p.f
                    << " d=" << p.d << " "
                    << bcc::behavior_name(behaviors(p).begin()->second.kind)
                    << ": " << r.detail;
    }
  }
  EXPECT_EQ(failed, 0u);
}

}  // namespace
}  // namespace chc::nemesis
