// Scenario fuzz: randomly composed nemesis scenarios (within the fault
// budget) must decide and stay checker-clean. A small seed sweep runs in
// the regular test tier; CI's nightly job drives `chc_nemesis --fuzz 200`
// for the deep sweep. CHC_NEMESIS_FUZZ_SEEDS overrides the count locally.
#include <gtest/gtest.h>

#include <cstdlib>

#include "nemesis/presets.hpp"

namespace chc::nemesis {
namespace {

std::uint64_t fuzz_seeds() {
  if (const char* env = std::getenv("CHC_NEMESIS_FUZZ_SEEDS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::uint64_t>(v);
  }
  return 12;
}

TEST(NemesisFuzz, SampledScenariosDecideCheckerClean) {
  const std::uint64_t seeds = fuzz_seeds();
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const Preset p = sample_preset(seed);
    EXPECT_EQ(p.expect, Expect::kDecide) << p.name;
    const ScenarioResult r = run_preset(p, seed);
    EXPECT_TRUE(r.check.ok()) << p.name << ": " << summarize(r);
    EXPECT_TRUE(r.passed) << p.name << " (" << p.description
                          << "): " << summarize(r);
  }
}

TEST(NemesisFuzz, SamplerIsDeterministic) {
  const Preset a = sample_preset(42);
  const Preset b = sample_preset(42);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.description, b.description);
  // Same seed -> same scenario -> same run, bit for bit.
  const ScenarioResult ra = run_preset(a, 42);
  const ScenarioResult rb = run_preset(b, 42);
  EXPECT_EQ(ra.trace_lines, rb.trace_lines);
}

}  // namespace
}  // namespace chc::nemesis
