// Named nemesis scenarios + the seeded random scenario composers.
//
// Each Preset is a parameterized scenario family: the concrete fault
// targets depend on the workload (the seed picks which processes are
// faulty), so a preset carries a builder that receives the workload's
// faulty pids and the system size. run_preset() wires it all together:
// workload -> scenario -> run_scenario -> verdict. A preset runs on the
// Byzantine track (protocol "bcc") exactly when its scenario has byzantine
// steps.
//
// presets() is the sim matrix:
//   - crash-fault CC: symmetric partition + heal, asymmetric one-way
//     partition, crash-recover with state loss mid-round, a delay storm,
//     partition composed with crash-recover, staggered churn, and the
//     deliberately over-budget case (> f simultaneous crashes, no
//     recovery) that must be reported as non-deciding rather than unsafe;
//   - Byzantine CC: two Byzantine compositions with nemesis faults, then
//     the resilience-boundary matrix — one behavior class per point,
//     deciding at n >= max(3f, (d+2)f) + 1, stalling in reliable broadcast
//     at n = 3f, halting on an empty Γ in 3f+1 <= n < (d+2)f+1.
//
// live_presets() is the matrix for the real TCP cluster (chc_cluster). It
// is a separate list: a clean live cluster decides in milliseconds, so its
// cuts open at t=0 instead of mid-run, and two names (partition_heal,
// asym_partition) exist in both lists with different timings.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "nemesis/runner.hpp"
#include "nemesis/scenario.hpp"

namespace chc::nemesis {

struct Preset {
  std::string name;
  std::string description;
  std::size_t n = 5, f = 1, d = 2;
  double eps = 0.15;
  /// Workload faulty pids (== the builder's fault targets), <= f.
  std::size_t crash_count = 0;
  core::InputPattern pattern = core::InputPattern::kUniform;
  Expect expect = Expect::kDecide;
  /// Builds the scenario for this workload's faulty set.
  std::function<Scenario(const std::vector<sim::ProcessId>& faulty,
                         std::size_t n)>
      build;
};

/// The named sim preset matrix (stable order, stable names).
const std::vector<Preset>& presets();

/// The live-cluster preset matrix (stable order, stable names).
const std::vector<Preset>& live_presets();

/// Preset by name in `list`, nullptr when unknown.
const Preset* find_preset(const std::string& name,
                          const std::vector<Preset>& list = presets());

/// "bcc" when the preset's scenario has byzantine steps, else "cc".
std::string_view protocol_of(const Preset& p);

/// A Byzantine preset: all f workload-faulty processes run `kind`, the
/// i-th of them with parameter `param + i`.
Preset byzantine_preset(std::size_t n, std::size_t f, std::size_t d,
                        bcc::BehaviorKind kind, std::uint64_t param,
                        Expect expect = Expect::kDecide);

/// Seeded random scenario composer: 1-3 fault ingredients (symmetric /
/// one-way partitions that always heal, crash with or without recovery,
/// delay storms) with randomized times, sides and factors. Every sampled
/// scenario stays within the fault budget, so it must decide.
Preset sample_preset(std::uint64_t seed);

/// Seeded Byzantine adversary sampler: a random deciding (n, f, d) tuple
/// with a random behavior class and parameter. Every sampled preset must
/// decide.
Preset sample_byz_preset(std::uint64_t seed);

/// Seeded random live scenario composer (chc_cluster --fuzz / --soak).
/// Every sampled scenario stays within the f = 1 budget and every cut
/// heals, so all never-killed nodes must decide.
Preset sample_live_preset(std::uint64_t seed);

/// Executes a preset: workload from (preset, seed), scenario from the
/// builder, then run_scenario.
ScenarioResult run_preset(const Preset& preset, std::uint64_t seed,
                          obs::Registry* metrics = nullptr);

}  // namespace chc::nemesis
