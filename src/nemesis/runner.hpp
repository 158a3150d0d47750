// Nemesis scenario runner: execute one Scenario, verify, summarize.
//
// run_scenario() is the single execution path of every named or sampled
// fault scenario, crash-fault and Byzantine alike: it generates a workload
// (the scenario's crash / Byzantine targets are exactly the workload's
// faulty set), lowers the Scenario onto the harness its protocol row names
// (bcc/replay.hpp: "cc" without byzantine steps, "bcc" with them), records
// the full JSONL trace in memory, and then checks the run four ways:
//
//   checker      obs::check_trace_lines — the same code path as chc_check;
//   replay       re-execution from the trace header must be bit-identical;
//   quiescence   the run ended with nothing left in flight;
//   expectation  the outcome the scenario promises (Expect below).
//
// Outcome classification:
//   kDecided      every process that is neither workload-faulty nor
//                 scheduled to crash decided, and the execution quiesced;
//   kStalledSafe  the run is checker-clean but some expected decider did
//                 not decide (e.g. an unhealed partition, or more than f
//                 simultaneous crashes — the over-budget case the checker
//                 reports as non-deciding rather than unsafe);
//   kViolation    the checker found an invariant violation (this is the
//                 signal the fuzz suite exists to hunt).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/lossy.hpp"
#include "nemesis/scenario.hpp"
#include "obs/checker.hpp"
#include "obs/metrics.hpp"

namespace chc::nemesis {

/// What a scenario promises. The last two are BCC's below-bound demos.
enum class Expect {
  kDecide,      ///< every expected decider decides, with validity and
                ///< ε-agreement (the decide certificate);
  kStallSafe,   ///< checker-clean but some expected decider never decides;
  kRbcStall,    ///< n <= 3f: reliable broadcast delivers nothing at all;
  kRound0Empty  ///< 3f+1 <= n < (d+2)f+1: every fault-free process halts
                ///< on an empty Γ at round 0 (arXiv 1302.2543's bound).
};

std::string_view expect_name(Expect e);

/// Everything needed to execute a scenario once.
struct ScenarioSpec {
  std::string name = "scenario";
  core::CCConfig cc;  ///< n / f / d / eps
  core::InputPattern pattern = core::InputPattern::kUniform;
  core::DelayRegime delay = core::DelayRegime::kUniform;
  net::ReliableParams rel;
  std::uint64_t seed = 1;
  /// Workload faulty-set size (<= cc.f). The scenario builder receives
  /// these pids as its crash targets, so crashed processes carry incorrect
  /// inputs exactly like the paper's adversary.
  std::size_t crash_count = 0;
  Expect expect = Expect::kDecide;
  Scenario scenario;
};

enum class Outcome { kDecided, kStalledSafe, kViolation };

std::string_view outcome_name(Outcome o);

struct ScenarioResult {
  std::string name;
  std::uint64_t seed = 0;
  Outcome outcome = Outcome::kStalledSafe;
  bool passed = false;  ///< every check held (detail is empty)
  std::string detail;   ///< the first failed check, empty when passed
  obs::CheckReport check;
  bool replay_identical = false;
  core::Certificate cert;
  std::vector<std::string> trace_lines;  ///< full JSONL trace of the run

  // Summary metrics.
  std::size_t decided = 0;           ///< processes with a decision
  std::size_t round0_empty = 0;      ///< fault-free, halted on empty Γ
  double decide_latency = 0.0;       ///< sim time of the last decision
  std::size_t rounds_to_decide = 0;  ///< max decision round (== t_end)
  std::uint64_t messages_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t channel_resets = 0;
  bool quiescent = false;
  double end_time = 0.0;
};

/// One-line human-readable summary (CLI / test logging).
std::string summarize(const ScenarioResult& r);

/// Executes the spec. `metrics` (optional) additionally receives the run's
/// registry counters (sim.*, net.rel.*) plus the nemesis.* summary.
/// Byzantine runs below n = 3f + 1 opt into allow_below_bound.
ScenarioResult run_scenario(const ScenarioSpec& spec,
                            obs::Registry* metrics = nullptr);

}  // namespace chc::nemesis
