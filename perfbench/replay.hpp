// Traced re-execution of a workload's instance set on the calling thread.
//
// Each pass re-runs every instance alone through core::run_cc_lossy_custom,
// first untraced (the `core.run` timing and the exact work counts), then
// with an obs::Tracer on a bench-owned sink that keeps only the events the
// geometry replay needs (kRound0 / kRoundStart / kRound / kDecide). The
// geometry replay then times the two kernels of Algorithm CC on exactly
// the inputs the run gave them:
//
//   subset hull  every kRound0 view through geo::intersection_of_subset_hulls
//   combine      every distinct round operand multiset (the senders' states
//                entering the round) through geo::equal_weight_combination
//
// A real run memoizes identical operand multisets (geo::ComboCache), so the
// replay computes each distinct multiset once per instance. It does not
// model the d = 2 incremental fan reuse or cross-instance memo hits, so the
// combine figure is an upper bound on what the run spent there.
//
// Every pass starts from cleared intern/memo caches with a fresh
// ComboCache of the service's default capacity installed on this thread,
// so the intern and memo counters are exact and repeat pass after pass.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/lossy.hpp"

namespace perfbench {

/// How one certified execution ended. kFailed: some fault-free process
/// did not decide (or the run threw), so there is no output to check;
/// kIncorrect: decisions exist but validity or eps-agreement fails.
enum class Outcome { kDecided, kFailed, kIncorrect };
Outcome classify(const chc::core::LossyRunOutput& out);

struct ReplaySpec {
  chc::core::LossyRunConfig run;
  chc::core::Workload workload;
};

/// Exact, seed-determined work counts summed over one pass.
struct PassCounts {
  std::uint64_t instances = 0;
  std::uint64_t rounds = 0;        ///< kDecide round (t_end) per instance
  std::uint64_t events = 0;        ///< SimStats::events_processed
  std::uint64_t msgs = 0;          ///< SimStats::messages_sent
  std::uint64_t retransmits = 0;   ///< ShimStats::retransmits
  std::uint64_t intern_hits = 0, intern_misses = 0;
  std::uint64_t combo_hits = 0, combo_misses = 0;
  std::uint64_t delta_hits = 0, delta_misses = 0;

  bool operator==(const PassCounts&) const = default;
};

struct ReplayStats {
  std::uint64_t passes = 0;
  std::uint64_t runs = 0;      ///< untraced runs (passes x instances)
  std::uint64_t failed = 0;     ///< untraced runs that did not decide
  std::uint64_t incorrect = 0;  ///< untraced runs with a wrong decision
  std::vector<std::string> failures;  ///< first few failed runs, described
  std::vector<double> run_ms;  ///< untraced core.run wall time per instance
  double untraced_s = 0.0;     ///< summed untraced run time
  double traced_s = 0.0;       ///< summed traced run time
  double subset_hull_s = 0.0;  ///< summed subset-hull kernel replay time
  double combine_s = 0.0;      ///< summed combination kernel replay time
  std::uint64_t replayed_instances = 0;
  std::vector<double> state_vertices;  ///< |verts| of every kRound state
  PassCounts counts;                   ///< pass 1's exact counts
  bool counts_repeat = true;  ///< every pass (traced too) matched pass 1
  std::vector<std::string> problems;  ///< geometry replay inconsistencies
};

/// Runs whole passes over `specs` until `seconds` have elapsed (at least
/// one pass).
ReplayStats replay(const std::vector<ReplaySpec>& specs, double seconds);

/// Adds the replay's per-layer metrics (core.*, sim.*, geometry.*,
/// net.retransmits_per_instance) and its exact counts
/// to `r`, failing `r` when a run failed or a count did not repeat.
void report_replay(const ReplayStats& s, Result& r);

}  // namespace perfbench
