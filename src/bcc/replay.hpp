// One protocol-keyed table for running and replaying simulator runs.
//
// Every sim trace header names its protocol: "cc" (crash-fault Algorithm
// CC, core::run_cc_lossy_custom) or "bcc" (the Byzantine track,
// run_bcc_custom). Each row of the table turns a header into a run
// configuration and runs that protocol's harness; nemesis::run_scenario,
// replay_trace_lines/file and chc_check all dispatch through it. It lives
// in chc_bcc because that is the lowest library linking both harnesses.
// A cc run is a ByzRunConfig with no behaviors.
//
// Replay: every harness entry point funnels into its protocol's single
// execution path, and a header carries everything that path consumes, so
// re-running the header's configuration against a fresh tracer must
// reproduce the original trace *bit for bit* (the serializer emits
// shortest-round-trip doubles via std::to_chars, and Byzantine behaviors
// are deterministic functions of (receiver, message index, spec)).
// replay_trace_lines does exactly that and reports the first differing
// line when the re-execution diverges — a tripwire for any nondeterminism
// regression in the simulator, RNG forking or geometry kernels.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "bcc/harness.hpp"
#include "obs/trace.hpp"

namespace chc::bcc {

/// One row: a protocol name and its harness.
struct Protocol {
  std::string_view name;  ///< the trace header's `protocol`
  /// Rebuilds the configuration + workload a header describes; false (with
  /// *error) when the header is not replayable.
  bool (*from_header)(const obs::TraceHeader& h, ByzRunConfig* bc,
                      core::Workload* w, std::string* error);
  /// One complete execution (tracer / metrics come from bc.lossy).
  core::LossyRunOutput (*run)(const ByzRunConfig& bc,
                              const core::Workload& w);
};

/// The row for `name`, nullptr when no harness runs that protocol.
const Protocol* find_protocol(std::string_view name);

/// The bcc row's from_header: core::config_from_header plus the behavior
/// list. False (with *error) on a wrong protocol, a malformed behavior
/// list or a behavior/faulty mismatch.
bool byz_config_from_header(const obs::TraceHeader& h, ByzRunConfig* bc,
                            core::Workload* w, std::string* error);

struct ReplayResult {
  bool ran = false;        ///< header parsed and the run was re-executed
  std::string error;       ///< set when !ran
  bool identical = false;  ///< replayed trace == original, byte for byte
  /// When not identical: 1-based index of the first differing line and the
  /// two versions of it (empty string = side has no such line).
  std::size_t first_diff_line = 0;
  std::string expected;  ///< original trace's line
  std::string actual;    ///< replayed trace's line
  std::size_t original_lines = 0;
  std::size_t replayed_lines = 0;
};

/// Re-executes the run described by lines[0] through its protocol's row
/// and compares the produced trace line-for-line against `lines`.
ReplayResult replay_trace_lines(const std::vector<std::string>& lines);

/// Reads a JSONL trace file (blank lines ignored) and replays it.
ReplayResult replay_trace_file(const std::string& path);

}  // namespace chc::bcc
