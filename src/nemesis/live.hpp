// Live nemesis: plan compilation for the REAL cluster.
//
// The sim presets (presets.hpp) assume a virtual clock the harness fully
// controls; a live run against chc_node processes over TCP does not get
// that luxury — a clean 5-node cluster decides in milliseconds of wall
// time, so a fault injected "at t=4" after the fashion of the sim presets
// would land on an already-finished run. The live presets (live_presets()
// in presets.hpp) therefore open their cuts at t=0 (active the moment the
// controller submits) and heal later, and the controller paces everything
// on one wall-clock anchor broadcast to every node
// (transport::FaultyTransport maps phases on that shared anchor; see
// faulty.hpp).
//
// compile_live() lowers a Scenario with Target::kLive and splits it into
// the three things the orchestrator needs:
//
//   schedule  -> broadcast to every node's FaultyTransport (NEMESIS RPC)
//   actions   -> SIGKILL / restart+epoch-bump / SIGSTOP / SIGCONT of real
//                chc_node processes at anchored wall times
//   skews     -> --clock-rate arguments for skewed nodes (their reliable-
//                shim timers genuinely misfire relative to peers)
//
// plus quiet_at, the model time after which no fault is active — the
// controller's cue to start expecting decisions.
#pragma once

#include <map>
#include <vector>

#include "nemesis/scenario.hpp"

namespace chc::nemesis {

/// One orchestrator intervention at anchored model time `at`.
struct LiveAction {
  enum class Kind {
    kKill,     ///< SIGKILL (state loss; restart bumps the epoch)
    kRestart,  ///< respawn the killed node with epoch+1 and resubmit
    kStop,     ///< SIGSTOP (freeze; no state loss)
    kCont,     ///< SIGCONT
  };
  Kind kind = Kind::kKill;
  double at = 0.0;  ///< model time (wall = anchor + at * time_scale)
  sim::ProcessId node = 0;
};

/// The orchestrator-level form of a live scenario.
struct LivePlan {
  net::PolicySchedule schedule;        ///< empty when the net stays clean
  std::vector<LiveAction> actions;     ///< ascending by (at, kind)
  std::map<sim::ProcessId, double> skews;  ///< node -> clock rate
  double quiet_at = 0.0;  ///< model time when the last fault has ended
};

/// Lowers a scenario for the live orchestrator. Storms and Byzantine
/// steps are rejected (no live lowering exists for them yet); crashes
/// must be time-triggered (crash_after counts sim sends, which the
/// controller cannot observe).
LivePlan compile_live(const Scenario& s, std::size_t n);

}  // namespace chc::nemesis
