#include "nemesis/live.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace chc::nemesis {

LivePlan compile_live(const Scenario& s, std::size_t n) {
  CHC_CHECK(s.storms().empty(),
            "delay storms have no live lowering (use a lossy base policy "
            "with reorder delays instead)");
  CHC_CHECK(s.byzantine_plans().empty(),
            "byzantine steps have no live lowering yet");
  const Scenario::Compiled c = s.compile(n, Scenario::Target::kLive);
  LivePlan plan;
  plan.schedule = c.schedule;
  if (plan.schedule.empty() && c.policy.enabled()) {
    // A cut-free lossy base still needs a schedule for FaultyTransport.
    plan.schedule.add(0.0, c.policy);
  }
  plan.skews = c.skews;

  for (const auto& [p, cp] : s.crash_plans()) {
    CHC_CHECK(cp.at_time.has_value(),
              "live crashes must be time-triggered (crash_after counts "
              "sim sends the controller cannot observe)");
    plan.actions.push_back({LiveAction::Kind::kKill, *cp.at_time, p});
    plan.quiet_at = std::max(plan.quiet_at, *cp.at_time);
    if (cp.recover_at.has_value()) {
      plan.actions.push_back({LiveAction::Kind::kRestart, *cp.recover_at, p});
      plan.quiet_at = std::max(plan.quiet_at, *cp.recover_at);
    }
  }
  for (const PauseWindow& pw : c.pauses) {
    plan.actions.push_back({LiveAction::Kind::kStop, pw.t0, pw.p});
    plan.actions.push_back({LiveAction::Kind::kCont, pw.t1, pw.p});
    plan.quiet_at = std::max(plan.quiet_at, pw.t1);
  }
  for (const Cut& cut : s.cuts()) {
    if (std::isfinite(cut.t1)) plan.quiet_at = std::max(plan.quiet_at, cut.t1);
  }
  for (const RollingPartition& roll : s.rolling()) {
    plan.quiet_at = std::max(plan.quiet_at, roll.t1);
  }
  std::sort(plan.actions.begin(), plan.actions.end(),
            [](const LiveAction& a, const LiveAction& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.node != b.node) return a.node < b.node;
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
  return plan;
}

}  // namespace chc::nemesis
