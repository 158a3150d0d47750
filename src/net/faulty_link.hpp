// Policy-driven fair-lossy link fault injector.
//
// Implements the sim::LinkFaultModel hook from a NetworkPolicy: each
// accepted send is independently dropped, duplicated, or marked for
// reordering according to its channel's configured rates. The injector is
// stateless and draws only from the RNG the simulator passes in, so
// executions stay a pure function of (processes, delay model, crash
// schedule, policy, seed).
//
// Composability with DelayModel: the injector only decides a message's
// fate; every surviving copy still draws its latency from whatever
// DelayModel the runtime was built with. Reordered messages additionally
// pick up a uniform extra delay and bypass the per-channel FIFO clamp.
//
// Time-varying policies: constructed from a PolicySchedule the injector
// selects the phase active at the send's submission time. Scheduled phases
// may set drop_rate to 1.0 (a full partition) — the fair-lossy requirement
// is relaxed to "some phase eventually heals", which nemesis scenarios are
// responsible for.
#pragma once

#include "net/policy.hpp"
#include "sim/fault.hpp"

namespace chc::net {

class FaultyLinkModel final : public sim::LinkFaultModel {
 public:
  explicit FaultyLinkModel(NetworkPolicy policy);
  explicit FaultyLinkModel(PolicySchedule schedule);

  sim::LinkFaultDecision decide(sim::ProcessId from, sim::ProcessId to,
                                int tag, sim::Time now, Rng& rng) override;

  /// The policy in force at time `now` (constant for single-policy models).
  const NetworkPolicy& policy_at(sim::Time now) const;
  const NetworkPolicy& policy() const { return policy_at(0.0); }

 private:
  const NetworkPolicy policy_;        ///< used when schedule_ is empty
  const PolicySchedule schedule_;
};

}  // namespace chc::net
