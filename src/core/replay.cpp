#include "core/replay.hpp"

#include <algorithm>
#include <set>

namespace chc::core {

namespace {

bool fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

/// Validates one header link class (the CHC_CHECK in ChannelPolicy's
/// constructor throws; a malformed trace file should fail gracefully).
bool valid_link(double drop, double dup, double reorder, double rmin,
                double rmax) {
  return drop >= 0.0 && drop <= 1.0 && dup >= 0.0 && dup <= 1.0 &&
         reorder >= 0.0 && reorder <= 1.0 && rmin > 0.0 && rmin <= rmax;
}

bool apply_overrides(const std::vector<obs::HeaderChannelOverride>& overrides,
                     std::uint64_t n, net::NetworkPolicy* policy,
                     std::string* error) {
  for (const obs::HeaderChannelOverride& o : overrides) {
    if (o.from >= n || o.to >= n) {
      return fail(error, "override channel id out of range");
    }
    if (!valid_link(o.drop, o.dup, o.reorder, o.rmin, o.rmax)) {
      return fail(error, "override link rates out of range");
    }
    policy->set_channel(o.from, o.to,
                        net::ChannelPolicy(o.drop, o.dup, o.reorder, o.rmin,
                                           o.rmax));
  }
  return true;
}

}  // namespace

bool config_from_header(const obs::TraceHeader& h, LossyRunConfig* lc,
                        Workload* w, std::string* error) {
  if (h.env != "sim") {
    return fail(error, "only env=sim traces are replayable, got " + h.env);
  }
  if (h.n == 0 || h.inputs.size() != h.n) {
    return fail(error, "inputs do not match n");
  }
  if (h.pattern < 0 || h.pattern > static_cast<int>(InputPattern::kIdentical)) {
    return fail(error, "input pattern out of range");
  }
  if (h.crash_style < 0 ||
      h.crash_style > static_cast<int>(CrashStyle::kLate)) {
    return fail(error, "crash style out of range");
  }
  if (h.delay < 0 ||
      h.delay > static_cast<int>(DelayRegime::kLaggedOneCorrect)) {
    return fail(error, "delay regime out of range");
  }
  if (h.faulty.size() > h.f) {
    return fail(error, "faulty set larger than f");
  }
  for (const std::uint64_t p : h.faulty) {
    if (p >= h.n) return fail(error, "faulty id out of range");
  }
  for (const auto& row : h.inputs) {
    if (row.size() != h.d) return fail(error, "input row dimension mismatch");
  }

  LossyRunConfig out;
  CCConfig& cc = out.base.cc;
  cc.n = h.n;
  cc.f = h.f;
  cc.d = h.d;
  cc.eps = h.eps;
  cc.input_magnitude = h.input_magnitude;  // effective value; idempotent
  cc.rel_tol = h.rel_tol;
  cc.round0 = h.round0_naive ? Round0Policy::kNaiveCollect
                             : Round0Policy::kStableVector;
  cc.max_polytope_vertices = h.max_polytope_vertices;
  cc.fault_model = h.correct_inputs_model ? FaultModel::kCrashCorrectInputs
                                          : FaultModel::kCrashIncorrectInputs;
  out.base.pattern = static_cast<InputPattern>(h.pattern);
  out.base.crash_style = static_cast<CrashStyle>(h.crash_style);
  out.base.delay = static_cast<DelayRegime>(h.delay);
  out.base.seed = h.seed;
  out.policy = net::NetworkPolicy::lossy(h.drop, h.dup, h.reorder);
  out.policy.link.reorder_delay_min = h.reorder_delay_min;
  out.policy.link.reorder_delay_max = h.reorder_delay_max;
  if (!apply_overrides(h.overrides, h.n, &out.policy, error)) return false;
  for (std::size_t k = 0; k < h.phases.size(); ++k) {
    const obs::HeaderPolicyPhase& hp = h.phases[k];
    if (k == 0 ? hp.at != 0.0 : hp.at <= h.phases[k - 1].at) {
      return fail(error, "policy phase times must start at 0 and ascend");
    }
    if (!valid_link(hp.drop, hp.dup, hp.reorder, hp.rmin, hp.rmax)) {
      return fail(error, "phase link rates out of range");
    }
    net::NetworkPolicy phase;
    phase.link =
        net::ChannelPolicy(hp.drop, hp.dup, hp.reorder, hp.rmin, hp.rmax);
    if (!apply_overrides(hp.overrides, h.n, &phase, error)) return false;
    out.schedule.add(hp.at, std::move(phase));
  }
  if (!h.crash_plans.empty()) {
    sim::CrashSchedule crashes;
    for (const obs::HeaderCrashPlan& cp : h.crash_plans) {
      if (cp.p >= h.n) return fail(error, "crash plan id out of range");
      sim::CrashPlan plan;
      if (cp.has_at) plan.at_time = cp.at;
      if (cp.has_after) plan.after_sends = cp.after;
      if (cp.has_recover) {
        if (!cp.has_at || cp.recover <= cp.at) {
          return fail(error, "recovery must follow a time-triggered crash");
        }
        plan.recover_at = cp.recover;
      }
      crashes.set(cp.p, plan);
    }
    out.crash_plans = std::move(crashes);
  }
  for (const obs::HeaderStorm& s : h.storms) {
    if (!(s.t1 > s.t0) || s.factor < 1.0) {
      return fail(error, "malformed storm window");
    }
    out.storms.push_back({s.t0, s.t1, s.factor});
  }
  out.reliable = h.reliable;
  out.rel.rto = h.rto;
  out.rel.backoff = h.backoff;
  out.rel.rto_max = h.rto_max;
  out.rel.jitter = h.jitter;
  out.rel.tick = h.tick;
  out.rel.max_retries = h.max_retries;
  out.max_events = h.max_events;

  Workload workload;
  workload.inputs.reserve(h.inputs.size());
  for (const auto& row : h.inputs) workload.inputs.emplace_back(row);
  workload.faulty.assign(h.faulty.begin(), h.faulty.end());
  // Reconstructed the way make_workload computes it (floor 0.1 over the
  // fault-free inputs); only its max with the header's effective
  // input_magnitude matters, and that max is the header value again.
  const std::set<sim::ProcessId> faulty(workload.faulty.begin(),
                                        workload.faulty.end());
  workload.correct_magnitude = 1e-9;
  for (sim::ProcessId p = 0; p < workload.inputs.size(); ++p) {
    if (faulty.count(p) == 0) {
      workload.correct_magnitude =
          std::max(workload.correct_magnitude, workload.inputs[p].max_abs());
    }
  }
  workload.correct_magnitude = std::max(workload.correct_magnitude, 0.1);

  if (lc != nullptr) *lc = std::move(out);
  if (w != nullptr) *w = std::move(workload);
  return true;
}

}  // namespace chc::core
