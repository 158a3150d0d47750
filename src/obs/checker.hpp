// Offline trace checker: re-verifies the paper's invariants from a JSONL
// trace, with no access to the original execution.
//
// Structural checks (the trace is a plausible execution):
//   * the first record is a header; seq numbers strictly increase and event
//     times are non-decreasing (env == "sim" traces only — concurrent
//     emitters interleave in a live sink);
//   * per process: at most one round-0 completion, round completions are
//     consecutive from 1, each preceded by its round_start, at most one
//     decision, and nothing is emitted after the process's crash event;
//   * round completions carry >= n - f senders, all valid process ids;
//   * a quiescent footer implies every fault-free process decided.
//
// Crash-recover awareness: a kRecover event opens a fresh *incarnation* of
// the process (state loss — the restarted process re-records round 0).
// Safety checks (validity, round containment, stable-vector containment)
// cover every incarnation; contraction / ε-agreement apply to first
// incarnations only, because a recovered process is faulty and the paper's
// bounds are stated for processes that never crash. Liveness exempts
// processes that ever crashed, and is skipped altogether when the trace is
// over budget (more than f distinct processes crashed).
//
// Geometric invariants (paper §5-§6):
//   * Validity — every recorded h_i[t] ⊆ H(validity inputs) (Theorem 2);
//   * Round containment — h_i[t] ⊆ H(∪_{j ∈ senders} h_j[t-1]): the state
//     is an equal-weight L over the senders' previous states, and
//     L(Y) ⊆ H(∪Y) (Definition 2). NOTE the stricter h_i[t] ⊆ h_i[t-1] is
//     *not* an invariant: when correct processes' round-0 views genuinely
//     differ (e.g. the kLaggedOneCorrect regime) a process's state can mix
//     outward — measured excess up to ~0.16 — so the checker verifies the
//     faithful union form;
//   * Stable-vector Containment — round-0 views are totally ordered by
//     inclusion (paper §3);
//   * ε-agreement + Lemma 3 contraction — pairwise d_H(h_i[t], h_j[t]) ≤
//     (1 − 1/n)^t · sqrt(d · n² · max(U², μ²)) per round (eq. 12→19), and
//     pairwise decision distance < ε (skipped when vertex pruning is on:
//     simplification error is outside the bound);
//   * Optimality floor — I_Z ⊆ h_i[t] for every fault-free process and
//     round (Lemma 6), with I_Z recomputed from the recorded views
//     (eq. 20-21; skipped for the naive round-0 ablation and under
//     pruning, where the guarantee does not hold).
//
// Byzantine mode (header protocol == "bcc", src/bcc): the same validity,
// round-containment, contraction and ε-agreement invariants apply to the
// fault-free processes, with three model-driven deltas. (1) Round-0 views
// are *not* inclusion-ordered (each process fixes its own first-(n-f)
// verified multiset), but reliable broadcast forces agreement per origin —
// the sv-containment check is replaced by pairwise agreement on common
// origins. (2) Declared-Byzantine senders record no states, so containments
// through them are counted as skipped, not violated; Byzantine processes
// are exempt from liveness via the faulty set. (3) The I_Z optimality floor
// is a crash-model lemma and is skipped, as is liveness when n < 3f + 1
// (the resilience precondition is void — the documented non-decision mode
// of the boundary suite; safety is still fully checked).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace chc::obs {

struct CheckViolation {
  std::size_t line = 0;  ///< 1-based line number in the trace file
  std::uint64_t seq = 0;
  Pid p = kNoPeer;
  std::size_t round = 0;
  std::string invariant;  ///< e.g. "containment", "eps-agreement"
  std::string detail;
};

/// One-line human-readable description of a violation.
std::string describe(const CheckViolation& v);

struct CheckOptions {
  double tol = 1e-6;  ///< geometric slack (matches core::certify)
  std::size_t max_violations = 16;  ///< stop collecting after this many
};

struct CheckReport {
  bool parsed = false;  ///< header + every line parsed
  std::string parse_error;
  TraceHeader header;
  std::vector<CheckViolation> violations;

  // Work accounting (so "accepted" visibly means "checked").
  std::size_t events = 0;
  std::size_t snapshots_checked = 0;
  std::size_t containments_checked = 0;
  std::size_t pairs_checked = 0;
  std::size_t rounds_seen = 0;
  bool iz_checked = false;

  /// Round containments skipped because the senders' previous states are
  /// legitimately unknowable: a single-node perspective trace cannot see
  /// its peers' states, and a declared-Byzantine sender in a protocol=bcc
  /// trace records no protocol events at all.
  std::size_t containments_skipped = 0;
  /// The final line was malformed and dropped: a node crashed (SIGKILL)
  /// mid-write. Only tolerated for live traces — a truncated tail is the
  /// expected artifact of a real crash, and every fully written event was
  /// still checked. Any other env treats a malformed line as corruption.
  bool truncated_tail = false;

  // Nemesis-run accounting.
  std::size_t recoveries = 0;  ///< kRecover events (fresh incarnations)
  /// More than f processes crashed (faulty set union crash events): the
  /// resilience precondition is void, so liveness is not required — the
  /// checker still verifies every recorded snapshot is safe.
  bool over_budget = false;

  bool ok() const { return parsed && violations.empty(); }
};

/// One-line work-accounting summary ("events=... snapshots=... ..."), shared
/// by chc_check and the harness reporters so every verdict line visibly says
/// what was checked — including the count of skipped cross-node containments
/// (single-perspective traces, declared-Byzantine senders) and a truncated
/// live-trace tail.
std::string summary_line(const CheckReport& r);

CheckReport check_trace_lines(const std::vector<std::string>& lines,
                              const CheckOptions& opts = {});
CheckReport check_trace_file(const std::string& path,
                             const CheckOptions& opts = {});

}  // namespace chc::obs
