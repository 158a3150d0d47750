#include "replay.hpp"

#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>

#include "geometry/intern.hpp"
#include "geometry/ops.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace {

using namespace chc;

/// Keeps the round-structure events of one traced run, nothing else.
class RoundSink final : public obs::TraceSink {
 public:
  void write(const obs::TraceEvent& e) override {
    switch (e.kind) {
      case obs::EventKind::kRound0:
      case obs::EventKind::kRoundStart:
      case obs::EventKind::kRound:
      case obs::EventKind::kDecide: {
        std::lock_guard<std::mutex> lock(mu_);
        events_.push_back(e);
        break;
      }
      default:
        break;
    }
  }
  void write_line(const std::string&) override {}

  std::vector<obs::TraceEvent> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(events_);
  }

 private:
  std::mutex mu_;
  std::vector<obs::TraceEvent> events_;
};

/// Folds one run's work counts into `c`.
void count_run(const core::LossyRunOutput& out, PassCounts& c) {
  ++c.instances;
  c.rounds += out.cert.rounds;
  c.events += out.stats.events_processed;
  c.msgs += out.stats.messages_sent;
  c.retransmits += out.shims.retransmits;
}

void add_geometry_counts(const geo::InternStats& before,
                         const geo::InternStats& after, PassCounts& c) {
  c.intern_hits += after.intern_hits - before.intern_hits;
  c.intern_misses += after.intern_misses - before.intern_misses;
  c.combo_hits += after.combo_hits - before.combo_hits;
  c.combo_misses += after.combo_misses - before.combo_misses;
  c.delta_hits += after.combo_delta_hits - before.combo_delta_hits;
  c.delta_misses += after.combo_delta_misses - before.combo_delta_misses;
}

/// Times both CC kernels on the inputs one traced run gave them.
void replay_geometry(const std::vector<obs::TraceEvent>& events,
                     const core::CCConfig& cfg, ReplayStats& s) {
  // State h_p[t] as broadcast at the start of round t+1.
  std::map<std::pair<std::size_t, std::size_t>, const obs::TraceEvent*> state;
  for (const obs::TraceEvent& e : events) {
    if (e.kind == obs::EventKind::kRound0) state[{e.p, 0}] = &e;
    if (e.kind == obs::EventKind::kRound) {
      state[{e.p, e.round}] = &e;
      s.state_vertices.push_back(static_cast<double>(e.verts.size()));
    }
  }

  for (const obs::TraceEvent& e : events) {
    if (e.kind != obs::EventKind::kRound0) continue;
    std::vector<geo::Vec> points;
    points.reserve(e.view.size());
    for (const auto& [origin, x] : e.view) points.push_back(x);
    const auto t0 = Clock::now();
    const geo::Polytope h0 = geo::intersection_of_subset_hulls(
        points, cfg.round0_drop(), cfg.rel_tol);
    s.subset_hull_s += seconds_since(t0);
    if (h0.is_empty()) s.problems.push_back("replayed round-0 hull came up empty");
  }

  // A run computes each distinct operand multiset once (the memo serves the
  // repeats); identify operands by their exact vertex lists.
  std::map<std::vector<double>, std::size_t> operand_ids;
  std::set<std::vector<std::size_t>> combined;
  for (const obs::TraceEvent& e : events) {
    if (e.kind != obs::EventKind::kRound) continue;
    std::vector<std::size_t> key;
    std::vector<geo::Polytope> operands;
    for (const std::size_t q : e.senders) {
      const auto it = state.find({q, e.round - 1});
      if (it == state.end()) {
        s.problems.push_back("trace lacks a sender's round state");
        return;
      }
      std::vector<double> flat;
      for (const geo::Vec& v : it->second->verts) {
        flat.insert(flat.end(), v.begin(), v.end());
      }
      key.push_back(
          operand_ids.emplace(std::move(flat), operand_ids.size()).first->second);
      operands.push_back(geo::Polytope::from_points(it->second->verts));
    }
    std::sort(key.begin(), key.end());
    if (!combined.insert(key).second) continue;
    const auto t0 = Clock::now();
    const geo::Polytope next =
        geo::equal_weight_combination(operands, cfg.rel_tol);
    s.combine_s += seconds_since(t0);
    if (next.is_empty()) s.problems.push_back("replayed combination came up empty");
  }
  ++s.replayed_instances;
}

/// One untraced or traced sweep over the instance set from cold caches.
PassCounts sweep(const std::vector<ReplaySpec>& specs, bool traced,
                 ReplayStats& s) {
  geo::clear_intern_caches();
  geo::ComboCache memo;  // the service's per-shard default capacity
  geo::ComboCache* prev = geo::set_thread_combo_cache(&memo);
  const geo::InternStats before = geo::intern_stats();
  PassCounts c;
  for (const ReplaySpec& spec : specs) {
    RoundSink sink;
    obs::Tracer tracer(&sink);
    core::LossyRunConfig lc = spec.run;
    lc.tracer = traced ? &tracer : nullptr;
    const auto t0 = Clock::now();
    core::LossyRunOutput out;
    std::string error;
    try {
      out = core::run_cc_lossy_custom(lc, spec.workload);
    } catch (const std::exception& e) {
      error = e.what();
    }
    const double secs = seconds_since(t0);
    count_run(out, c);
    if (!error.empty()) {
      // Nothing to replay or certify; the work counts stay zero.
      if (!traced) {
        ++s.runs;
        ++s.failed;
        if (s.failures.size() < 10) {
          s.failures.push_back("seed " + std::to_string(spec.run.base.seed) +
                               ": " + error);
        }
      }
      continue;
    }
    if (traced) {
      s.traced_s += secs;
      const std::vector<obs::TraceEvent> events = sink.take();
      std::uint64_t decide_round = 0;
      for (const obs::TraceEvent& e : events) {
        if (e.kind == obs::EventKind::kDecide) decide_round = e.round;
      }
      if (decide_round != out.cert.rounds) {
        s.problems.push_back("kDecide round differs from the certificate's rounds");
      }
      replay_geometry(events, lc.base.cc, s);
    } else {
      s.untraced_s += secs;
      s.run_ms.push_back(secs * 1e3);
      ++s.runs;
      const Outcome o = classify(out);
      if (o == Outcome::kFailed) ++s.failed;
      if (o == Outcome::kIncorrect) ++s.incorrect;
    }
  }
  add_geometry_counts(before, geo::intern_stats(), c);
  geo::set_thread_combo_cache(prev);
  return c;
}

double ratio(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t total = hits + misses;
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

}  // namespace

Outcome classify(const core::LossyRunOutput& out) {
  if (!out.quiescent || !out.cert.all_decided) return Outcome::kFailed;
  if (!out.cert.validity || !out.cert.agreement) return Outcome::kIncorrect;
  return Outcome::kDecided;
}

ReplayStats replay(const std::vector<ReplaySpec>& specs, double seconds) {
  ReplayStats s;
  const auto start = Clock::now();
  do {
    const PassCounts plain = sweep(specs, /*traced=*/false, s);
    const PassCounts traced = sweep(specs, /*traced=*/true, s);
    if (s.passes == 0) s.counts = plain;
    // Tracing must not change the work; neither may the pass number.
    if (!(plain == s.counts) || !(traced == s.counts)) s.counts_repeat = false;
    ++s.passes;
  } while (seconds_since(start) < seconds);
  return s;
}

void report_replay(const ReplayStats& s, Result& r) {
  const double n = static_cast<double>(s.counts.instances);
  const double runs = static_cast<double>(s.runs);
  const double replayed = static_cast<double>(s.replayed_instances);
  const double run_mean_s = runs > 0 ? s.untraced_s / runs : 0.0;
  const double subset_s = replayed > 0 ? s.subset_hull_s / replayed : 0.0;
  const double combine_s = replayed > 0 ? s.combine_s / replayed : 0.0;

  r.add("core.run_ms_p50", quantile(s.run_ms, 0.50), "ms");
  r.add("core.run_ms_p99", quantile(s.run_ms, 0.99), "ms");
  r.add("core.rounds_per_instance", static_cast<double>(s.counts.rounds) / n,
        "count");
  r.add("sim.events_per_instance", static_cast<double>(s.counts.events) / n,
        "count");
  r.add("sim.msgs_per_instance", static_cast<double>(s.counts.msgs) / n,
        "count");
  r.add("net.retransmits_per_instance",
        static_cast<double>(s.counts.retransmits) / n, "count");
  r.add("geometry.subset_hull_ms_per_instance", subset_s * 1e3, "ms");
  r.add("geometry.combine_ms_per_instance", combine_s * 1e3, "ms");
  r.add("geometry.share",
        run_mean_s > 0 ? (subset_s + combine_s) / run_mean_s : 0.0, "ratio");
  r.add("geometry.combo_hit_rate",
        ratio(s.counts.combo_hits, s.counts.combo_misses), "ratio");
  r.add("geometry.combo_delta_hit_rate",
        ratio(s.counts.delta_hits, s.counts.delta_misses), "ratio");
  r.add("geometry.intern_hit_rate",
        ratio(s.counts.intern_hits, s.counts.intern_misses), "ratio");
  r.add("geometry.state_vertices_p50", quantile(s.state_vertices, 0.5),
        "count");

  const auto exact = [&](const char* name, std::uint64_t v) {
    r.exact.push_back({name, static_cast<double>(v), "count"});
  };
  exact("replay.instances", s.counts.instances);
  exact("replay.rounds", s.counts.rounds);
  exact("replay.events", s.counts.events);
  exact("replay.msgs", s.counts.msgs);
  exact("replay.retransmits", s.counts.retransmits);
  exact("replay.intern_hits", s.counts.intern_hits);
  exact("replay.intern_misses", s.counts.intern_misses);
  exact("replay.combo_hits", s.counts.combo_hits);
  exact("replay.combo_misses", s.counts.combo_misses);
  exact("replay.delta_hits", s.counts.delta_hits);
  exact("replay.delta_misses", s.counts.delta_misses);

  if (s.incorrect > 0) {
    r.fail(std::to_string(s.incorrect) + " replayed runs decided incorrectly");
  }
  for (const std::string& f : s.failures) r.note_failure("replay " + f);
  for (const std::string& p : s.problems) r.fail("replay: " + p);
  if (!s.counts_repeat) {
    r.fail("replay work counts differ between passes or traced/untraced");
  }
  std::printf("replay: passes=%llu runs=%llu failed=%llu untraced=%.3fs "
              "traced=%.3fs subset_hull=%.3fs combine=%.3fs\n",
              static_cast<unsigned long long>(s.passes),
              static_cast<unsigned long long>(s.runs),
              static_cast<unsigned long long>(s.failed), s.untraced_s,
              s.traced_s, s.subset_hull_s, s.combine_s);
}

}  // namespace perfbench
