// svc workloads: svc::ConsensusService driven by one closed-loop driver
// thread that keeps a fixed number of instances outstanding per shard and
// polls take_results().
//
// A run is a series of passes (see Passes). Each pass builds a fresh
// service from cold caches, runs the warm-up instances (set-up), then runs
// the fixed, seed-determined instance set once (timed). The service places
// instance id k on shard k mod S; Driver gives shard s the contiguous
// block s of the set (N/S entries, in order), so every shard runs the same
// balanced mix of crash styles and lossy entries every pass. A stride-S
// mapping would alias with the round-robin mix: at S = 2 one shard would
// get every lossy entry. An entry's work counts
// (rounds, simulator events and messages, shim retransmits) are a pure
// function of the entry; the run fails when a repetition of an entry does
// not reproduce them exactly.
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "common/thread_pool.hpp"
#include "core/workload.hpp"
#include "geometry/intern.hpp"
#include "net/policy.hpp"
#include "replay.hpp"
#include "svc/service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace chc;

struct SvcWorkload {
  const char* name;
  std::size_t shards;
  std::size_t geo_threads;       ///< global geometry pool size
  std::size_t window_per_shard;  ///< outstanding instances per shard
  std::size_t n, f, d;
  double eps;
  bool lossy_mix;         ///< odd entries over a lossy network + shim
  std::size_t instances;  ///< instance set, run once per pass
  std::size_t warmup;     ///< untimed instances per set-up
};

// Keep in sync with the workload descriptions in BENCHMARK.json.
// svc-d3 is not listed there: about one d=3 instance in 1300 to 4000
// throws "interior point must satisfy all constraints strictly"
// (geometry/ops.cpp, dual_vertices), so most of its instance sets hold an
// instance that never decides, while a benchmark workload must run without
// failures. It stays runnable by name, and reports those instances as
// failed, until that defect is fixed.
constexpr SvcWorkload kWorkloads[] = {
    {"svc-d2-lossy", 2, 1, 2, 5, 1, 2, 0.15, true, 1024, 32},
    {"svc-d3", 1, 2, 2, 6, 1, 3, 0.15, false, 1024, 8},
};

const SvcWorkload* find_workload(const std::string& name) {
  for (const SvcWorkload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// The instance set: the four crash styles round-robin, odd entries over
/// NetworkPolicy::lossy(0.10, 0.03, 0.05) with the reliable shim.
std::vector<ReplaySpec> make_instance_set(const SvcWorkload& w,
                                          std::uint64_t seed) {
  static constexpr core::CrashStyle kStyles[] = {
      core::CrashStyle::kNone, core::CrashStyle::kEarly,
      core::CrashStyle::kMidBroadcast, core::CrashStyle::kLate};
  std::vector<ReplaySpec> set;
  for (std::size_t i = 0; i < w.instances; ++i) {
    ReplaySpec s;
    s.run.base.cc = core::CCConfig{.n = w.n, .f = w.f, .d = w.d, .eps = w.eps};
    s.run.base.crash_style = kStyles[i % 4];
    s.run.base.seed = mix_seed(seed, i);
    if (w.lossy_mix && i % 2 == 1) {
      s.run.policy = net::NetworkPolicy::lossy(0.10, 0.03, 0.05);
      s.run.reliable = true;
    } else {
      s.run.reliable = false;
    }
    s.workload = core::make_workload(w.n, w.f, w.d, s.run.base.pattern,
                                     s.run.base.seed);
    set.push_back(std::move(s));
  }
  return set;
}

/// Work counts of one instance execution; repeat exactly per entry.
struct Fingerprint {
  std::uint64_t rounds = 0, events = 0, msgs = 0, retransmits = 0;
  bool operator==(const Fingerprint&) const = default;
};

/// First-seen work counts per instance-set entry, checked on every
/// repetition.
class Fingerprints {
 public:
  explicit Fingerprints(std::size_t entries) : first_(entries) {}

  void check(std::size_t entry, const svc::InstanceResult& r) {
    const Fingerprint fp{r.out.cert.rounds, r.out.stats.events_processed,
                         r.out.stats.messages_sent, r.out.shims.retransmits};
    if (!first_[entry]) {
      first_[entry] = fp;
    } else if (!(*first_[entry] == fp)) {
      problems_.push_back("instance-set entry " + std::to_string(entry) +
                          " did not repeat its work counts");
    }
  }

  /// Adds the summed counts of every entry to r.exact; false when some
  /// entry never ran.
  bool report(Result& r) const {
    Fingerprint sum;
    for (const auto& fp : first_) {
      if (!fp) return false;
      sum.rounds += fp->rounds;
      sum.events += fp->events;
      sum.msgs += fp->msgs;
      sum.retransmits += fp->retransmits;
    }
    const auto exact = [&](const char* name, std::uint64_t v) {
      r.exact.push_back({name, static_cast<double>(v), "count"});
    };
    exact("svc.instances", first_.size());
    exact("svc.rounds", sum.rounds);
    exact("svc.events", sum.events);
    exact("svc.msgs", sum.msgs);
    exact("svc.retransmits", sum.retransmits);
    return true;
  }

  const std::vector<std::string>& problems() const { return problems_; }

 private:
  std::vector<std::optional<Fingerprint>> first_;
  std::vector<std::string> problems_;
};

/// Closed-loop driver of one service.
class Driver {
 public:
  Driver(const SvcWorkload& w, const std::vector<ReplaySpec>& set,
         svc::ConsensusService& service, Fingerprints& fingerprints)
      : w_(w), set_(set), service_(service), next_k_(w.shards, 0),
        fingerprints_(fingerprints) {}

  struct Phase {
    std::vector<double> latency_ms;
    std::uint64_t submitted = 0, ok = 0, failed = 0;
    double wall_s = 0.0, cpu_s = 0.0;
  };

  /// Submits `per_shard` instances to every shard, keeping
  /// window_per_shard outstanding per shard, and waits for all of them.
  Phase run(std::size_t per_shard) {
    std::vector<std::size_t> phase_count(w_.shards, 0);
    struct Pending {
      Clock::time_point submitted;
      std::size_t entry = 0;
    };
    std::map<std::uint64_t, Pending> outstanding;
    Phase ph;
    const double cpu0 = process_cpu_seconds();
    const auto start = Clock::now();
    const auto want_more = [&](std::size_t s) {
      return phase_count[s] < per_shard;
    };
    const auto submit = [&](std::size_t s) {
      const std::size_t block = set_.size() / w_.shards;
      const std::uint64_t j = next_k_[s]++;
      const std::uint64_t id = s + w_.shards * j;  // runs on shard s
      const std::size_t entry = s * block + j % block;
      svc::InstanceSpec spec;
      spec.id = id;
      spec.run = set_[entry].run;
      spec.workload = set_[entry].workload;
      spec.trace = false;
      outstanding[id] = {Clock::now(), entry};
      service_.submit(std::move(spec));
      ++phase_count[s];
      ++ph.submitted;
    };
    for (std::size_t s = 0; s < w_.shards; ++s) {
      for (std::size_t j = 0; j < w_.window_per_shard && want_more(s); ++j) {
        submit(s);
      }
    }
    auto last = start;
    while (!outstanding.empty()) {
      std::vector<svc::InstanceResult> done = service_.take_results();
      if (done.empty()) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      last = Clock::now();
      for (const svc::InstanceResult& r : done) {
        const auto it = outstanding.find(r.id);
        if (it == outstanding.end()) {
          problems_.push_back("result for an instance never submitted");
          continue;
        }
        ph.latency_ms.push_back(
            std::chrono::duration<double, std::milli>(last - it->second.submitted)
                .count());
        const std::size_t entry = it->second.entry;
        outstanding.erase(it);
        const Outcome o = r.error.empty() ? classify(r.out) : Outcome::kFailed;
        if (o == Outcome::kDecided) {
          ++ph.ok;
        } else {
          ++ph.failed;
          const std::string what =
              "instance-set entry " + std::to_string(entry) + " (seed " +
              std::to_string(set_[entry].run.base.seed) + ") " +
              (o == Outcome::kIncorrect ? "decided incorrectly"
               : r.error.empty()        ? "did not decide"
                                        : "threw: " + r.error);
          if (o == Outcome::kIncorrect) problems_.push_back(what);
          if (o == Outcome::kFailed) failures_.push_back(what);
        }
        fingerprints_.check(entry, r);
        const std::size_t s = r.id % w_.shards;
        if (want_more(s)) submit(s);
      }
    }
    ph.wall_s = std::chrono::duration<double>(last - start).count();
    ph.cpu_s = process_cpu_seconds() - cpu0;
    return ph;
  }

  /// Outputs that were wrong (the run is then incorrect).
  const std::vector<std::string>& problems() const { return problems_; }
  /// Instances that produced no decision (counted as failed).
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  const SvcWorkload& w_;
  const std::vector<ReplaySpec>& set_;
  svc::ConsensusService& service_;
  std::vector<std::uint64_t> next_k_;  ///< per-shard submission counters
  Fingerprints& fingerprints_;
  std::vector<std::string> problems_;
  std::vector<std::string> failures_;
};

}  // namespace

bool is_svc_workload(const std::string& name) {
  return find_workload(name) != nullptr;
}

Result run_svc(const Args& args) {
  const SvcWorkload& w = *find_workload(args.workload);
  common::ThreadPool::set_global_threads(w.geo_threads);
  const std::vector<ReplaySpec> set = make_instance_set(w, args.seed);
  std::printf("workload %s: shards=%zu geo_threads=%zu window=%zu/shard "
              "instance_set=%zu warmup=%zu n=%zu f=%zu d=%zu eps=%.2f\n",
              w.name, w.shards, w.geo_threads, w.window_per_shard,
              w.instances, w.warmup, w.n, w.f, w.d, w.eps);

  Result r;
  Fingerprints fingerprints(set.size());
  Passes passes;
  std::uint64_t waits = 0;
  const double loop_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const auto start = Clock::now();
  do {
    // Set-up: a fresh service from cold caches plus the warm-up instances.
    const auto t0 = Clock::now();
    const StealMeter steal;
    geo::clear_intern_caches();
    obs::Registry registry;
    svc::ServiceConfig cfg;
    cfg.shards = w.shards;
    cfg.metrics = &registry;
    svc::ConsensusService service(cfg);
    Driver driver(w, set, service, fingerprints);
    const Driver::Phase warm = driver.run(w.warmup / w.shards);
    const double setup = seconds_since(t0);
    if (warm.failed > 0) r.note_failure("warm-up instances failed");

    const std::uint64_t waits_before =
        registry.counter("svc.backpressure_waits").value();
    const Driver::Phase ph = driver.run(w.instances / w.shards);
    waits += registry.counter("svc.backpressure_waits").value() - waits_before;
    passes.add(ph.wall_s, ph.cpu_s, ph.submitted, ph.ok, setup, ph.latency_ms,
               steal.share());
    for (const std::string& p : driver.problems()) r.fail(p);
    for (const std::string& f : driver.failures()) r.note_failure(f);
  } while (passes.more(seconds_since(start), loop_seconds));
  if (!fingerprints.report(r)) r.fail("not every instance-set entry ran");
  for (const std::string& p : fingerprints.problems()) r.fail(p);
  passes.report(r, !args.trace);
  if (!args.trace) return r;

  const ReplayStats rs = replay(set, args.seconds / 2);
  report_replay(rs, r);
  r.add("svc.overhead_ms_p50",
        median(passes.p50_ms) - quantile(rs.run_ms, 0.50), "ms");
  r.add("svc.backpressure_waits_per_1k",
        1e3 * static_cast<double>(waits) / static_cast<double>(passes.attempted),
        "count");
  // Tracing overhead: traced vs untraced sequential decides/s.
  r.add("trace.overhead_frac",
        rs.untraced_s > 0 ? rs.traced_s / rs.untraced_s - 1.0 : 0.0, "ratio");
  return r;
}

}  // namespace perfbench
