// Shared plumbing of the perfbench binary: command line, clocks, process
// resource counters, order statistics, the host stamp and the result
// record every workload fills in.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1`; returns false
/// (with a message in *error) on anything else.
bool parse_args(int argc, char** argv, Args& out, std::string* error);

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process user+sys CPU seconds (getrusage, all threads).
double process_cpu_seconds();

/// Peak resident set of the process so far, in MiB.
double peak_rss_mb();

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);

double median(std::vector<double> v);

/// Deterministic 64-bit mix of a workload seed and an index (splitmix64),
/// so each workload seed names its own fixed instance set.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports back to main().
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Counts that must repeat exactly for a given seed (name -> value),
  /// printed on their own line so repeated runs can be compared.
  std::vector<Metric> exact;
  /// Why `correct` is false (empty when correct).
  std::vector<std::string> problems;
  /// Instances that failed to produce a decision (counted in `failed`;
  /// these are not incorrect outputs). The first few are kept.
  std::vector<std::string> failures;
  /// Why the figures are not comparable with other runs (empty when they
  /// are): too few passes ran with little steal.
  std::vector<std::string> not_comparable;

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  void note_failure(const std::string& what) {
    if (failures.size() < 10 &&
        std::find(failures.begin(), failures.end(), what) == failures.end()) {
      failures.push_back(what);
    }
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Steady passes per run, at least (see Passes).
inline constexpr std::size_t kMinPasses = 3;

/// A pass counts as steady when the hypervisor stole at most this share of
/// all CPU time during it. On a shared virtual machine steal is what moves
/// the figures. On a 4-vCPU VM, cluster-tcp-d1 passes (then on one thread
/// per node) lost about 3% of decides/s per point of steal (1100-1156/s at
/// up to 2%, about 960/s at 5.6%, about 600/s at 18%), so at 2% a pass
/// stays within about 6% of an unstolen one: under a third of the 0.25
/// bound.
inline constexpr double kMaxStealShare = 0.02;

/// When fewer than kMinPasses passes were steady by the end of the budget,
/// the run goes on until this multiple of the budget, looking for more.
inline constexpr double kStealGrace = 1.5;

/// Share of all CPU time the hypervisor stole since construction, from
/// /proc/stat (0 where that is unreadable).
class StealMeter {
 public:
  StealMeter();
  double share() const;

 private:
  double total0_ = 0.0, steal0_ = 0.0;
};

/// A run is a series of passes. Each pass sets the system up (timed as
/// set-up) and then runs the fixed instance set once (timed). Every figure
/// of the timed phase is a median over the steady passes (steal at most
/// kMaxStealShare) of identical work, so a stall on a shared host moves one
/// pass, not the run's figure; with fewer than kMinPasses steady passes,
/// the least stolen others make up the number and the run is marked not
/// comparable. Set-up time is a median over every pass. Every pass counts
/// for correctness and failures. The
/// instance sets hold at least 1000 instances, so each pass's p99 has at
/// least ten samples beyond it.
struct Passes {
  std::vector<double> rate;      ///< decided instances/s
  std::vector<double> cpu_ms;    ///< process CPU ms per decide
  std::vector<double> setup_s;   ///< set-up seconds
  std::vector<double> p50_ms;    ///< submit->decide latency median
  std::vector<double> p99_ms;    ///< submit->decide latency 99th percentile
  std::vector<double> steal;     ///< share of CPU time stolen in the pass
  std::size_t samples = 0;       ///< latency samples per pass (smallest)
  std::uint64_t attempted = 0, decided = 0;

  void add(double wall_s, double cpu_s, std::uint64_t pass_attempted,
           std::uint64_t pass_decided, double setup,
           const std::vector<double>& latency_ms, double steal_share);

  std::size_t steady() const;

  /// Whether a run with budget `seconds`, `elapsed` seconds in, runs
  /// another pass: until the budget is spent and kMinPasses passes ran,
  /// then on to kStealGrace times the budget while fewer are steady.
  bool more(double elapsed, double seconds) const;

  /// `v` restricted to the steady passes, topped up with the least stolen
  /// of the others to kMinPasses.
  std::vector<double> counted(const std::vector<double>& v) const;

  /// Prints the per-pass details and, for an end-to-end run, adds the
  /// end-to-end metrics to `r`; fills r.attempted / r.failed and marks `r`
  /// not comparable when fewer than kMinPasses passes were steady.
  /// Instances that did not decide count as failed, not as incorrect.
  void report(Result& r, bool end_to_end) const;
};

/// Prints `nproc`, the 1-minute load average, the CPU steal share since
/// the first call, and the build configuration. `when` labels the line
/// ("start" / "end").
void print_host_stamp(const char* when);

/// True iff the binary was compiled as a Release build.
bool release_build();

/// The last stdout line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
void print_result(const Result& r);

}  // namespace perfbench
