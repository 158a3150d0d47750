#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace perfbench {

namespace {

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.size() > 19) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = v;
  return true;
}

}  // namespace

bool parse_args(int argc, char** argv, Args& out, std::string* error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string val = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      out.workload = val;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(val, n)) {
        *error = "--seed wants a non-negative integer, got " + val;
        return false;
      }
      out.seed = n;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      const double s = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(s > 0.0) || s > 600.0) {
        *error = "--seconds wants a number in (0, 600], got " + val;
        return false;
      }
      out.seconds = s;
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") {
        *error = "--trace wants 0 or 1, got " + val;
        return false;
      }
      out.trace = val == "1";
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (!have_workload) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void Passes::add(double wall_s, double cpu_s, std::uint64_t pass_attempted,
                 std::uint64_t pass_decided, double setup,
                 const std::vector<double>& latency_ms, double steal_share) {
  const auto n = static_cast<double>(pass_decided);
  rate.push_back(n / wall_s);
  cpu_ms.push_back(n > 0 ? cpu_s * 1e3 / n : 0.0);
  setup_s.push_back(setup);
  p50_ms.push_back(quantile(latency_ms, 0.50));
  p99_ms.push_back(quantile(latency_ms, 0.99));
  steal.push_back(steal_share);
  samples = rate.size() == 1 ? latency_ms.size()
                             : std::min(samples, latency_ms.size());
  attempted += pass_attempted;
  decided += pass_decided;
}

std::size_t Passes::steady() const {
  return static_cast<std::size_t>(
      std::count_if(steal.begin(), steal.end(),
                    [](double x) { return x <= kMaxStealShare; }));
}

bool Passes::more(double elapsed, double seconds) const {
  if (rate.size() < kMinPasses || elapsed < seconds) return true;
  return steady() < kMinPasses && elapsed < kStealGrace * seconds;
}

std::vector<double> Passes::counted(const std::vector<double>& v) const {
  std::vector<std::size_t> order(v.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return steal[a] < steal[b];
  });
  std::vector<double> out;
  for (const std::size_t i : order) {
    if (out.size() >= kMinPasses && steal[i] > kMaxStealShare) break;
    out.push_back(v[i]);
  }
  return out;
}

void Passes::report(Result& r, bool end_to_end) const {
  r.attempted = attempted;
  r.failed = attempted - decided;
  std::printf("passes=%zu steady=%zu submitted=%llu decided=%llu "
              "failed_frac=%.6f latency_samples_per_pass=%zu beyond_p99=%zu\n",
              rate.size(), steady(), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(decided),
              attempted > 0 ? static_cast<double>(attempted - decided) /
                                  static_cast<double>(attempted)
                            : 0.0,
              samples, samples / 100);
  for (std::size_t i = 0; i < rate.size(); ++i) {
    std::printf("pass %zu: steal=%.1f%% decides/s=%.1f p50_ms=%.3f "
                "p99_ms=%.3f cpu_ms/decide=%.3f setup_ms=%.2f\n",
                i, 100.0 * steal[i], rate[i], p50_ms[i], p99_ms[i], cpu_ms[i],
                1e3 * setup_s[i]);
  }
  if (steady() < kMinPasses) {
    char why[160];
    std::snprintf(why, sizeof why,
                  "%zu of %zu passes had steal at most %.0f%% of CPU time; "
                  "%zu wanted",
                  steady(), rate.size(), 100.0 * kMaxStealShare, kMinPasses);
    r.not_comparable.push_back(why);
  }
  if (!end_to_end) return;
  r.add("decides_per_s", median(counted(rate)), "inst/s");
  r.add("latency_p50_ms", median(counted(p50_ms)), "ms");
  r.add("latency_p99_ms", median(counted(p99_ms)), "ms");
  r.add("cpu_ms_per_decide", median(counted(cpu_ms)), "ms");
  r.add("certified_frac",
        attempted > 0 ? static_cast<double>(decided) /
                            static_cast<double>(attempted)
                      : 0.0,
        "ratio");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  // Set-up is a median over every pass: its per-pass spread (retransmit
  // timers on a fresh cluster) is wider than what steal adds, and the few
  // steady passes of a stolen run are too few for a steady median.
  r.add("setup_s", median(setup_s), "s");
}

bool release_build() { return std::string(PERFBENCH_BUILD_TYPE) == "Release"; }

namespace {

/// All-CPU {total, steal} ticks from /proc/stat ({0, 0} if unreadable).
std::pair<double, double> cpu_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  if (got != 8) return {0.0, 0.0};
  double total = 0.0;
  for (const unsigned long long x : v) total += static_cast<double>(x);
  return {total, static_cast<double>(v[7])};
}

}  // namespace

StealMeter::StealMeter() {
  const std::pair<double, double> t = cpu_ticks();
  total0_ = t.first;
  steal0_ = t.second;
}

double StealMeter::share() const {
  const std::pair<double, double> t = cpu_ticks();
  const double total = t.first - total0_;
  return total > 0 ? (t.second - steal0_) / total : 0.0;
}

void print_host_stamp(const char* when) {
  // Steal is time the hypervisor ran something else on this machine's
  // virtual CPUs; the end stamp reports its share over the run.
  static const StealMeter since_start;
  double load[1] = {0.0};
  if (getloadavg(load, 1) != 1) load[0] = -1.0;
  std::printf(
      "host %s: nproc=%ld loadavg_1m=%.2f steal_since_start=%.1f%% "
      "build_type=%s CHC_SIMD=%s CHC_LTO=%s\n",
      when, sysconf(_SC_NPROCESSORS_ONLN), load[0],
      100.0 * since_start.share(), PERFBENCH_BUILD_TYPE, PERFBENCH_SIMD,
      PERFBENCH_LTO);
  std::fflush(stdout);
}

void print_result(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
