// perfbench: end-to-end and per-layer benchmark of the consensus service
// and the TCP cluster.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with no instrumentation;
// --trace 1 is the separate traced run that attributes time to layers (it
// prints the per-layer metrics its workload exercises; run.py fills in the
// rest of BENCHMARK.json's list as not exercised).
// The last stdout line is the JSON result; lines before it are the host
// stamp, workload settings and details. Exit code 2 on bad arguments, 3 on
// a non-Release build (its numbers are not comparable), 1 on a crash.
#include <cmath>
#include <cstdio>
#include <exception>

#include "common.hpp"
#include "workloads.hpp"

using namespace perfbench;

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parse_args(argc, argv, args, &error) ||
      !(is_svc_workload(args.workload) ||
        is_cluster_workload(args.workload))) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "{svc-d2-lossy|svc-d3|cluster-tcp-d1} --seed N --seconds S "
                 "--trace 0|1\n",
                 error.empty() ? "unknown workload" : error.c_str());
    return 2;
  }
  if (!release_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to record numbers from a '%s' build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  print_host_stamp("start");
  Result r;
  try {
    r = is_svc_workload(args.workload) ? run_svc(args) : run_cluster(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) r.fail("metric " + m.name + " is not finite");
  }
  print_host_stamp("end");
  for (const Metric& m : r.exact) {
    std::printf("exact %s %.17g\n", m.name.c_str(), m.value);
  }
  for (const std::string& f : r.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  for (const std::string& p : r.problems) {
    std::printf("INCORRECT: %s\n", p.c_str());
  }
  if (r.not_comparable.empty()) {
    std::printf("comparable: yes\n");
  }
  for (const std::string& why : r.not_comparable) {
    std::printf("comparable: no: %s\n", why.c_str());
  }
  print_result(r);
  return 0;
}
