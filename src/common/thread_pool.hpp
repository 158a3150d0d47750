// No-op stand-in for the deleted geometry thread pool.
//
// The geometry kernels are serial; the service's only parallelism is one
// consensus instance per shard thread (DESIGN.md §9). perfbench
// (svc_workload.cpp, cluster_workload.cpp) still calls set_global_threads;
// the next change to the benchmark deletes those calls and this header.
#pragma once

#include <cstddef>

namespace chc::common {

struct ThreadPool {
  static void set_global_threads(std::size_t) {}
};

}  // namespace chc::common
