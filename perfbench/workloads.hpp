// The benchmark's workloads. Each entry point runs one complete
// `--trace 0` (end-to-end) or `--trace 1` (per-layer) run of its workload
// and fills in the result; main() prints it.
#pragma once

#include "common.hpp"

namespace perfbench {

/// "svc-d2-lossy" or "svc-d3": the sharded in-process service.
bool is_svc_workload(const std::string& name);
Result run_svc(const Args& args);

/// "cluster-tcp-d1": four NodeRuntimes over TcpTransport on 127.0.0.1.
bool is_cluster_workload(const std::string& name);
Result run_cluster(const Args& args);

}  // namespace perfbench
