// LoopbackCluster: n NodeRuntimes over one LoopbackHub, each stepped on its
// own thread while a run is in progress — the threaded test bed of the
// cluster tests (and the TSan target).
//
// Every endpoint is wrapped in a FaultyTransport, passthrough until arm()
// installs a fault schedule. Crashing a node is endpoint destruction: its
// mailbox closes and frames sent to it are dropped, exactly like a dead
// TCP peer. restart() brings the node back as a new incarnation with an
// empty queue and an unarmed link.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/workload.hpp"
#include "geometry/polytope.hpp"
#include "transport/faulty.hpp"
#include "transport/loopback.hpp"
#include "transport/node.hpp"

namespace chc::transport {

class LoopbackCluster {
 public:
  static constexpr double kTimeScale = 1e-3;  ///< fast wall clock for tests

  /// `trace_dir` empty: no trace files.
  explicit LoopbackCluster(std::size_t n, std::string trace_dir = {})
      : hub_(n), trace_dir_(std::move(trace_dir)), endpoints_(n), links_(n),
        nodes_(n) {
    for (std::size_t i = 0; i < n; ++i) restart(i, /*epoch=*/0);
  }

  ~LoopbackCluster() {
    for (std::size_t i = 0; i < nodes_.size(); ++i) crash(i);
  }

  LoopbackCluster(const LoopbackCluster&) = delete;
  LoopbackCluster& operator=(const LoopbackCluster&) = delete;

  std::size_t n() const { return nodes_.size(); }
  NodeRuntime& node(std::size_t i) { return *nodes_[i]; }
  FaultyTransport& link(std::size_t i) { return *links_[i]; }

  /// Arms every live node's link with `schedule`, anchored at this instant
  /// (model time 0 is now).
  void arm(const net::PolicySchedule& schedule, std::uint64_t seed) {
    const double anchor = std::chrono::duration<double>(
                              std::chrono::system_clock::now()
                                  .time_since_epoch())
                              .count();
    for (auto& l : links_) {
      if (l) l->set_schedule(schedule, anchor, seed, kTimeScale);
    }
  }

  /// Kills node i: runtime, link and endpoint go, in that order.
  void crash(std::size_t i) {
    nodes_[i].reset();
    links_[i].reset();
    endpoints_[i].reset();
  }

  /// Replaces node i (crashing it first if alive) with incarnation `epoch`.
  void restart(std::size_t i, std::uint32_t epoch) {
    crash(i);
    endpoints_[i] = hub_.endpoint(i);
    links_[i] = std::make_unique<FaultyTransport>(*endpoints_[i]);
    NodeConfig cfg;
    cfg.id = i;
    cfg.n = n();
    cfg.epoch = epoch;
    cfg.time_scale = kTimeScale;
    cfg.trace_dir = trace_dir_;
    nodes_[i] = std::make_unique<NodeRuntime>(cfg, *links_[i]);
  }

  void start_instance(const InstanceSpec& spec) {
    for (auto& node : nodes_) {
      if (node) node->start_instance(spec);
    }
  }

  /// Steps every live node on its own thread until `done(i, node)` has
  /// held once for each of them (a node that is done keeps stepping —
  /// peers still need its store/ack traffic). `done` runs on node i's
  /// thread. Returns false on timeout.
  bool step_until(const std::function<bool(std::size_t, NodeRuntime&)>& done,
                  int timeout_sec) {
    std::size_t live = 0;
    for (const auto& node : nodes_) live += node ? 1 : 0;
    std::atomic<std::size_t> finished{0};
    std::atomic<bool> give_up{false};
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (!nodes_[i]) continue;
      threads.emplace_back([&, i] {
        NodeRuntime& node = *nodes_[i];
        bool counted = false;
        while (finished.load() < live && !give_up.load()) {
          node.step(1);
          if (!counted && done(i, node)) {
            counted = true;
            finished.fetch_add(1);
          }
        }
      });
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(timeout_sec);
    while (finished.load() < live &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    give_up.store(true);
    for (auto& t : threads) t.join();
    return finished.load() == live;
  }

  bool run_until_all_decide(std::uint64_t iid, int timeout_sec) {
    return step_until(
        [iid](std::size_t, NodeRuntime& node) {
          return node.status(iid).decided;
        },
        timeout_sec);
  }

  /// Decisions of instance `iid` at the live nodes that have decided it.
  std::vector<geo::Polytope> decisions(std::uint64_t iid) const {
    std::vector<geo::Polytope> out;
    for (const auto& node : nodes_) {
      if (!node) continue;
      const auto st = node->status(iid);
      if (st.decided) out.push_back(geo::Polytope::from_points(st.decision));
    }
    return out;
  }

 private:
  LoopbackHub hub_;
  std::string trace_dir_;
  std::vector<std::unique_ptr<Transport>> endpoints_;
  std::vector<std::unique_ptr<FaultyTransport>> links_;
  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
};

/// Instance `iid` over core::make_workload(n, f, d, kUniform, seed): the
/// same spec every node of the cluster receives.
inline InstanceSpec make_instance_spec(std::size_t n, std::size_t f,
                                       std::size_t d, double eps,
                                       std::uint64_t iid, std::uint64_t seed) {
  const core::Workload w =
      core::make_workload(n, f, d, core::InputPattern::kUniform, seed);
  InstanceSpec spec;
  spec.id = iid;
  spec.cc.n = n;
  spec.cc.f = f;
  spec.cc.d = d;
  spec.cc.eps = eps;
  spec.cc.input_magnitude = std::max(1.0, w.correct_magnitude);
  spec.seed = seed;
  spec.inputs = w.inputs;
  spec.faulty = w.faulty;
  return spec;
}

}  // namespace chc::transport
