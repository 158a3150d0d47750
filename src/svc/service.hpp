// Sharded multi-instance consensus service.
//
// Every harness entry point so far executes exactly one Algorithm CC
// instance at a time; this layer multiplexes many concurrent instances —
// the ROADMAP's scaling axis. Tseng & Vaidya's CC (and its vector-consensus
// sibling) are per-instance protocols with no cross-instance coupling, so
// the natural unit of parallelism is the whole instance: the service runs B
// admitted instances over a fixed pool of shards, each shard a worker
// thread draining a bounded FIFO run queue.
//
// Determinism is the contract. An instance executes through the exact
// single-instance path (core::run_cc_lossy_custom) with its own seeded
// Simulation, its own Tracer and its own trace stream, so its decision
// polytopes and its JSONL trace are bit-identical to running that instance
// alone — at any shard count, under any cross-instance interleaving. What
// IS shared across instances is deliberately value-transparent state: the
// process-global polytope intern table (bounded LRU). Shard threads are
// the only parallelism; the geometry kernels run serially on the calling
// shard (DESIGN.md §9). Each shard additionally owns a private combination
// memo table (geo::ComboCache, installed thread-locally) so shards never
// serialize on the global memo mutex; memo hits return interned values a
// fresh computation would produce, so results cannot differ. The
// differential suite in tests/svc enforces all of this bit-for-bit.
//
// Backpressure: per-shard queues are bounded (ServiceConfig::queue_capacity).
// submit() blocks until the target shard has room; try_submit() refuses
// instead. Admission traffic is surfaced through obs::metrics counters
// (svc.submitted / svc.admitted / svc.rejected / svc.backpressure_waits /
// svc.completed / svc.failed) when a registry is attached.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/lossy.hpp"
#include "core/workload.hpp"
#include "obs/metrics.hpp"

namespace chc::svc {

/// One consensus instance to run. `run.tracer` / `run.metrics` must be
/// null — the service owns per-instance tracing (set `trace` instead).
struct InstanceSpec {
  std::uint64_t id = 0;
  core::LossyRunConfig run;
  /// Caller-supplied workload; generated from `run.base` when absent
  /// (exactly as core::run_cc_lossy would).
  std::optional<core::Workload> workload;
  /// Record a per-instance JSONL trace stream (header, events, footer) —
  /// independently checkable by obs::checker / tools/chc_check.
  bool trace = true;
};

/// Outcome of one instance, tagged with its id and the shard that ran it.
struct InstanceResult {
  std::uint64_t id = 0;
  std::size_t shard = 0;
  bool ok = false;  ///< quiescent + all_decided + validity + agreement
  std::string error;  ///< non-empty when the run threw (ok stays false)
  core::LossyRunOutput out;
  /// The instance's complete trace stream (empty when tracing was off).
  std::vector<std::string> trace_lines;
};

struct ServiceConfig {
  /// Worker shard count; 0 means CHC_SVC_SHARDS (env), falling back to
  /// hardware_concurrency (at least 1).
  std::size_t shards = 0;
  /// Bounded per-shard FIFO run-queue capacity (backpressure threshold).
  std::size_t queue_capacity = 64;
  /// Capacity of each shard's private combination memo table. Sized for
  /// same-round duplicate combinations across the shard's instances; an
  /// oversized memo pins dead rounds and evicts the live working set
  /// (see ComboCache's capacity note).
  std::size_t combo_cache_capacity = 64;
  /// Optional admission/completion counters (svc.* names).
  obs::Registry* metrics = nullptr;
  /// When set, each traced instance's stream is also written to
  /// <trace_dir>/instance_<id>.jsonl (chc_check can verify each file).
  std::string trace_dir;
};

class ConsensusService {
 public:
  explicit ConsensusService(ServiceConfig cfg);
  /// Drains admitted work, then joins the shard workers.
  ~ConsensusService();

  ConsensusService(const ConsensusService&) = delete;
  ConsensusService& operator=(const ConsensusService&) = delete;

  std::size_t shards() const;

  /// Admits one instance onto its shard (id mod shards — deterministic),
  /// blocking while that shard's queue is full. Returns the shard index.
  std::size_t submit(InstanceSpec spec);

  /// Non-blocking admission; false (and svc.rejected) when the target
  /// shard's queue is full.
  bool try_submit(InstanceSpec spec);

  /// Admits a batch in order (per-shard arrival order is the batch order
  /// restricted to that shard). Blocks as needed; returns the batch size.
  std::size_t submit_batch(std::vector<InstanceSpec> specs);

  /// Blocks until every admitted instance has completed.
  void drain();

  /// Completed results so far, sorted by instance id; clears the internal
  /// buffer. Call drain() first for the full batch.
  std::vector<InstanceResult> take_results();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Convenience one-shot: run all `specs` on a service with `shards` shards
/// and return the results sorted by id (the batched counterpart of calling
/// core::run_cc_lossy_custom per spec).
std::vector<InstanceResult> run_batch(std::vector<InstanceSpec> specs,
                                      std::size_t shards,
                                      obs::Registry* metrics = nullptr);

}  // namespace chc::svc
