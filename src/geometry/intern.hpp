// Polytope interning and memoized round combination.
//
// Algorithm CC broadcasts its round state to n-1 peers every round, and as
// processes converge their states become literally identical polytopes.
// Interning gives every distinct polytope value one immutable heap object
// behind a shared_ptr, so
//  * broadcast fan-out copies a pointer instead of deep-copying the vertex
//    and halfspace arrays n-1 times, and
//  * value identity becomes pointer identity, which makes the per-round
//    equal-weight combination memoizable: once two processes hold the same
//    message multiset (the common case from round 1 under full crash
//    fault-load, see E1), the second L(Y) is a cache hit.
//
// Handles are shared_ptr<const Polytope>: safe to pass across runtime
// threads (the pointee is immutable) and to stash in std::any payloads.
// The intern table holds weak references only — dropping every handle
// frees the polytope — and is bounded: the table keeps at most
// intern_capacity() entries, evicting the least-recently-interned value
// (live handles stay valid; the value merely stops being dedupable), so a
// long multi-instance run cannot grow the table monotonically.
//
// Memoized combinations live in ComboCache tables. By default every caller
// shares one process-global cache; a runner that executes many consensus
// instances concurrently (src/svc) gives each shard its own ComboCache via
// set_thread_combo_cache so shards do not serialize on one mutex. The memo
// is semantically transparent — a hit returns exactly the polytope a fresh
// computation would intern — so the choice of cache never changes results.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "geometry/polytope.hpp"

namespace chc::geo {

using PolytopeHandle = std::shared_ptr<const Polytope>;

/// Returns the canonical shared handle for `p`'s exact value (ambient
/// dimension + bitwise-equal vertex list). Two interned polytopes are
/// value-equal iff their handles are pointer-equal. Thread-safe.
PolytopeHandle intern(Polytope p);

/// A bounded memo table for equal-weight combinations (FIFO eviction).
/// Thread-safe; one instance may be shared, or installed per worker thread
/// with set_thread_combo_cache for contention-free sharded use.
///
/// Capacity sizing: each memo entry pins its operand handles and the
/// combined output, so the table's live footprint scales with capacity ×
/// round size. The memo earns its keep by deduplicating repeats of the
/// SAME operand multiset — sibling instances of a shard working the same
/// round — a window of a few dozen entries. Oversizing it retains long-dead
/// rounds whose only effect is to evict the round pipeline's working set
/// from cache (measured ~2x on the round-churn bench at capacity 4096).
class ComboCache {
 public:
  explicit ComboCache(std::size_t capacity = 64);
  ~ComboCache();
  ComboCache(const ComboCache&) = delete;
  ComboCache& operator=(const ComboCache&) = delete;

  std::size_t size() const;
  void clear();

 private:
  friend PolytopeHandle equal_weight_combination_interned(
      const std::vector<PolytopeHandle>& polys, double rel_tol);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Installs `cache` as the calling thread's combination memo table (null
/// restores the process-global default). Returns the previous override.
/// The cache must outlive the override.
ComboCache* set_thread_combo_cache(ComboCache* cache);

/// Equal-weight L (Definition 2 with weights 1/k) over interned operands,
/// memoized on the operand multiset: repeated calls with the same handles
/// (in any order) return the same interned result without recomputing the
/// Minkowski combination. Thread-safe; the memo table used is the calling
/// thread's ComboCache (see set_thread_combo_cache), the bounded
/// process-global one by default.
PolytopeHandle equal_weight_combination_interned(
    const std::vector<PolytopeHandle>& polys, double rel_tol = 1e-9);

/// Counters for tests and benchmarks (process-wide totals, all caches).
struct InternStats {
  std::uint64_t intern_hits = 0;    ///< intern() found an existing object
  std::uint64_t intern_misses = 0;  ///< intern() created a new object
  std::uint64_t intern_evictions = 0;  ///< LRU victims dropped from the table
  std::uint64_t combo_hits = 0;     ///< memoized L reused a cached result
  std::uint64_t combo_misses = 0;   ///< memoized L computed from scratch
  /// The d = 2 incremental path (combine2d.hpp): on a combination miss,
  /// operand edge fans surviving from earlier rounds are reused
  /// (delta-hits) and only the changed operands rebuild theirs
  /// (delta-misses) — a round whose membership changed by one process pays
  /// one fan build plus the merge instead of a full recomputation.
  std::uint64_t combo_delta_hits = 0;    ///< operand fans reused
  std::uint64_t combo_delta_misses = 0;  ///< operand fans (re)built
};
InternStats intern_stats();

/// Number of values currently registered in the intern table (expired
/// entries are counted until pruned; the count never exceeds
/// intern_capacity()).
std::size_t intern_table_size();

/// The intern table's entry bound. Defaults to 4096 (kDefaultInternCap);
/// set_intern_capacity(0) restores that default. Shrinking evicts
/// immediately. Thread-safe.
std::size_t intern_capacity();
void set_intern_capacity(std::size_t cap);

/// Drops the intern table and the process-global combination cache (test
/// isolation; live handles stay valid — thread-local ComboCaches are their
/// owners' to clear). Resets the statistics counters.
void clear_intern_caches();

}  // namespace chc::geo
