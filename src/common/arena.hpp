// Bump/arena allocation for kernel scratch memory.
//
// The geometry kernels (subset hulls, the k-way combination merge, clipping,
// quickhull) build and discard many short-lived vectors per consensus round.
// Under a general-purpose allocator that is a malloc/free round-trip per
// buffer; an arena turns it into pointer bumps against a small set of
// long-lived chunks that are recycled round after round.
//
// Lifetime rules (see DESIGN.md §14):
//  * One arena per thread (`thread_arena()`); each of the service's shard
//    workers gets its own, so no locking is needed on the allocation path.
//  * A kernel entry point opens an `ArenaScope`; everything allocated inside
//    is released wholesale when the scope closes. Scopes nest (recursion,
//    kernels calling kernels).
//  * Nothing allocated from an arena may escape the scope that allocated it.
//    Results that outlive the call (Polytope members, cached combination
//    fans) stay on the normal heap.
//  * Chunks are never returned to the OS while the arena lives: after warmup
//    the steady state performs zero heap allocations for kernel scratch,
//    which `arena_stats().chunk_mallocs` makes observable (and testable).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace chc::common {

/// A growable bump allocator. Not thread-safe; use one per thread
/// (`thread_arena()`).
class Arena {
 public:
  explicit Arena(std::size_t min_chunk_bytes = 1 << 16);
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (a power of two).
  void* allocate(std::size_t bytes, std::size_t align);

  /// A rewind point for scope-based wholesale release.
  struct Marker {
    std::size_t chunk = 0;
    std::size_t offset = 0;
    std::size_t live = 0;
  };
  Marker mark() const { return {chunk_, offset_, live_}; }
  void release(const Marker& m);

  /// Peak concurrently-live bytes over the arena's lifetime.
  std::size_t high_water() const { return high_water_; }
  /// Number of chunk allocations taken from the heap (growth events).
  std::uint64_t chunk_mallocs() const { return chunk_mallocs_; }
  /// Total bytes owned across all chunks.
  std::size_t capacity() const;

 private:
  struct Chunk {
    char* data = nullptr;
    std::size_t size = 0;
  };

  void grow(std::size_t need);

  std::vector<Chunk> chunks_;
  std::size_t chunk_ = 0;   // index of the chunk being bumped
  std::size_t offset_ = 0;  // bump offset within chunks_[chunk_]
  std::size_t live_ = 0;    // bytes allocated since creation minus releases
  std::size_t high_water_ = 0;
  std::uint64_t chunk_mallocs_ = 0;
  std::size_t min_chunk_;
};

/// The calling thread's arena (created on first use, destroyed at thread
/// exit; its stats are folded into the process-wide aggregate first).
Arena& thread_arena();

/// Process-wide aggregate over every thread arena, alive or retired.
/// `high_water` is the max peak seen on any single arena; the counters are
/// sums. Snapshots are cheap and safe to take from any thread, but they are
/// only exact while other threads' arenas are quiescent (tests and the
/// metrics export read them between runs).
struct ArenaStats {
  std::uint64_t chunk_mallocs = 0;  ///< heap allocations for chunk growth
  std::uint64_t chunk_bytes = 0;    ///< bytes currently owned by arenas
  std::uint64_t high_water = 0;     ///< peak live bytes of the busiest arena
};
ArenaStats arena_stats();

/// RAII scope on the calling thread's arena: everything allocated between
/// construction and destruction is released at once.
class ArenaScope {
 public:
  ArenaScope() : arena_(thread_arena()), mark_(arena_.mark()) {}
  ~ArenaScope() { arena_.release(mark_); }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  Arena& arena() { return arena_; }

 private:
  Arena& arena_;
  Arena::Marker mark_;
};

/// std::allocator adapter over the calling thread's arena (deallocate is a
/// no-op; memory is reclaimed by the enclosing ArenaScope). Containers using
/// it must not outlive that scope and must not be moved across threads.
template <typename T>
class ArenaAlloc {
 public:
  using value_type = T;

  ArenaAlloc() noexcept : arena_(&thread_arena()) {}
  template <typename U>
  ArenaAlloc(const ArenaAlloc<U>& o) noexcept : arena_(o.arena_) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, std::size_t) noexcept {}

  template <typename U>
  bool operator==(const ArenaAlloc<U>& o) const noexcept {
    return arena_ == o.arena_;
  }

  Arena* arena_;
};

/// Scratch vector living on the calling thread's arena.
template <typename T>
using ArenaVector = std::vector<T, ArenaAlloc<T>>;

}  // namespace chc::common
