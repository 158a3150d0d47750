#include "geometry/intern.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <deque>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "geometry/combine2d.hpp"
#include "geometry/ops.hpp"

namespace chc::geo {
namespace {

constexpr std::size_t kDefaultInternCap = 4096;

/// Process-wide totals; plain atomics so the global intern table and every
/// ComboCache (including thread-local ones) account into one struct.
struct AtomicStats {
  std::atomic<std::uint64_t> intern_hits{0};
  std::atomic<std::uint64_t> intern_misses{0};
  std::atomic<std::uint64_t> intern_evictions{0};
  std::atomic<std::uint64_t> combo_hits{0};
  std::atomic<std::uint64_t> combo_misses{0};
  std::atomic<std::uint64_t> combo_delta_hits{0};
  std::atomic<std::uint64_t> combo_delta_misses{0};

  void reset() {
    intern_hits = 0;
    intern_misses = 0;
    intern_evictions = 0;
    combo_hits = 0;
    combo_misses = 0;
    combo_delta_hits = 0;
    combo_delta_misses = 0;
  }
};

AtomicStats& stats() {
  static AtomicStats s;
  return s;
}

/// FNV-1a over the polytope's exact content (dimension + vertex bits).
std::uint64_t content_hash(const Polytope& p) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(p.ambient_dim());
  mix(p.vertices().size());
  for (const Vec& v : p.vertices()) {
    for (double c : v) mix(std::bit_cast<std::uint64_t>(c));
  }
  return h;
}

bool same_value(const Polytope& a, const Polytope& b) {
  if (a.ambient_dim() != b.ambient_dim()) return false;
  if (a.vertices().size() != b.vertices().size()) return false;
  for (std::size_t i = 0; i < a.vertices().size(); ++i) {
    if (!(a.vertices()[i] == b.vertices()[i])) return false;
  }
  return true;
}

/// The shared intern table: weak entries (the table never keeps a polytope
/// alive) in an LRU order capped at `cap` — recently interned values stay
/// dedupable, old ones (and their control blocks) are let go.
struct InternTable {
  using LruList = std::list<std::pair<std::uint64_t, const Polytope*>>;

  struct Entry {
    std::weak_ptr<const Polytope> wp;
    const Polytope* key = nullptr;  ///< identity for LRU bookkeeping only
    LruList::iterator lru;
  };

  std::mutex mu;
  std::unordered_map<std::uint64_t, std::vector<Entry>> table;
  LruList lru;  ///< front = eviction victim, back = most recent
  std::size_t entries = 0;
  std::size_t cap = kDefaultInternCap;

  /// Drops the table entry for (hash, key). Caller holds mu.
  void erase_entry(std::uint64_t hash, const Polytope* key) {
    auto it = table.find(hash);
    if (it == table.end()) return;
    auto& bucket = it->second;
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      if (bucket[i].key == key) {
        lru.erase(bucket[i].lru);
        bucket.erase(bucket.begin() + static_cast<std::ptrdiff_t>(i));
        --entries;
        break;
      }
    }
    if (bucket.empty()) table.erase(it);
  }

  /// Evicts LRU victims until entries <= cap. Caller holds mu.
  void enforce_cap() {
    while (entries > cap && !lru.empty()) {
      const auto [h, key] = lru.front();
      erase_entry(h, key);
      stats().intern_evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }
};

InternTable& intern_table() {
  static InternTable t;
  return t;
}

struct ComboKey {
  std::vector<PolytopeHandle> ops;  // sorted by pointer; keeps operands alive
  double rel_tol = 0.0;

  bool operator==(const ComboKey& o) const {
    if (rel_tol != o.rel_tol || ops.size() != o.ops.size()) return false;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].get() != o.ops[i].get()) return false;
    }
    return true;
  }
};

std::uint64_t combo_hash(const ComboKey& k) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(std::bit_cast<std::uint64_t>(k.rel_tol));
  for (const auto& p : k.ops) {
    mix(reinterpret_cast<std::uintptr_t>(p.get()));
  }
  return h;
}

thread_local ComboCache* tls_combo_cache = nullptr;

}  // namespace

struct ComboCache::Impl {
  /// One cached operand edge fan (combine2d.hpp), keyed on the interned
  /// handle identity and the exact weight bits. The keepalive handle pins
  /// the pointee so a recycled allocation can never alias a stale key.
  struct FanEntry {
    PolytopeHandle keepalive;
    std::shared_ptr<const OperandEdges> fan;
  };
  struct FanKey {
    const Polytope* poly = nullptr;
    std::uint64_t weight_bits = 0;
    bool operator==(const FanKey&) const = default;
  };
  struct FanKeyHash {
    std::size_t operator()(const FanKey& k) const {
      std::uint64_t h = reinterpret_cast<std::uintptr_t>(k.poly);
      h ^= k.weight_bits + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };

  /// A recently assembled merged edge sequence. Round r+1 usually differs
  /// from round r by one or two operands (a crash, a recovered straggler),
  /// so a new combination first looks for a recent sequence over a nearly
  /// identical operand multiset and patches it — O(E) — instead of
  /// re-merging all k fans — O(k·E). The handles pin every tagged owner
  /// pointer alive.
  struct SeqEntry {
    std::vector<PolytopeHandle> ops_sorted;  ///< pointer-sorted multiset
    std::uint64_t weight_bits = 0;
    std::shared_ptr<const std::vector<TaggedEdge>> merged;
    /// Each operand's fan start vertex, aligned with ops_sorted. Surviving
    /// operands need only this (their edges ride along inside `merged`), so
    /// a patch round touches the fan cache for arrivals alone.
    std::vector<double> start_x, start_y;
  };
  /// A usable neighbor found by seq_match: patch instructions relative to
  /// the current operand multiset.
  struct SeqMatch {
    std::shared_ptr<const std::vector<TaggedEdge>> merged;
    std::vector<const void*> removed;      ///< strip ALL edges of these
    std::vector<const Polytope*> added;    ///< re-merge one fan per entry
    /// Aligned with the CURRENT sorted operand list: has_start[p] marks a
    /// survivor whose edges remain in `merged`; its fan start is
    /// (start_x[p], start_y[p]), bitwise the start a fan rebuild would
    /// yield. Positions with has_start[p] == 0 are the `added` entries and
    /// still need their full fan.
    std::vector<double> start_x, start_y;
    std::vector<char> has_start;
  };

  mutable std::mutex mu;
  std::size_t cap;
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<ComboKey, PolytopeHandle>>>
      combos;
  std::deque<std::uint64_t> order;  // insertion order for eviction
  std::size_t entries = 0;
  std::unordered_map<FanKey, FanEntry, FanKeyHash> fans;
  std::deque<FanKey> fan_order;  // insertion order for eviction
  std::deque<SeqEntry> recent_seqs;  // newest first; bounded
  static constexpr std::size_t kRecentSeqs = 16;

  explicit Impl(std::size_t capacity) : cap(capacity == 0 ? 1 : capacity) {}

  std::shared_ptr<const OperandEdges> fan_lookup(const FanKey& key) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = fans.find(key);
    return it == fans.end() ? nullptr : it->second.fan;
  }

  /// One-lock lookup of a whole round's fans; `out` is aligned with `keys`
  /// (nullptr for misses).
  void fan_lookup_batch(const std::vector<FanKey>& keys,
                        std::vector<std::shared_ptr<const OperandEdges>>* out) {
    out->assign(keys.size(), nullptr);
    std::lock_guard<std::mutex> lock(mu);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      auto it = fans.find(keys[i]);
      if (it != fans.end()) (*out)[i] = it->second.fan;
    }
  }

  void fan_insert(const FanKey& key, FanEntry entry) {
    std::lock_guard<std::mutex> lock(mu);
    if (!fans.emplace(key, std::move(entry)).second) return;  // lost a race
    fan_order.push_back(key);
    // Fans are per-operand (small), so they get a larger bound than the
    // per-round combination entries sharing this cache.
    while (fan_order.size() > cap * 8) {
      fans.erase(fan_order.front());
      fan_order.pop_front();
    }
  }

  /// Finds the newest recent sequence whose operand multiset is within a
  /// half-round of `ops` (pointer-sorted, same weight) and emits patch
  /// instructions. An operand whose multiplicity dropped must have ALL its
  /// edges stripped (edges are tagged by owner, not by occurrence), so it
  /// contributes its surviving count to `added` again.
  bool seq_match(const std::vector<PolytopeHandle>& ops,
                 std::uint64_t weight_bits, SeqMatch* out) {
    std::lock_guard<std::mutex> lock(mu);
    for (const SeqEntry& entry : recent_seqs) {
      if (entry.weight_bits != weight_bits ||
          entry.ops_sorted.size() != ops.size()) {
        continue;
      }
      std::vector<const void*> removed;
      std::vector<const Polytope*> added;
      std::vector<double> sx(ops.size(), 0.0), sy(ops.size(), 0.0);
      std::vector<char> has(ops.size(), 0);
      std::size_t changed = 0;
      std::size_t i = 0, j = 0;
      const auto& prev = entry.ops_sorted;
      while (i < prev.size() || j < ops.size()) {
        const Polytope* a = i < prev.size() ? prev[i].get() : nullptr;
        const Polytope* b = j < ops.size() ? ops[j].get() : nullptr;
        if (a == b) {  // same handle: compare multiplicities in one run
          const std::size_t i0 = i, j0 = j;
          std::size_t ca = 0, cb = 0;
          while (i < prev.size() && prev[i].get() == a) ++i, ++ca;
          while (j < ops.size() && ops[j].get() == a) ++j, ++cb;
          if (ca > cb) {  // shrank: strip all, re-add the survivors
            removed.push_back(a);
            for (std::size_t c = 0; c < cb; ++c) added.push_back(a);
            changed += ca - cb;
          } else {  // grew or unchanged: the first ca occurrences survive
            for (std::size_t c = 0; c < ca; ++c) {
              sx[j0 + c] = entry.start_x[i0 + c];
              sy[j0 + c] = entry.start_y[i0 + c];
              has[j0 + c] = 1;
            }
            for (std::size_t c = ca; c < cb; ++c) added.push_back(a);
            changed += cb - ca;
          }
        } else if (b == nullptr || (a != nullptr && a < b)) {
          std::size_t ca = 0;
          while (i < prev.size() && prev[i].get() == a) ++i, ++ca;
          removed.push_back(a);
          changed += ca;
        } else {
          std::size_t cb = 0;
          while (j < ops.size() && ops[j].get() == b) ++j, ++cb;
          for (std::size_t c = 0; c < cb; ++c) added.push_back(b);
          changed += cb;
        }
      }
      // Patching pays O(E + added); only worth it when most fans survive.
      if (changed * 2 > ops.size()) continue;
      out->merged = entry.merged;
      out->removed = std::move(removed);
      out->added = std::move(added);
      out->start_x = std::move(sx);
      out->start_y = std::move(sy);
      out->has_start = std::move(has);
      return true;
    }
    return false;
  }

  void seq_push(std::vector<PolytopeHandle> ops_sorted,
                std::uint64_t weight_bits,
                std::shared_ptr<const std::vector<TaggedEdge>> merged,
                std::vector<double> start_x, std::vector<double> start_y) {
    std::lock_guard<std::mutex> lock(mu);
    recent_seqs.push_front(SeqEntry{std::move(ops_sorted), weight_bits,
                                    std::move(merged), std::move(start_x),
                                    std::move(start_y)});
    while (recent_seqs.size() > kRecentSeqs) recent_seqs.pop_back();
  }

  bool lookup(const ComboKey& key, std::uint64_t h, PolytopeHandle& out) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = combos.find(h);
    if (it != combos.end()) {
      for (const auto& [k, v] : it->second) {
        if (k == key) {
          out = v;
          return true;
        }
      }
    }
    return false;
  }

  void insert(ComboKey key, std::uint64_t h, PolytopeHandle value) {
    std::lock_guard<std::mutex> lock(mu);
    combos[h].emplace_back(std::move(key), std::move(value));
    order.push_back(h);
    ++entries;
    while (entries > cap && !order.empty()) {
      const std::uint64_t victim = order.front();
      order.pop_front();
      auto it = combos.find(victim);
      if (it != combos.end() && !it->second.empty()) {
        it->second.erase(it->second.begin());
        if (it->second.empty()) combos.erase(it);
        --entries;
      }
    }
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu);
    combos.clear();
    order.clear();
    entries = 0;
    fans.clear();
    fan_order.clear();
    recent_seqs.clear();
  }
};

ComboCache::ComboCache(std::size_t capacity)
    : impl_(std::make_unique<Impl>(capacity)) {}

ComboCache::~ComboCache() = default;

std::size_t ComboCache::size() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->entries;
}

void ComboCache::clear() { impl_->clear(); }

ComboCache* set_thread_combo_cache(ComboCache* cache) {
  ComboCache* prev = tls_combo_cache;
  tls_combo_cache = cache;
  return prev;
}

namespace {

ComboCache& global_combo_cache() {
  static ComboCache c;
  return c;
}

ComboCache& current_combo_cache() {
  return tls_combo_cache != nullptr ? *tls_combo_cache : global_combo_cache();
}

}  // namespace

PolytopeHandle intern(Polytope p) {
  const std::uint64_t h = content_hash(p);
  InternTable& t = intern_table();
  std::lock_guard<std::mutex> lock(t.mu);
  auto& bucket = t.table[h];
  // Prune expired entries while scanning for a live match.
  PolytopeHandle found;
  const Polytope* found_key = nullptr;
  for (std::size_t i = 0; i < bucket.size();) {
    if (PolytopeHandle sp = bucket[i].wp.lock()) {
      if (found == nullptr && same_value(*sp, p)) {
        found = std::move(sp);
        found_key = bucket[i].key;
      }
      ++i;
    } else {
      t.lru.erase(bucket[i].lru);
      bucket.erase(bucket.begin() + static_cast<std::ptrdiff_t>(i));
      --t.entries;
    }
  }
  if (found != nullptr) {
    // Touch: the matched entry becomes most-recently-used.
    for (auto& e : bucket) {
      if (e.key == found_key) {
        t.lru.splice(t.lru.end(), t.lru, e.lru);
        break;
      }
    }
    stats().intern_hits.fetch_add(1, std::memory_order_relaxed);
    return found;
  }
  stats().intern_misses.fetch_add(1, std::memory_order_relaxed);
  auto sp = std::make_shared<const Polytope>(std::move(p));
  InternTable::Entry e;
  e.wp = sp;
  e.key = sp.get();
  e.lru = t.lru.insert(t.lru.end(), {h, sp.get()});
  bucket.push_back(std::move(e));
  ++t.entries;
  t.enforce_cap();
  return sp;
}

PolytopeHandle equal_weight_combination_interned(
    const std::vector<PolytopeHandle>& polys, double rel_tol) {
  ComboKey key;
  key.ops = polys;
  key.rel_tol = rel_tol;
  std::sort(key.ops.begin(), key.ops.end(),
            [](const PolytopeHandle& a, const PolytopeHandle& b) {
              return a.get() < b.get();
            });
  const std::uint64_t h = combo_hash(key);

  ComboCache& cache = current_combo_cache();
  PolytopeHandle cached;
  if (cache.impl_->lookup(key, h, cached)) {
    stats().combo_hits.fetch_add(1, std::memory_order_relaxed);
    return cached;
  }
  stats().combo_misses.fetch_add(1, std::memory_order_relaxed);

  // Compute outside the cache lock: the combination is the expensive part
  // and two concurrent misses at worst duplicate work, never corrupt state.
  PolytopeHandle result;
  bool planar = true;
  for (const auto& p : polys) {
    if (p->is_empty() || p->ambient_dim() != 2) {
      planar = false;
      break;
    }
  }
  if (planar) {
    // Incremental d = 2 path. A recent round over a near-identical operand
    // multiset lets this round patch that round's merged sequence (strip
    // departed owners, two-way merge arrivals) instead of k-way merging
    // every fan — and a survivor's edges ride along inside the sequence, so
    // only its fan START VERTEX (carried by the sequence entry) is needed;
    // the fan cache is touched for arrivals alone. The patched sequence is
    // a sorted arrangement of exactly the multiset a full merge would sort,
    // under a comparator whose ties are bitwise-equal edges, and both paths
    // sum the start vertex in caller (operand) order over bit-identical fan
    // starts, so full and incremental L agree bit-for-bit.
    const double w = 1.0 / static_cast<double>(polys.size());
    const std::uint64_t w_bits = std::bit_cast<std::uint64_t>(w);
    const std::size_t k = polys.size();

    // Sorted position of each caller index; duplicate operands consume
    // successive slots of their run in the pointer-sorted key.
    std::vector<std::uint32_t> pos(k);
    for (std::size_t i = 0; i < k; ++i) {
      const Polytope* p = polys[i].get();
      const auto it = std::lower_bound(
          key.ops.begin(), key.ops.end(), p,
          [](const PolytopeHandle& h, const Polytope* q) {
            return h.get() < q;
          });
      std::size_t off = 0;
      for (std::size_t j = 0; j < i; ++j) {
        if (polys[j].get() == p) ++off;
      }
      pos[i] = static_cast<std::uint32_t>(
          static_cast<std::size_t>(it - key.ops.begin()) + off);
    }

    std::uint64_t delta_hits = 0, delta_misses = 0;
    std::vector<double> sx(k, 0.0), sy(k, 0.0);  // fan starts, caller order
    std::vector<TaggedEdge> seq;
    ComboCache::Impl::SeqMatch match;
    if (cache.impl_->seq_match(key.ops, w_bits, &match)) {
      // Arrivals (and re-added shrunk occurrences) still need full fans;
      // survivors just copy their carried start.
      std::vector<std::shared_ptr<const OperandEdges>> arrival(k);
      for (std::size_t i = 0; i < k; ++i) {
        const std::uint32_t p = pos[i];
        if (match.has_start[p] != 0) {
          sx[i] = match.start_x[p];
          sy[i] = match.start_y[p];
          ++delta_hits;
          continue;
        }
        // A duplicate operand earlier in this round already built the fan.
        bool reused = false;
        for (std::size_t j = 0; j < i && !reused; ++j) {
          if (polys[j].get() == polys[i].get() && arrival[j] != nullptr) {
            arrival[i] = arrival[j];
            ++delta_hits;
            reused = true;
          }
        }
        if (!reused) {
          const ComboCache::Impl::FanKey fk{polys[i].get(), w_bits};
          arrival[i] = cache.impl_->fan_lookup(fk);
          if (arrival[i] != nullptr) {
            ++delta_hits;
          } else {
            arrival[i] = std::make_shared<const OperandEdges>(
                build_operand_edges(*polys[i], w));
            cache.impl_->fan_insert(fk, {polys[i], arrival[i]});
            ++delta_misses;
          }
        }
        sx[i] = arrival[i]->start_x;
        sy[i] = arrival[i]->start_y;
      }
      std::vector<const OperandEdges*> added_fans;
      std::vector<const void*> added_owners;
      added_fans.reserve(match.added.size());
      added_owners.reserve(match.added.size());
      for (const Polytope* a : match.added) {
        for (std::size_t i = 0; i < k; ++i) {
          if (polys[i].get() == a && arrival[i] != nullptr) {
            added_fans.push_back(arrival[i].get());
            added_owners.push_back(a);
            break;
          }
        }
      }
      seq = patch_merged(*match.merged, match.removed, added_fans,
                         added_owners);
    } else {
      // Full merge: every operand needs its fan. A cached fan is
      // bit-identical to a rebuilt one (build_operand_edges is a pure
      // function of handle value and weight).
      std::vector<ComboCache::Impl::FanKey> fkeys;
      fkeys.reserve(k);
      for (const auto& p : polys) fkeys.push_back({p.get(), w_bits});
      std::vector<std::shared_ptr<const OperandEdges>> fans;
      cache.impl_->fan_lookup_batch(fkeys, &fans);
      for (std::size_t i = 0; i < k; ++i) {
        if (fans[i] != nullptr) {
          ++delta_hits;
        } else {
          // A duplicate operand earlier in this round already built it.
          bool reused = false;
          for (std::size_t j = 0; j < i && !reused; ++j) {
            if (fkeys[j] == fkeys[i] && fans[j] != nullptr) {
              fans[i] = fans[j];
              ++delta_hits;
              reused = true;
            }
          }
          if (!reused) {
            fans[i] = std::make_shared<const OperandEdges>(
                build_operand_edges(*polys[i], w));
            cache.impl_->fan_insert(fkeys[i], {polys[i], fans[i]});
            ++delta_misses;
          }
        }
        sx[i] = fans[i]->start_x;
        sy[i] = fans[i]->start_y;
      }
      std::vector<const OperandEdges*> ptrs;
      ptrs.reserve(k);
      for (const auto& f : fans) ptrs.push_back(f.get());
      std::vector<const void*> owners;
      owners.reserve(k);
      for (const auto& p : polys) owners.push_back(p.get());
      seq = merge_fans(ptrs, &owners);
    }
    stats().combo_delta_hits.fetch_add(delta_hits, std::memory_order_relaxed);
    stats().combo_delta_misses.fetch_add(delta_misses,
                                         std::memory_order_relaxed);

    double start_x = 0.0, start_y = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      start_x += sx[i];
      start_y += sy[i];
    }
    result = intern(emit_walk(start_x, start_y, seq, rel_tol));

    // Carry each operand's start into the sequence entry, sorted-aligned,
    // so next round's survivors skip the fan cache.
    std::vector<double> psx(k, 0.0), psy(k, 0.0);
    for (std::size_t i = 0; i < k; ++i) {
      psx[pos[i]] = sx[i];
      psy[pos[i]] = sy[i];
    }
    cache.impl_->seq_push(
        key.ops, w_bits,
        std::make_shared<const std::vector<TaggedEdge>>(std::move(seq)),
        std::move(psx), std::move(psy));
  } else {
    std::vector<Polytope> ops;
    ops.reserve(polys.size());
    for (const auto& p : polys) ops.push_back(*p);
    result = intern(equal_weight_combination(ops, rel_tol));
  }

  cache.impl_->insert(std::move(key), h, result);
  return result;
}

InternStats intern_stats() {
  const AtomicStats& s = stats();
  InternStats out;
  out.intern_hits = s.intern_hits.load(std::memory_order_relaxed);
  out.intern_misses = s.intern_misses.load(std::memory_order_relaxed);
  out.intern_evictions = s.intern_evictions.load(std::memory_order_relaxed);
  out.combo_hits = s.combo_hits.load(std::memory_order_relaxed);
  out.combo_misses = s.combo_misses.load(std::memory_order_relaxed);
  out.combo_delta_hits =
      s.combo_delta_hits.load(std::memory_order_relaxed);
  out.combo_delta_misses =
      s.combo_delta_misses.load(std::memory_order_relaxed);
  return out;
}

std::size_t intern_table_size() {
  InternTable& t = intern_table();
  std::lock_guard<std::mutex> lock(t.mu);
  return t.entries;
}

std::size_t intern_capacity() {
  InternTable& t = intern_table();
  std::lock_guard<std::mutex> lock(t.mu);
  return t.cap;
}

void set_intern_capacity(std::size_t cap) {
  InternTable& t = intern_table();
  std::lock_guard<std::mutex> lock(t.mu);
  t.cap = cap == 0 ? kDefaultInternCap : cap;
  t.enforce_cap();
}

void clear_intern_caches() {
  InternTable& t = intern_table();
  {
    std::lock_guard<std::mutex> lock(t.mu);
    t.table.clear();
    t.lru.clear();
    t.entries = 0;
  }
  global_combo_cache().clear();
  stats().reset();
}

}  // namespace chc::geo
