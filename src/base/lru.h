// LruCache: a size- and byte-bounded least-recently-used map.
//
// The storage lifecycle refactor bounds every cache that used to grow
// without limit (the per-component verdict cache in engine/incremental.h,
// the per-query solver map in api/service.h) with this one policy: each
// entry carries a caller-supplied byte estimate, Find refreshes recency,
// and Insert evicts from the cold end until both configured caps hold.
// Hit/miss/eviction counters feed Service::Stats().
//
// Not internally synchronized: callers that share a cache across threads
// wrap it in their own mutex (engine/incremental.h guards its history
// cache with the solver lock).

#ifndef CQA_BASE_LRU_H_
#define CQA_BASE_LRU_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

namespace cqa {

/// Caps for one LruCache. A zero cap means "unbounded" on that axis; the
/// default is fully unbounded so plain map semantics are opt-out.
struct CacheOptions {
  std::size_t max_entries = 0;  ///< 0 = no entry-count bound.
  std::size_t max_bytes = 0;    ///< 0 = no byte bound.
};

/// Point-in-time counters of one LruCache (or a sum over caches).
struct CacheCounters {
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  CacheCounters& operator+=(const CacheCounters& o) {
    entries += o.entries;
    bytes += o.bytes;
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    return *this;
  }
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  explicit LruCache(CacheOptions options = {}) : options_(options) {}

  /// Looks up `key`, refreshing its recency; counts a hit or a miss when
  /// `count` (callers re-probing under a fill lock pass false so one
  /// logical lookup is counted once). The returned pointer is valid until
  /// the next Insert (which may evict the entry) — copy out anything that
  /// must outlive further cache traffic.
  Value* Find(const Key& key, bool count = true) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      if (count) ++misses_;
      return nullptr;
    }
    if (count) ++hits_;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->value;
  }

  /// Records the outcome of a lookup the caller probed with count=false
  /// — for callers whose usability of a found value depends on more than
  /// presence (a present-but-unusable value is a miss to them).
  void CountLookup(bool hit) { hit ? ++hits_ : ++misses_; }

  /// Inserts (or overwrites) `key`, making it most-recent, then evicts
  /// cold entries until both caps hold (the fresh entry itself is never
  /// evicted, so a single oversized value still caches). Returns how many
  /// entries were evicted.
  std::size_t Insert(Key key, Value value, std::size_t value_bytes = 1) {
    return InsertWithEvictions(std::move(key), std::move(value), value_bytes,
                               [](const Key&, const Value&) {});
  }

  /// Insert variant for caches whose values carry state the owner must
  /// salvage before it is dropped (e.g. cumulative counters of an evicted
  /// warm solver): `on_evict(key, value)` runs for every entry evicted by
  /// this insertion, before the entry is destroyed.
  template <typename EvictFn>
  std::size_t InsertWithEvictions(Key key, Value value,
                                  std::size_t value_bytes, EvictFn on_evict) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      bytes_ -= it->second->bytes;
      it->second->value = std::move(value);
      it->second->bytes = value_bytes;
      bytes_ += value_bytes;
      order_.splice(order_.begin(), order_, it->second);
      return EvictOverCaps(on_evict);
    }
    order_.push_front(Entry{key, std::move(value), value_bytes});
    index_.emplace(std::move(key), order_.begin());
    bytes_ += value_bytes;
    return EvictOverCaps(on_evict);
  }

  /// Visits every entry, most-recent first, as fn(key, value).
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Entry& e : order_) fn(e.key, e.value);
  }

  std::size_t size() const { return order_.size(); }
  std::size_t bytes() const { return bytes_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  const CacheOptions& options() const { return options_; }

  CacheCounters Counters() const {
    CacheCounters c;
    c.entries = order_.size();
    c.bytes = bytes_;
    c.hits = hits_;
    c.misses = misses_;
    c.evictions = evictions_;
    return c;
  }

  /// Deep self-check for the invariant auditor (data/audit.h): reports
  /// each broken invariant as fn(message). Checks index<->list agreement
  /// (every list entry indexed, every index entry pointing back at a node
  /// holding its key), the byte ledger against a fresh sum, and the caps
  /// (EvictOverCaps always keeps at least one entry, so an oversized
  /// singleton is compliant). Returns the number of violations reported.
  template <typename Fn>
  std::size_t AuditInvariants(Fn fn) const {
    std::size_t violations = 0;
    if (index_.size() != order_.size()) {
      fn("index has " + std::to_string(index_.size()) +
         " entries, recency list has " + std::to_string(order_.size()));
      ++violations;
    }
    std::size_t summed_bytes = 0;
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      summed_bytes += it->bytes;
      auto idx = index_.find(it->key);
      if (idx == index_.end()) {
        fn("list entry missing from the index");
        ++violations;
      } else if (idx->second != it) {
        fn("index entry points at a different list node than its key's");
        ++violations;
      }
    }
    if (summed_bytes != bytes_) {
      fn("byte ledger holds " + std::to_string(bytes_) +
         ", entries sum to " + std::to_string(summed_bytes));
      ++violations;
    }
    if (order_.size() > 1 && OverCaps()) {
      fn("cache exceeds its caps with more than one entry resident");
      ++violations;
    }
    return violations;
  }

 private:
  struct Entry {
    Key key;
    Value value;
    std::size_t bytes = 0;
  };

  bool OverCaps() const {
    return (options_.max_entries != 0 && order_.size() > options_.max_entries) ||
           (options_.max_bytes != 0 && bytes_ > options_.max_bytes);
  }

  template <typename EvictFn>
  std::size_t EvictOverCaps(EvictFn on_evict) {
    std::size_t evicted = 0;
    while (order_.size() > 1 && OverCaps()) {
      const Entry& cold = order_.back();
      on_evict(cold.key, cold.value);
      bytes_ -= cold.bytes;
      index_.erase(cold.key);
      order_.pop_back();
      ++evicted;
      ++evictions_;
    }
    return evicted;
  }

  CacheOptions options_;
  std::list<Entry> order_;  ///< Front = most recent.
  std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> index_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace cqa

#endif  // CQA_BASE_LRU_H_
