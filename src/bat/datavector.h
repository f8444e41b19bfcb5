#ifndef MOAFLAT_BAT_DATAVECTOR_H_
#define MOAFLAT_BAT_DATAVECTOR_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bat/column.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace moaflat::bat {

/// The datavector search accelerator of Section 5.2.
///
/// An attribute BAT [oid,value] is kept sorted on *tail* (value) so that
/// selections can binary-search; the opposite direction — fetching values
/// for a set of selected oids — is served by this accelerator: the class
/// extent (all oids, sorted) plus the attribute values re-ordered
/// positionally by oid ("one vector of oids and n vectors with attribute
/// values, all stored in oid order", Fig. 7). The extent column is shared
/// by all attributes of a class, which is what makes results of several
/// datavector semijoins mutually synced.
///
/// The LOOKUP position cache of the Section 5.2.1 pseudo-code lives here:
/// the first semijoin against a given selection probes the extent and
/// memoizes the hit positions; subsequent semijoins with the same right
/// operand reuse them ("has already blazed the trail into the extent",
/// Fig. 10 commentary). The cache is shared by all datavectors of one class
/// (they index into the same extent, so positions computed for a right
/// operand by one attribute's semijoin are valid for every attribute).
/// Thread-safe: concurrent queries of separate ExecContexts share the base
/// BATs and therefore this cache; a mutex guards the (rare) misses and the
/// cheap lookups alike.
class DvLookupCache {
 public:
  std::shared_ptr<const std::vector<uint32_t>> Find(uint64_t key) const
      MOAFLAT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    auto it = cache_.find(key);
    return it == cache_.end() ? nullptr : it->second;
  }
  void Store(uint64_t key,
             std::shared_ptr<const std::vector<uint32_t>> positions)
      MOAFLAT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    cache_[key] = std::move(positions);
  }

 private:
  mutable Mutex mu_{LockRank::kLookupCache, "dv.lookup_cache"};
  std::unordered_map<uint64_t, std::shared_ptr<const std::vector<uint32_t>>>
      cache_ MOAFLAT_GUARDED_BY(mu_);
};

class Datavector {
 public:
  /// `extent`: the class's oids as the dense run base, base+1, ...,
  /// base+n-1 (every extent the loader builds); `values`: the attribute
  /// value for extent[i] at position i; `cache`: the per-class shared
  /// LOOKUP cache (a private one is created if omitted). Aborts if the
  /// extent is not dense — MapPositions relies on it.
  Datavector(ColumnPtr extent, ColumnPtr values,
             std::shared_ptr<DvLookupCache> cache = nullptr);

  const ColumnPtr& extent() const { return extent_; }
  const ColumnPtr& values() const { return values_; }

  /// The extent probe: maps oids[i] for i in [begin, end) to extent
  /// positions, calling hit(i, pos) for an oid in the extent and miss(i)
  /// otherwise — the offset from extent[0], one subtraction per oid. No
  /// page is touched: callers charge what they then read (the semijoin's
  /// probe charges one extent slot per hit, the "+1 extent lookup" page of
  /// E_dv, Section 5.2.2). `oids` must be an oid or void column.
  template <typename Hit, typename Miss>
  void MapPositions(const Column& oids, size_t begin, size_t end, Hit&& hit,
                    Miss&& miss) const {
    const uint64_t n = extent_->size();
    const Oid base = n > 0 ? extent_->OidAt(0) : 0;
    auto run = [&](auto oid_at) {
      for (size_t i = begin; i < end; ++i) {
        const uint64_t pos = oid_at(i) - base;  // below base wraps high
        if (pos < n) {
          hit(i, static_cast<uint32_t>(pos));
        } else {
          miss(i);
        }
      }
    };
    if (oids.is_void()) {
      run([vb = oids.void_base()](size_t i) { return vb + i; });
    } else {
      run([p = oids.Span<Oid>().data()](size_t i) { return p[i]; });
    }
  }

  /// Cached LOOKUP array for a right operand identified by `key` (the heap
  /// id of its head column — columns are immutable, so the id identifies
  /// the value set). Null if this right operand was never looked up by any
  /// datavector of the class.
  std::shared_ptr<const std::vector<uint32_t>> CachedLookup(
      uint64_t key) const {
    return cache_->Find(key);
  }

  void StoreLookup(uint64_t key,
                   std::shared_ptr<const std::vector<uint32_t>> positions) {
    cache_->Store(key, std::move(positions));
  }

  const std::shared_ptr<DvLookupCache>& lookup_cache() const {
    return cache_;
  }

 private:
  ColumnPtr extent_;
  ColumnPtr values_;
  std::shared_ptr<DvLookupCache> cache_;
};

}  // namespace moaflat::bat

#endif  // MOAFLAT_BAT_DATAVECTOR_H_
