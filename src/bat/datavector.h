#ifndef MOAFLAT_BAT_DATAVECTOR_H_
#define MOAFLAT_BAT_DATAVECTOR_H_

#include <cstdint>

#include "bat/column.h"

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
/// The Section 5.2.1 pseudo-code keeps a LOOKUP array of the positions the
/// probe found. Every extent is dense, so a probe is one subtraction
/// (MapPositions) and the positions are call-local to each semijoin; the
/// accelerator holds no state beyond its two columns.
class Datavector {
 public:
  /// `extent`: the class's oids as the dense run base, base+1, ...,
  /// base+n-1 (every extent the loader builds); `values`: the attribute
  /// value for extent[i] at position i. Aborts if the extent is not
  /// dense — MapPositions relies on it.
  Datavector(ColumnPtr extent, ColumnPtr values);

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

 private:
  ColumnPtr extent_;
  ColumnPtr values_;
};

}  // namespace moaflat::bat

#endif  // MOAFLAT_BAT_DATAVECTOR_H_
