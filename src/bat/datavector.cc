#include "bat/datavector.h"

#include <cstdio>
#include <cstdlib>

namespace moaflat::bat {

Datavector::Datavector(ColumnPtr extent, ColumnPtr values,
                       std::shared_ptr<DvLookupCache> cache)
    : extent_(std::move(extent)),
      values_(std::move(values)),
      cache_(cache ? std::move(cache) : std::make_shared<DvLookupCache>()) {
  // The extent is sorted and duplicate-free, so it is dense iff its span
  // equals its length.
  const size_t n = extent_->size();
  if (n > 0 && extent_->OidAt(n - 1) - extent_->OidAt(0) != n - 1) {
    std::fprintf(stderr, "[moaflat] datavector extent is not dense\n");
    std::abort();
  }
}

}  // namespace moaflat::bat
