#ifndef MOAFLAT_TESTS_FORCE_FANOUT_H_
#define MOAFLAT_TESTS_FORCE_FANOUT_H_

#include "common/parallel.h"

namespace moaflat {

/// The hardware block cap would fold a multi-block plan down to the
/// machine's core count (a single block on a 1-core box), silently skipping
/// the sharded and shard-merge paths a test means to exercise. This guard
/// forces full fan-out for its lifetime.
struct ForceFanout {
  ForceFanout() { SetParallelBlockCap(kMaxParallelDegree); }
  ~ForceFanout() { SetParallelBlockCap(0); }
  ForceFanout(const ForceFanout&) = delete;
  ForceFanout& operator=(const ForceFanout&) = delete;
};

}  // namespace moaflat

#endif  // MOAFLAT_TESTS_FORCE_FANOUT_H_
