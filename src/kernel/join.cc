#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "kernel/cost_model.h"
#include "kernel/internal.h"
#include "kernel/operators.h"
#include "kernel/registry.h"
#include "storage/page_accountant.h"

namespace moaflat::kernel {
namespace {

using bat::Column;
using bat::ColumnBuilder;
using bat::ColumnPtr;
using internal::ChargeGate;
using internal::HashString;
using internal::MixSync;
using internal::SetSync;

MonetType BuilderType(const Column& c) {
  return c.type() == MonetType::kVoid ? MonetType::kOidT : c.type();
}

struct JoinOut {
  ColumnBuilder heads;
  ColumnBuilder tails;
  JoinOut(const Column& a, const Column& d)
      : heads(BuilderType(a)), tails(BuilderType(d), d.str_heap()) {}
};

bat::Properties JoinProps(const Bat& ab, const Bat& cd) {
  bat::Properties props;
  // All implementations emit in left-BUN order; right-side duplicates
  // repeat the same head value consecutively, so sortedness survives.
  props.hsorted = ab.props().hsorted;
  props.hkey = ab.props().hkey && cd.props().hkey;
  props.tsorted = false;
  props.tkey = false;
  return props;
}

/// Common epilogue of the materializing join variants.
Result<Bat> FinishJoin(const Bat& ab, const Bat& cd, ColumnPtr out_head,
                       ColumnPtr out_tail) {
  // The surviving left BUNs depend on ab's *tail* values (they matched
  // cd's head), so the tail key must feed the derivation: two left
  // operands sharing a head column but carrying different tails must not
  // forge equal sync keys.
  SetSync(out_head, MixSync(MixSync(MixSync(ab.head().sync_key(),
                                            ab.tail().sync_key()),
                                    cd.head().sync_key()),
                            HashString("join")));
  return Bat::Make(std::move(out_head), std::move(out_tail),
                   JoinProps(ab, cd));
}

/// Positional join over provably identical join columns: the result is
/// exactly [A, D]; both columns are shared, no data moves.
Result<Bat> FetchJoin(const ExecContext& ctx, const Bat& ab, const Bat& cd,
                      OpRecorder& rec) {
  // Zero-copy: nothing is materialized, so nothing is charged to the
  // budget; the result's two shared columns are what it reads.
  ab.head().TouchAll(ctx.io());
  cd.tail().TouchAll(ctx.io());
  bat::Properties props;
  props.hsorted = ab.props().hsorted;
  props.hkey = ab.props().hkey;
  props.tsorted = cd.props().tsorted;
  props.tkey = cd.props().tkey;
  MF_ASSIGN_OR_RETURN(Bat res, Bat::Make(ab.head_col(), cd.tail_col(), props));
  rec.Finish("fetch_join", res.size());
  return res;
}

Result<Bat> MergeJoin(const ExecContext& ctx, const Bat& ab, const Bat& cd,
                      OpRecorder& rec) {
  const Column& a = ab.head();
  const Column& b = ab.tail();
  const Column& c = cd.head();
  const Column& d = cd.tail();
  JoinOut out(a, d);
  ChargeGate gate(ctx, a, d);
  storage::IoStats* io = ctx.io();
  b.TouchAll(io);
  c.TouchAll(io);
  size_t i = 0, j = 0;
  const size_t n = ab.size(), m = cd.size();
  while (i < n && j < m) {
    const int cmp = b.CompareAt(i, c, j);
    if (cmp < 0) {
      ++i;
    } else if (cmp > 0) {
      ++j;
    } else {
      // Emit the full run of equal keys on the right for this left BUN.
      size_t j2 = j;
      while (j2 < m && c.EqualAt(j2, c, j)) {
        a.TouchAt(io, i);
        d.TouchAt(io, j2);
        out.heads.AppendFrom(a, i);
        out.tails.AppendFrom(d, j2);
        MF_RETURN_NOT_OK(gate.Add(1));
        ++j2;
      }
      ++i;  // the right run start stays: the next left BUN may match too
    }
  }
  MF_RETURN_NOT_OK(gate.Flush());
  MF_ASSIGN_OR_RETURN(
      Bat res, FinishJoin(ab, cd, out.heads.Finish(), out.tails.Finish()));
  rec.Finish("merge_join", res.size());
  return res;
}

/// Hash join, morsel-parallel in both phases. The build side's hash
/// accelerator is built partitioned at the context degree; probe morsels
/// collect matching (left, right) positions into cache-line-aligned
/// per-block shards (with ShardIo accountants and charge gates). The
/// shards' counts are prefix-summed and every block then scatters its
/// matches straight into the pre-sized result heaps, concurrently — the
/// emitted BUN sequence and the merged fault counts stay identical to a
/// serial probe at any degree.
Result<Bat> HashJoin(const ExecContext& ctx, const Bat& ab, const Bat& cd,
                     OpRecorder& rec) {
  const Column& a = ab.head();
  const Column& b = ab.tail();
  const Column& c = cd.head();
  const Column& d = cd.tail();
  auto hash = cd.EnsureHeadHash(ctx.parallel_degree());
  b.TouchAll(ctx.io());

  struct alignas(64) Shard {
    std::vector<uint32_t> lefts;   // matching left positions
    std::vector<uint32_t> rights;  // their right partners, in match order
    Status status = Status::OK();
  };
  const BlockPlan plan = ctx.Plan(ab.size());
  std::vector<Shard> shards(plan.blocks);
  internal::ShardIo shard_io(ctx, plan);
  RunBlocks(plan, [&](int block, size_t begin, size_t end) {
    Shard& mine = shards[block];
    storage::IoStats* io = shard_io.For(block);
    // The charge counter is shared and atomic, so concurrent shard gates
    // account exactly and an over-budget join stops all blocks early.
    // The gate is fed per match (so a high-fanout probe cannot overshoot
    // the budget by more than the gate's charge chunk) and probing stops
    // at the next chunk boundary once it trips.
    ChargeGate gate(ctx, a, d);
    size_t pending = 0;
    constexpr size_t kProbeChunk = 16 * 1024;
    for (size_t lo = begin; lo < end && mine.status.ok();
         lo += kProbeChunk) {
      const size_t hi = std::min(end, lo + kProbeChunk);
      const size_t first = mine.lefts.size();
      hash->ForEachMatchRange(b, lo, hi, [&](size_t i, uint32_t pos) {
        if (!mine.status.ok()) return;
        mine.lefts.push_back(static_cast<uint32_t>(i));
        mine.rights.push_back(pos);
        if (++pending >= internal::ChargeGate::kChunkRows) {
          mine.status = gate.Add(pending);
          pending = 0;
        }
      });
      // Each match reads c and d at its right position, a at its left.
      const uint32_t* rights = mine.rights.data() + first;
      Column::TouchGathers(io,
                           {{&c, rights},
                            {&a, mine.lefts.data() + first},
                            {&d, rights}},
                           mine.lefts.size() - first);
    }
    if (mine.status.ok()) mine.status = gate.Add(pending);
    if (mine.status.ok()) mine.status = gate.Flush();
  });
  shard_io.Merge();
  for (Shard& s : shards) {
    MF_RETURN_NOT_OK(s.status);
  }
  MF_RETURN_NOT_OK(ctx.CheckInterrupt());

  std::vector<size_t> offset(plan.blocks + 1, 0);
  for (size_t bl = 0; bl < plan.blocks; ++bl) {
    offset[bl + 1] = offset[bl] + shards[bl].lefts.size();
  }
  // The (left, right) position shards are transient working state: charge
  // them across the scatter (peak = shards + result heaps), released when
  // they die with this scope.
  internal::TransientCharge staging(ctx);
  MF_RETURN_NOT_OK(staging.Add(offset.back() * 2 * sizeof(uint32_t)));
  bat::ColumnScatter hs(a, offset.back());
  bat::ColumnScatter ts(d, offset.back());
  RunBlocks(plan, [&](int block, size_t, size_t) {
    const Shard& mine = shards[block];
    hs.Gather(mine.lefts.data(), mine.lefts.size(), offset[block]);
    ts.Gather(mine.rights.data(), mine.rights.size(), offset[block]);
  });
  MF_RETURN_NOT_OK(ctx.CheckInterrupt());
  MF_ASSIGN_OR_RETURN(Bat res, FinishJoin(ab, cd, hs.Finish(), ts.Finish()));
  rec.Finish("hash_join", res.size());
  return res;
}

/// The datavector join (Section 5.2, Fig. 7 read from the other side): CD
/// carries a datavector, so its head is the dense class extent with each
/// oid once, and the value of oid o sits at VECTOR[o - extent[0]]. Each AB
/// tail oid maps to its position by one subtraction, and a hit emits
/// (A[i], VECTOR[pos]) in left-BUN order — exactly the BUN sequence
/// hash_join emits. The join charges only what it reads: AB's tail
/// sequentially, VECTOR at the hit positions and A at the hit positions
/// (whole, on a full hit). It never reads CD or the extent. On a full hit
/// — every AB tail oid in the extent — the result head is AB's own head
/// column, shared zero-copy like fetch_join's, so the result is synced
/// with AB; a partial hit gathers A and derives FinishJoin's key.
Result<Bat> DatavectorJoin(const ExecContext& ctx, const Bat& ab,
                           const Bat& cd, OpRecorder& rec) {
  const std::shared_ptr<bat::Datavector> dv = cd.datavector();
  const Column& vector = *dv->values();
  const Column& a = ab.head();
  const Column& b = ab.tail();
  b.TouchAll(ctx.io());

  // Probe phase: a block records its left positions only from its first
  // miss on — the lefts of a block where every row hit are begin..end.
  struct alignas(64) Shard {
    std::vector<uint32_t> rights;  // VECTOR positions of the hits
    std::vector<uint32_t> lefts;   // their left positions, once `missed`
    bool missed = false;
  };
  const BlockPlan plan = ctx.Plan(ab.size());
  std::vector<Shard> shards(plan.blocks);
  RunBlocks(plan, [&](int block, size_t begin, size_t end) {
    Shard& mine = shards[block];
    mine.rights.reserve(end - begin);
    dv->MapPositions(
        b, begin, end,
        [&](size_t i, uint32_t pos) {
          mine.rights.push_back(pos);
          if (mine.missed) mine.lefts.push_back(static_cast<uint32_t>(i));
        },
        [&](size_t i) {
          if (mine.missed) return;
          mine.missed = true;
          mine.lefts.resize(i - begin);
          std::iota(mine.lefts.begin(), mine.lefts.end(),
                    static_cast<uint32_t>(begin));
        });
  });
  MF_RETURN_NOT_OK(ctx.CheckInterrupt());

  std::vector<size_t> offset(plan.blocks + 1, 0);
  bool full = true;
  for (size_t bl = 0; bl < plan.blocks; ++bl) {
    offset[bl + 1] = offset[bl] + shards[bl].rights.size();
    full = full && !shards[bl].missed;
  }
  const size_t hits = offset.back();
  // A full hit shares A, so only the gathered tail is new memory; the
  // position shards (rights, plus lefts on a partial hit) are transient.
  MF_RETURN_NOT_OK(ctx.ChargeMemory(
      hits * static_cast<uint64_t>(
                 full ? internal::ChargeWidth(vector)
                      : internal::ChargeRowBytes(a, vector))));
  internal::TransientCharge staging(ctx);
  MF_RETURN_NOT_OK(staging.Add(hits * (full ? 1 : 2) * sizeof(uint32_t)));
  if (full) a.TouchAll(ctx.io());

  std::optional<bat::ColumnScatter> hs;
  if (!full) hs.emplace(a, hits);
  bat::ColumnScatter ts(vector, hits);
  internal::ShardIo shard_io(ctx, plan);
  RunBlocks(plan, [&](int block, size_t begin, size_t end) {
    Shard& mine = shards[block];
    storage::IoStats* io = shard_io.For(block);
    const size_t m = mine.rights.size();
    if (full) {
      vector.TouchGather(io, mine.rights.data(), m);
    } else {
      if (!mine.missed) {
        mine.lefts.resize(end - begin);
        std::iota(mine.lefts.begin(), mine.lefts.end(),
                  static_cast<uint32_t>(begin));
      }
      Column::TouchGathers(
          io, {{&a, mine.lefts.data()}, {&vector, mine.rights.data()}}, m);
      hs->Gather(mine.lefts.data(), m, offset[block]);
    }
    ts.Gather(mine.rights.data(), m, offset[block]);
  });
  shard_io.Merge();
  MF_RETURN_NOT_OK(ctx.CheckInterrupt());

  Result<Bat> res = full ? Bat::Make(ab.head_col(), ts.Finish(),
                                     JoinProps(ab, cd))
                         : FinishJoin(ab, cd, hs->Finish(), ts.Finish());
  if (res.ok()) rec.Finish("datavector_join", res->size());
  return res;
}

}  // namespace

Result<Bat> Join(const ExecContext& ctx, const Bat& ab, const Bat& cd) {
  // Dynamic optimization (Section 5.1), as a data-driven dispatch: the
  // registered variants' predicates and cost hints decide, inspectable via
  // KernelRegistry::Explain("join", ab, cd).
  OpRecorder rec(ctx, "join");
  return KernelRegistry::Global().Dispatch<BinaryImplSig>(
      "join", MakeInput(ab, cd), ctx, ab, cd, rec);
}

namespace internal {

double EstJoinMatches(const DispatchInput& in) {
  return EstEquiMatches(in.left.size, in.right->size);
}

void RegisterJoinKernels(KernelRegistry& r) {
  // Costs are expected cold page faults over the actual column widths
  // (Section 5.2.2 page geometry), plus a sub-page CPU tie-breaker.
  r.Register<BinaryImplSig>(
      "join", "fetch_join",
      [](const DispatchInput& in) {
        return in.right.has_value() && in.tail_head_aligned;
      },
      [](const DispatchInput& in) {
        // Zero-copy [A, D]: the only IO is reporting both shared columns.
        return HeapPages(in.left.size, in.left.head_width) +
               HeapPages(in.right->size, in.right->tail_width);
      },
      std::function<BinaryImplSig>(FetchJoin),
      "join columns provably identical by position: zero-copy [A, D]");
  r.Register<BinaryImplSig>(
      "join", "merge_join",
      [](const DispatchInput& in) {
        return in.left.props.tsorted && in.right.has_value() &&
               in.right->props.hsorted;
      },
      [](const DispatchInput& in) {
        const double est = EstJoinMatches(in);
        return HeapPages(in.left.size, in.left.tail_width) +
               HeapPages(in.right->size, in.right->head_width) +
               RandomFetchPages(in.left.size, in.left.head_width, est) +
               RandomFetchPages(in.right->size, in.right->tail_width, est) +
               kCpuSequential;
      },
      std::function<BinaryImplSig>(MergeJoin),
      "single interleaved pass over tsorted x hsorted operands");
  r.Register<BinaryImplSig>(
      "join", "datavector_join",
      [](const DispatchInput& in) {
        return in.right.has_value() && in.right->has_datavector &&
               in.left.tail_oidlike;
      },
      [](const DispatchInput& in) {
        // AB's tail is read sequentially; each match fetches A and VECTOR
        // (CD's values in oid order, CD's tail width) by position. CD's
        // own columns and the extent are never read.
        const double est = EstJoinMatches(in);
        return HeapPages(in.left.size, in.left.tail_width) +
               RandomFetchPages(in.left.size, in.left.head_width, est) +
               RandomFetchPages(in.right->size, in.right->tail_width, est) +
               kCpuSequential;
      },
      std::function<BinaryImplSig>(DatavectorJoin),
      "Section 5.2 datavector: AB tail oids index CD's VECTOR by position");
  r.Register<BinaryImplSig>(
      "join", "hash_join",
      [](const DispatchInput& in) { return in.right.has_value(); },
      [](const DispatchInput& in) {
        // Building the accelerator costs one pass over CD's head, skipped
        // when the hash already exists; probing scans AB's tail; each
        // match fetches c/a/d at value order.
        const double est = EstJoinMatches(in);
        const double build =
            in.right->head_hashed
                ? 0.0
                : HeapPages(in.right->size, in.right->head_width);
        return build + HeapPages(in.left.size, in.left.tail_width) +
               RandomFetchPages(in.right->size, in.right->head_width, est) +
               RandomFetchPages(in.left.size, in.left.head_width, est) +
               RandomFetchPages(in.right->size, in.right->tail_width, est) +
               kCpuHashed;
      },
      std::function<BinaryImplSig>(HashJoin),
      "probe the (cached) hash accelerator on CD's head (parallel probe)");
}

}  // namespace internal

}  // namespace moaflat::kernel
