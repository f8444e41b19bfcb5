#include <algorithm>
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
using bat::Datavector;
using internal::ChargeGather;
using internal::HashString;
using internal::MixSync;
using internal::SetSync;

MonetType BuilderType(const Column& c) {
  return c.type() == MonetType::kVoid ? MonetType::kOidT : c.type();
}

/// syncsemijoin (Section 5.1): the operands' BUNs correspond by position,
/// so the result is simply a copy (here: a zero-copy view) of AB.
Result<Bat> SyncSemijoin(const ExecContext& ctx, const Bat& ab, const Bat& cd,
                         OpRecorder& rec) {
  (void)ctx;  // zero-copy view: no page touched  lint:allow(uncharged-kernel)
  (void)cd;
  Bat res = ab;
  rec.Finish("sync_semijoin", res.size());
  return res;
}

/// The datavector semijoin of Section 5.2.1, following the paper's
/// pseudo-code: probe the dense EXTENT with every CD oid (positionally,
/// Datavector::MapPositions), then fetch head/tail pairs from the
/// positionally stored EXTENT/VECTOR at the hit positions. The positions
/// (the pseudo-code's LOOKUP array) live only for the call. A full hit —
/// every CD oid found — yields CD's own head sequence, so the result is
/// synced with CD rather than carrying a derived key.
Result<Bat> DatavectorSemijoin(const ExecContext& ctx, const Bat& ab,
                               const Bat& cd, OpRecorder& rec) {
  const std::shared_ptr<Datavector> dv = ab.datavector();
  const Column& extent = *dv->extent();
  const Column& vector = *dv->values();

  // Probe phase (lines 7-15 of the pseudo-code): every element of CD's
  // head, as independent morsels on the TaskPool. Each block keeps its
  // hit positions in CD order.
  cd.head().TouchAll(ctx.io());
  const BlockPlan plan = ctx.Plan(cd.size());
  struct alignas(64) Shard {
    std::vector<uint32_t> positions;
    bool ascending = true;
  };
  std::vector<Shard> shards(plan.blocks);
  internal::ShardIo probe_io(ctx, plan);
  RunBlocks(plan, [&](int block, size_t begin, size_t end) {
    std::vector<uint32_t>& mine = shards[block].positions;
    mine.reserve(end - begin);
    dv->MapPositions(
        cd.head(), begin, end,
        [&](size_t, uint32_t pos) { mine.push_back(pos); }, [](size_t) {});
    // One extent slot per hit, in probe order: E_dv's extent lookup.
    extent.TouchGather(probe_io.For(block), mine.data(), mine.size());
  });
  probe_io.Merge();
  MF_RETURN_NOT_OK(ctx.CheckInterrupt());

  std::vector<size_t> offset(plan.blocks + 1, 0);
  for (size_t bl = 0; bl < plan.blocks; ++bl) {
    offset[bl + 1] = offset[bl] + shards[bl].positions.size();
  }
  const size_t hits = offset.back();

  // Insertion phase (lines 16-20): each block fetches its hits' head and
  // tail values from EXTENT and VECTOR, reading its probe shard in place
  // and scattering at its prefix-summed offset into the result heaps.
  MF_RETURN_NOT_OK(ChargeGather(ctx, hits, extent, vector));
  bat::ColumnScatter hs(extent, hits);
  bat::ColumnScatter ts(vector, hits);
  internal::ShardIo insert_io(ctx, plan);
  RunBlocks(plan, [&](int block, size_t, size_t) {
    Shard& mine = shards[block];
    const uint32_t* idx = mine.positions.data();
    const size_t m = mine.positions.size();
    Column::TouchGathers(insert_io.For(block),
                         {{&extent, idx}, {&vector, idx}}, m);
    hs.Gather(idx, m, offset[block]);
    ts.Gather(idx, m, offset[block]);
    mine.ascending = std::is_sorted(idx, idx + m);
  });
  insert_io.Merge();
  MF_RETURN_NOT_OK(ctx.CheckInterrupt());
  // Block-local ascending runs chain into a global one when each block's
  // first hit follows the previous non-empty block's last.
  bool ascending = true;
  const uint32_t* last = nullptr;
  for (const Shard& s : shards) {
    if (s.positions.empty()) continue;
    ascending = ascending && s.ascending &&
                (last == nullptr || *last <= s.positions.front());
    last = &s.positions.back();
  }

  ColumnPtr out_head = hs.Finish();
  if (hits == cd.size()) {
    // Full hit: the extent is duplicate-free and the positions keep CD
    // order, so every CD oid was found exactly once and out_head[i] ==
    // cd.head[i] for all i — the result head *is* CD's head sequence,
    // whatever the tails.
    SetSync(out_head, cd.head().sync_key());  // lint:allow(sync-head-only)
  } else {
    // All datavector semijoins of one class against the same selection are
    // mutually synced: the key derives from the shared extent column and
    // the right operand's head value set.
    SetSync(out_head,
            MixSync(MixSync(extent.sync_key(), cd.head().sync_key()),
                    HashString("dv_semijoin")));
  }
  bat::Properties props;
  props.hsorted = ascending;
  props.hkey = cd.props().hkey;  // extent is duplicate-free
  props.tsorted = false;
  props.tkey = false;
  MF_ASSIGN_OR_RETURN(Bat res, Bat::Make(out_head, ts.Finish(), props));
  rec.Finish("datavector_semijoin", res.size());
  return res;
}

/// Common epilogue of the merge/hash semijoin variants.
Result<Bat> FinishSemijoin(const Bat& ab, const Bat& cd, ColumnPtr out_head,
                           ColumnPtr out_tail) {
  // A semijoin keeps ab BUNs whose *head* occurs among cd's *heads*; both
  // match columns are heads, so no tail value can change the result set.
  // lint:allow(sync-head-only)
  SetSync(out_head, MixSync(MixSync(ab.head().sync_key(),
                                    cd.head().sync_key()),
                            HashString("semijoin")));
  bat::Properties props;
  props.hsorted = ab.props().hsorted;
  props.hkey = ab.props().hkey;
  props.tsorted = ab.props().tsorted;
  props.tkey = ab.props().tkey;
  return Bat::Make(std::move(out_head), std::move(out_tail), props);
}

Result<Bat> MergeSemijoin(const ExecContext& ctx, const Bat& ab,
                          const Bat& cd, OpRecorder& rec) {
  const Column& a = ab.head();
  const Column& b = ab.tail();
  const Column& c = cd.head();
  ColumnBuilder hb(BuilderType(a));
  ColumnBuilder tb(BuilderType(b), b.str_heap());
  internal::ChargeGate gate(ctx, a, b);
  storage::IoStats* io = ctx.io();
  a.TouchAll(io);
  c.TouchAll(io);
  size_t i = 0, j = 0;
  const size_t n = ab.size(), m = cd.size();
  while (i < n && j < m) {
    const int cmp = a.CompareAt(i, c, j);
    if (cmp < 0) {
      ++i;
    } else if (cmp > 0) {
      ++j;
    } else {
      b.TouchAt(io, i);
      hb.AppendFrom(a, i);
      tb.AppendFrom(b, i);
      MF_RETURN_NOT_OK(gate.Add(1));
      ++i;  // keep j: the next left BUN may carry the same head value
    }
  }
  MF_RETURN_NOT_OK(gate.Flush());
  MF_ASSIGN_OR_RETURN(Bat res,
                      FinishSemijoin(ab, cd, hb.Finish(), tb.Finish()));
  rec.Finish("merge_semijoin", res.size());
  return res;
}

/// Hash semijoin, morsel-parallel in both phases: probe morsels record
/// matching left positions into cache-line-aligned per-block shards
/// (ShardIo accountants and charge gates, merged serially in block order),
/// then the prefix-summed blocks scatter their matches straight into the
/// pre-sized result heaps concurrently — results and fault totals are
/// identical to the serial probe at any degree.
Result<Bat> HashSemijoin(const ExecContext& ctx, const Bat& ab, const Bat& cd,
                         OpRecorder& rec) {
  const Column& a = ab.head();
  const Column& b = ab.tail();
  auto hash = cd.EnsureHeadHash(ctx.parallel_degree());
  a.TouchAll(ctx.io());

  struct alignas(64) Shard {
    std::vector<uint32_t> matches;
    Status status = Status::OK();
  };
  const BlockPlan plan = ctx.Plan(ab.size());
  std::vector<Shard> shards(plan.blocks);
  internal::ShardIo shard_io(ctx, plan);
  RunBlocks(plan, [&](int block, size_t begin, size_t end) {
    Shard& mine = shards[block];
    storage::IoStats* io = shard_io.For(block);
    internal::ChargeGate gate(ctx, a, b);
    size_t gated = 0;
    constexpr size_t kProbeChunk = 16 * 1024;
    for (size_t lo = begin; lo < end && mine.status.ok();
         lo += kProbeChunk) {
      const size_t hi = std::min(end, lo + kProbeChunk);
      hash->ForEachContained(a, lo, hi, [&](size_t i) {
        b.TouchAt(io, i);
        mine.matches.push_back(static_cast<uint32_t>(i));
      });
      mine.status = gate.Add(mine.matches.size() - gated);
      gated = mine.matches.size();
    }
    if (mine.status.ok()) mine.status = gate.Flush();
  });
  shard_io.Merge();
  for (Shard& s : shards) {
    MF_RETURN_NOT_OK(s.status);
  }
  MF_RETURN_NOT_OK(ctx.CheckInterrupt());

  std::vector<size_t> offset(plan.blocks + 1, 0);
  for (size_t bl = 0; bl < plan.blocks; ++bl) {
    offset[bl + 1] = offset[bl] + shards[bl].matches.size();
  }
  // Match-position shards are transient: charged across the scatter
  // (peak = shards + result heaps), released when this scope frees them.
  internal::TransientCharge staging(ctx);
  MF_RETURN_NOT_OK(staging.Add(offset.back() * sizeof(uint32_t)));
  bat::ColumnScatter hs(a, offset.back());
  bat::ColumnScatter ts(b, offset.back());
  RunBlocks(plan, [&](int block, size_t, size_t) {
    const Shard& mine = shards[block];
    hs.Gather(mine.matches.data(), mine.matches.size(), offset[block]);
    ts.Gather(mine.matches.data(), mine.matches.size(), offset[block]);
  });
  MF_RETURN_NOT_OK(ctx.CheckInterrupt());
  MF_ASSIGN_OR_RETURN(Bat res,
                      FinishSemijoin(ab, cd, hs.Finish(), ts.Finish()));
  rec.Finish("hash_semijoin", res.size());
  return res;
}


}  // namespace

namespace {

/// Per-block anti-probe state shared by the kdiff/kunion miss phases.
struct alignas(64) MissShard {
  std::vector<uint32_t> misses;
  Status status = Status::OK();
};

/// Morsel-parallel anti-probe: for every probe row in [0, probe.size())
/// with no match in `hash`, records the position into a per-block shard
/// (typed bulk ForEachMissing, ShardIo accountants, `touch` reported per
/// miss) and charges `gate_bytes_per_row` against the budget. Shards merge
/// in block order, reproducing the serial probe's misses and fault
/// sequence exactly.
Result<std::vector<MissShard>> ParallelMisses(
    const ExecContext& ctx, const bat::HashIndex& hash, const Column& probe,
    const Column& touch, uint64_t gate_bytes_per_row, const BlockPlan& plan) {
  std::vector<MissShard> shards(plan.blocks);
  internal::ShardIo shard_io(ctx, plan);
  RunBlocks(plan, [&](int block, size_t begin, size_t end) {
    MissShard& mine = shards[block];
    storage::IoStats* io = shard_io.For(block);
    internal::ChargeGate gate(ctx, gate_bytes_per_row);
    constexpr size_t kProbeChunk = 16 * 1024;
    size_t gated = 0;
    for (size_t lo = begin; lo < end && mine.status.ok();
         lo += kProbeChunk) {
      const size_t hi = std::min(end, lo + kProbeChunk);
      hash.ForEachMissing(probe, lo, hi, [&](size_t i) {
        touch.TouchAt(io, i);
        mine.misses.push_back(static_cast<uint32_t>(i));
      });
      mine.status = gate.Add(mine.misses.size() - gated);
      gated = mine.misses.size();
    }
    if (mine.status.ok()) mine.status = gate.Flush();
  });
  shard_io.Merge();
  for (MissShard& s : shards) {
    MF_RETURN_NOT_OK(s.status);
  }
  MF_RETURN_NOT_OK(ctx.CheckInterrupt());
  return shards;
}

/// Anti-semijoin (Monet kdiff): keeps the AB BUNs whose head has no match
/// in CD's head — the parallel typed anti-probe feeding a two-phase
/// scatter. The kept set depends only on the two head value sequences, so
/// the head-only sync-key derivation is genuinely sound here (unlike the
/// theta-join, whose matches read the left *tail*).
Result<Bat> HashAntiSemijoin(const ExecContext& ctx, const Bat& ab,
                             const Bat& cd, OpRecorder& rec) {
  const Column& a = ab.head();
  const Column& b = ab.tail();
  auto hash = cd.EnsureHeadHash(ctx.parallel_degree());
  a.TouchAll(ctx.io());
  const BlockPlan plan = ctx.Plan(ab.size());
  MF_ASSIGN_OR_RETURN(
      std::vector<MissShard> shards,
      ParallelMisses(ctx, *hash, a, b, internal::ChargeRowBytes(a, b), plan));
  std::vector<size_t> offset(plan.blocks + 1, 0);
  for (size_t bl = 0; bl < plan.blocks; ++bl) {
    offset[bl + 1] = offset[bl] + shards[bl].misses.size();
  }
  // Miss-position shards are transient: charged across the scatter,
  // released when this scope frees them.
  internal::TransientCharge staging(ctx);
  MF_RETURN_NOT_OK(staging.Add(offset.back() * sizeof(uint32_t)));
  bat::ColumnScatter hs(a, offset.back());
  bat::ColumnScatter ts(b, offset.back());
  RunBlocks(plan, [&](int block, size_t, size_t) {
    const MissShard& mine = shards[block];
    hs.Gather(mine.misses.data(), mine.misses.size(), offset[block]);
    ts.Gather(mine.misses.data(), mine.misses.size(), offset[block]);
  });
  MF_RETURN_NOT_OK(ctx.CheckInterrupt());
  ColumnPtr out_head = hs.Finish();
  SetSync(out_head, MixSync(MixSync(a.sync_key(), cd.head().sync_key()),
                            HashString("kdiff")));
  bat::Properties props;
  props.hsorted = ab.props().hsorted;
  props.hkey = ab.props().hkey;
  props.tsorted = ab.props().tsorted;
  props.tkey = ab.props().tkey;
  MF_ASSIGN_OR_RETURN(Bat res, Bat::Make(out_head, ts.Finish(), props));
  rec.Finish("hash_antisemijoin", res.size());
  return res;
}

/// Set union on heads (Monet kunion): all of AB, plus the CD BUNs whose
/// head is absent from AB. The CD anti-probe runs as morsels; the result
/// assembles through bulk typed appends (one contiguous range copy per AB
/// column, one gather per miss list) — mixed source columns rule out a
/// single-column scatter.
Result<Bat> HashUnion(const ExecContext& ctx, const Bat& ab, const Bat& cd,
                      OpRecorder& rec) {
  MF_RETURN_NOT_OK(
      ChargeGather(ctx, ab.size() + cd.size(), ab.head(), ab.tail()));
  const Column& a = ab.head();
  const Column& b = ab.tail();
  ColumnBuilder hb(BuilderType(a));
  ColumnBuilder tb(BuilderType(b), b.str_heap());
  a.TouchAll(ctx.io());
  b.TouchAll(ctx.io());
  hb.Reserve(ab.size());
  tb.Reserve(ab.size());
  hb.AppendRange(a, 0, ab.size());
  tb.AppendRange(b, 0, ab.size());
  auto hash = ab.EnsureHeadHash(ctx.parallel_degree());
  const Column& c = cd.head();
  const Column& d = cd.tail();
  c.TouchAll(ctx.io());
  const BlockPlan plan = ctx.Plan(cd.size());
  // The result rows were charged upfront (the ab.size()+cd.size() upper
  // bound above), so the miss gate adds nothing more.
  MF_ASSIGN_OR_RETURN(std::vector<MissShard> shards,
                      ParallelMisses(ctx, *hash, c, d, 0, plan));
  MF_RETURN_NOT_OK(ctx.CheckInterrupt());
  internal::TransientCharge staging(ctx);
  {
    uint64_t miss_bytes = 0;
    for (const MissShard& s : shards) {
      miss_bytes += s.misses.size() * sizeof(uint32_t);
    }
    MF_RETURN_NOT_OK(staging.Add(miss_bytes));
  }
  for (const MissShard& s : shards) {
    hb.GatherFrom(c, s.misses.data(), s.misses.size());
    tb.GatherFrom(d, s.misses.data(), s.misses.size());
  }
  MF_ASSIGN_OR_RETURN(Bat res,
                      Bat::Make(hb.Finish(), tb.Finish(), bat::Properties{}));
  rec.Finish("hash_union", res.size());
  return res;
}

}  // namespace

Result<Bat> Semijoin(const ExecContext& ctx, const Bat& ab, const Bat& cd) {
  OpRecorder rec(ctx, "semijoin");
  return KernelRegistry::Global().Dispatch<BinaryImplSig>(
      "semijoin", MakeInput(ab, cd), ctx, ab, cd, rec);
}

Result<Bat> Diff(const ExecContext& ctx, const Bat& ab, const Bat& cd) {
  OpRecorder rec(ctx, "kdiff");
  return KernelRegistry::Global().Dispatch<BinaryImplSig>(
      "kdiff", MakeInput(ab, cd), ctx, ab, cd, rec);
}

Result<Bat> Union(const ExecContext& ctx, const Bat& ab, const Bat& cd) {
  OpRecorder rec(ctx, "kunion");
  return KernelRegistry::Global().Dispatch<BinaryImplSig>(
      "kunion", MakeInput(ab, cd), ctx, ab, cd, rec);
}

Result<Bat> Intersect(const ExecContext& ctx, const Bat& ab, const Bat& cd) {
  return Semijoin(ctx, ab, cd);
}

namespace internal {

double EstSemijoinMatches(const DispatchInput& in) {
  return EstEquiMatches(in.left.size, in.right->size);
}

void RegisterSemijoinKernels(KernelRegistry& r) {
  // Costs are expected cold page faults (Section 5.2.2): the datavector
  // estimate is one E_dv term of the analytic model — random fetches into
  // EXTENT and VECTOR priced by the per-page hit probability — which is
  // what makes dv semijoins win at low selectivity and lose the advantage
  // as the fetch set approaches every page, exactly as in Fig. 8.
  r.Register<BinaryImplSig>(
      "semijoin", "sync_semijoin",
      [](const DispatchInput& in) { return in.synced && in.right.has_value(); },
      [](const DispatchInput&) { return 0.0; },  // zero-copy, no touches
      std::function<BinaryImplSig>(SyncSemijoin),
      "operands synced (Section 5.1): zero-copy view of AB");
  r.Register<BinaryImplSig>(
      "semijoin", "datavector_semijoin",
      [](const DispatchInput& in) {
        return in.left.has_datavector && in.right.has_value() &&
               in.right->head_oidlike;
      },
      [](const DispatchInput& in) {
        const double est = EstSemijoinMatches(in);
        return HeapPages(in.right->size, in.right->head_width) +
               RandomFetchPages(in.left.size, in.left.head_width, est) +
               RandomFetchPages(in.left.size, in.left.tail_width, est) +
               kCpuSequential;
      },
      std::function<BinaryImplSig>(DatavectorSemijoin),
      "Section 5.2.1 datavector: dense extent probe, positional fetch");
  r.Register<BinaryImplSig>(
      "semijoin", "merge_semijoin",
      [](const DispatchInput& in) {
        return in.left.props.hsorted && in.right.has_value() &&
               in.right->props.hsorted;
      },
      [](const DispatchInput& in) {
        return HeapPages(in.left.size, in.left.head_width) +
               HeapPages(in.right->size, in.right->head_width) +
               RandomFetchPages(in.left.size, in.left.tail_width,
                                EstSemijoinMatches(in)) +
               kCpuSequential;
      },
      std::function<BinaryImplSig>(MergeSemijoin),
      "single interleaved pass over hsorted heads");
  r.Register<BinaryImplSig>(
      "semijoin", "hash_semijoin",
      [](const DispatchInput& in) { return in.right.has_value(); },
      [](const DispatchInput& in) {
        // One build pass over CD's head (skipped when the accelerator is
        // cached), one probe pass over AB's head, tail fetches per match.
        const double build =
            in.right->head_hashed
                ? 0.0
                : HeapPages(in.right->size, in.right->head_width);
        return build + HeapPages(in.left.size, in.left.head_width) +
               RandomFetchPages(in.left.size, in.left.tail_width,
                                EstSemijoinMatches(in)) +
               kCpuHashed;
      },
      std::function<BinaryImplSig>(HashSemijoin),
      "probe the hash accelerator kept on CD's head (parallel probe)");

  // kdiff/kunion have one registered shape each today; registration still
  // buys costs in the decision table (Explain) and a seam for future
  // merge/sync variants.
  r.Register<BinaryImplSig>(
      "kdiff", "hash_antisemijoin",
      [](const DispatchInput& in) { return in.right.has_value(); },
      [](const DispatchInput& in) {
        const double build =
            in.right->head_hashed
                ? 0.0
                : HeapPages(in.right->size, in.right->head_width);
        // Misses are the left rows minus the expected equi-matches.
        const double est = static_cast<double>(in.left.size) -
                           EstSemijoinMatches(in);
        return build + HeapPages(in.left.size, in.left.head_width) +
               RandomFetchPages(in.left.size, in.left.tail_width,
                                est > 0 ? est : 0) +
               kCpuHashed;
      },
      std::function<BinaryImplSig>(HashAntiSemijoin),
      "anti-probe the hash accelerator on CD's head (parallel probe)");
  r.Register<BinaryImplSig>(
      "kunion", "hash_union",
      [](const DispatchInput& in) { return in.right.has_value(); },
      [](const DispatchInput& in) {
        const double build =
            in.left.head_hashed
                ? 0.0
                : HeapPages(in.left.size, in.left.head_width);
        const double est = static_cast<double>(in.right->size) -
                           EstSemijoinMatches(in);
        return HeapPages(in.left.size, in.left.head_width) +
               HeapPages(in.left.size, in.left.tail_width) + build +
               HeapPages(in.right->size, in.right->head_width) +
               RandomFetchPages(in.right->size, in.right->tail_width,
                                est > 0 ? est : 0) +
               kCpuHashed;
      },
      std::function<BinaryImplSig>(HashUnion),
      "copy AB, anti-probe CD against AB's head hash (parallel probe)");
}

}  // namespace internal

}  // namespace moaflat::kernel
