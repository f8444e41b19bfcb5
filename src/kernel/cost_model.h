#ifndef MOAFLAT_KERNEL_COST_MODEL_H_
#define MOAFLAT_KERNEL_COST_MODEL_H_

#include <cstdint>

#include "storage/page_accountant.h"

/// The Section 5.2.2 page-fault cost model, promoted from a TPC-D-only
/// artifact into the dispatch engine: the KernelRegistry cost functions
/// estimate the expected number of cold page faults a variant would incur
/// (the same quantity the IoStats accountant measures), derived from the
/// operand cardinalities and actual column widths.
namespace moaflat::kernel {

/// Page size B used by the dispatch cost estimates; matches both the
/// paper's model parameter and the IO accountant's simulated pager.
inline constexpr int kCostPageB = static_cast<int>(storage::kPageSize);

/// Selectivity assumed by dispatch when a predicate's true selectivity is
/// unknown at choice time (the interesting region of Fig. 8).
inline constexpr double kDispatchSelectivity = 0.02;

/// CPU tie-breakers, in fractions of one page fault: page counts often tie
/// between variants on small operands, so each variant adds a constant
/// ordered by its per-row in-memory work. Never outweighs one real fault.
/// No cost depends on the parallel degree: a degree-dependent choice would
/// pick variants that emit (and sum) in a different order, breaking the
/// bit-identical-at-any-degree guarantee.
inline constexpr double kCpuSequential = 0.25;
inline constexpr double kCpuHashed = 0.5;

/// B-byte pages occupied by `rows` values of `width` bytes each. Void and
/// empty heaps occupy no storage (0 pages), mirroring IoStats, which
/// ignores touches of width-0 columns.
double HeapPages(uint64_t rows, int width, int page_b = kCostPageB);

/// Expected distinct pages faulted when `k` of the `rows` rows of a
/// `width`-byte heap are fetched in value (i.e. effectively random) order:
/// each page holds C rows and is hit with probability 1 - (1 - k/rows)^C,
/// the per-page hit model under which Section 5.2.2 derives E_rel/E_dv.
double RandomFetchPages(uint64_t rows, int width, double k,
                        int page_b = kCostPageB);

/// Expected distinct pages one binary search touches in a sorted heap:
/// the first ~log2(pages) probes land on distinct pages, the rest stay on
/// the final page.
double BinarySearchPages(uint64_t rows, int width, int page_b = kCostPageB);

/// Expected equi-join/semijoin matches when the output cardinality is
/// unknown at dispatch time: join columns are typically keys on one side,
/// so each row of the smaller operand finds about one partner. Shared by
/// the join and semijoin cost functions so the heuristic cannot diverge.
inline double EstEquiMatches(uint64_t left_rows, uint64_t right_rows) {
  return static_cast<double>(left_rows < right_rows ? left_rows
                                                    : right_rows);
}

/// Parameters of the analytic select-project model (Fig. 8): an n-ary
/// table of X rows with uniform value width w on B-byte pages. Defaults
/// are the paper's 1 GB Item table.
struct CostModelParams {
  int64_t X = 6000000;  // rows
  int n = 16;           // table arity
  int w = 4;            // byte width of one value
  int B = 4096;         // page size
};

/// Expected cold page faults of a selection with selectivity s followed by
/// a projection to p attributes, relational (E_rel) vs decomposed-with-
/// datavectors (E_dv) representation — Section 5.2.2.
class CostModel {
 public:
  explicit CostModel(CostModelParams p) : p_(p) {}

  /// Inverted-list entries per page: C_inv = floor(B / 2w), at least 1.
  int64_t CInv() const { return PerPage(2 * int64_t{p_.w}); }
  /// Rows per page of the non-decomposed table: C_rel = floor(B/((n+1)w)),
  /// at least 1 — a row wider than a page spans multiple pages, it does
  /// not make the capacity zero (which made ERel divide by zero).
  int64_t CRel() const { return PerPage((int64_t{p_.n} + 1) * p_.w); }
  /// BUNs per page of a BAT: C_bat = floor(B / 2w), at least 1.
  int64_t CBat() const { return PerPage(2 * int64_t{p_.w}); }
  /// Datavector values per page: C_dv = floor(B / w), at least 1.
  int64_t CDv() const { return PerPage(int64_t{p_.w}); }

  /// E_rel(s): index probe cost + unclustered retrieval of qualifying
  /// rows (each page retrieved with probability 1-(1-s)^C_rel).
  double ERel(double s) const;

  /// E_dv(s, p): selection on one tail-sorted BAT plus (p+1) datavector
  /// semijoins (the +1 is the extent lookup of the first semijoin).
  double EDv(double s, int p) const;

  /// Selectivity at which E_rel and E_dv(p) cross (bisection on s in
  /// (0, 1]); returns a negative value if they never cross.
  double Crossover(int p, double s_max = 0.25) const;

  const CostModelParams& params() const { return p_; }

 private:
  /// Rows of `bytes_per_row` bytes fitting on one page, clamped to >= 1.
  int64_t PerPage(int64_t bytes_per_row) const {
    if (bytes_per_row < 1) bytes_per_row = 1;
    const int64_t c = p_.B / bytes_per_row;
    return c < 1 ? 1 : c;
  }

  CostModelParams p_;
};

}  // namespace moaflat::kernel

#endif  // MOAFLAT_KERNEL_COST_MODEL_H_
