// Shared pieces of the moabench program: run options, order statistics,
// the in-memory span log of the traced run, and the result report whose
// last line is the machine-read JSON object.

#ifndef MOAFLAT_PERFBENCH_BENCH_UTIL_H_
#define MOAFLAT_PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "mil/interpreter.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for span dumps and durable stores (created on demand).
  std::string out_dir = ".bench_out";
};

/// Independent 64-bit seed for one consumer (`stream`) of the run seed, so
/// the generator seed and the draw seed never collide.
uint64_t DeriveSeed(uint64_t run_seed, uint64_t stream);

double Now();  // steady clock, seconds
double CpuSeconds();  // user + system CPU of this process

double Median(std::vector<double> v);
/// Linear interpolation between closest ranks; q in [0, 1].
double Quantile(std::vector<double> v, double q);
/// Geometric mean of positive values (0 when empty).
double GeoMean(const std::vector<double>& v);

/// One timed call into a layer: name, start and end (ns since the log was
/// created), the span that caused it, and the request it belongs to.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int parent;
  uint64_t request;
};

/// Spans of the traced run, kept in memory and written out once at the
/// end. Disabled logs record nothing and return id -1, so untraced code
/// paths pay one branch per call site. Thread-safe.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  bool enabled() const { return enabled_; }
  int64_t NowNs() const;

  /// Opens a span at the current time; Close() sets its end.
  int Open(const char* name, int parent, uint64_t request);
  void Close(int id);
  /// Records a span whose times are known (or reconstructed) already.
  int Add(const char* name, int parent, uint64_t request, int64_t start_ns,
          int64_t end_ns);

  /// Records one StmtTrace per statement as a `kernel.<variant>` child of
  /// `parent`. StmtTrace carries durations but no start times, so the
  /// statements are laid end to end from `start_ns`; their total is exact,
  /// their positions inside the parent are not.
  void AddStatements(const std::vector<moaflat::mil::StmtTrace>& traces,
                     int parent, uint64_t request, int64_t start_ns);

  /// Self time (span length minus the union of its children's intervals),
  /// summed per span name, for every span whose root ancestor is `root`.
  std::map<std::string, double> SelfMsUnder(int root) const;

  size_t size() const;
  /// Writes one JSON object per span, one per line.
  bool Write(const std::string& path) const;

 private:
  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// The kernel variant a statement's implementation string is reported
/// under: one of kKernelVariants, or "other".
const char* KernelVariant(const std::string& impl);
extern const char* const kKernelVariants[];
extern const int kNumKernelVariants;

/// Per-variant call and output-row counts over a set of statement traces
/// (the variants' times come from the spans' self times).
struct KernelTotals {
  std::map<std::string, double> calls;
  std::map<std::string, double> rows;
  void Add(const std::vector<moaflat::mil::StmtTrace>& traces);
  void Merge(const KernelTotals& other);
};

class Report;

/// Per-pass layer figures of the traced passes of a workload, reduced to
/// medians over those passes.
class LayerSamples {
 public:
  /// Adds one traced pass: span self times under `root`, the pass's
  /// statement totals, and its wall time.
  void AddPass(const SpanLog& log, int root, const KernelTotals& kernels,
               double wall_ms);
  void Add(const std::string& name, double value) {
    values_[name].push_back(value);
  }
  /// Sets every collected figure on the report as its median.
  void Emit(Report* rep) const;

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// Collects checks, operation counts and metric values; Print() writes the
/// final JSON line.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// Counts a failed or mismatched operation (or a failed whole-run check
  /// such as a recovered store) and marks the run incorrect.
  void Fail(const std::string& what, uint64_t count = 1);
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  void Set(const std::string& name, double value) { values_[name] = value; }
  double Get(const std::string& name) const;

  bool correct() const { return correct_; }
  /// Prints the end-to-end metrics (untraced run) or the per-layer ones
  /// (traced run) with their units. Every metric of the set is printed on
  /// every workload; a per-layer metric of a layer the workload does not
  /// exercise reads 0, a missing end-to-end metric fails the run.
  void Print();

 private:
  const bool trace_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, double> values_;
};

/// Sets the end-to-end latency figures from per-operation samples (seconds)
/// grouped by operation kind: query_geomean_ms over the kinds' medians, the
/// pooled latency_p50_ms / latency_p90_ms, and qps as operations over
/// `pass_wall_s`, the summed wall time of the passes they ran in.
void SetLatencyMetrics(const std::vector<std::vector<double>>& by_kind_s,
                       double pass_wall_s, Report* rep);

}  // namespace perfbench

#endif  // MOAFLAT_PERFBENCH_BENCH_UTIL_H_
