// tpcd_power / tpcd_parallel: the paper's Fig. 9 workload as a power
// stream. One client runs Q1..Q15 on the flattened Monet engine, closed
// loop, at a fixed degree; the row store runs the same stream as the
// reference for every answer and as the denominator of QppD.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "moa/rewriter.h"
#include "storage/memory_tracker.h"
#include "storage/page_accountant.h"
#include "tpcd/queries.h"
#include "workloads.h"

namespace perfbench {

namespace {

using moaflat::tpcd::QuerySuite;

constexpr double kScaleFactor = 0.1;
// Set-ups per run; setup_s and first_stream_s are their medians.
constexpr int kSetups = 3;
constexpr int kRowStreams = 3;
constexpr int kMinWarmStreams = 3;
constexpr int kQueries = QuerySuite::kNumQueries;

/// Results are bit-identical at any degree.
bool BitIdentical(const Answer& a, const Answer& b) {
  return a.rows == b.rows && std::memcmp(&a.check, &b.check, sizeof(double)) == 0;
}

struct Stream {
  double wall_s = 0;
  std::vector<double> query_s;
  std::vector<Answer> answers;
  uint64_t faults = 0;
  double allocated_mb = 0;
  KernelTotals kernels;
};

/// Runs Q1..Q15 once on one engine. With a non-null `log` every call is a
/// span under a `bench.pass` root, which the function returns in *root.
Stream RunStream(QuerySuite& suite, bool monet, int degree, SpanLog* log,
                 uint64_t request, int* root, Report* rep) {
  auto& mem = moaflat::storage::MemoryTracker::Global();
  const uint64_t alloc0 = mem.allocated_total();
  Stream s;
  const int pass = log ? log->Open("bench.pass", -1, request) : -1;
  const double t0 = Now();
  for (int q = 1; q <= kQueries; ++q) {
    moaflat::storage::IoStats io;
    moaflat::kernel::ExecContext ctx;
    ctx.WithIo(&io).WithParallelDegree(degree);
    const int span = log ? log->Open(monet ? "mil.run" : "relational.run",
                                     pass, request)
                         : -1;
    const int64_t span_start = log ? log->NowNs() : 0;
    const double q0 = Now();
    auto run = monet ? suite.RunMonet(q, ctx) : suite.RunBaseline(q, ctx);
    s.query_s.push_back(Now() - q0);
    if (log) log->Close(span);
    s.faults += io.faults();
    if (!run.ok()) {
      rep->Fail("Q" + std::to_string(q) + (monet ? " monet: " : " row: ") +
                run.status().ToString());
      s.answers.push_back({});
      continue;
    }
    s.answers.push_back({run->rows, run->check});
    s.kernels.Add(run->traces);
    if (log) log->AddStatements(run->traces, span, request, span_start);
  }
  s.wall_s = Now() - t0;
  if (log) log->Close(pass);
  if (root) *root = pass;
  s.allocated_mb = (mem.allocated_total() - alloc0) / 1e6;
  return s;
}

/// Checks one Monet stream against the row-store answers (and, at degree
/// > 1, bit for bit against the degree-1 answers); every query is one
/// attempted operation.
void CheckStream(const Stream& s, const std::vector<Answer>& row_ref,
                 const std::vector<Answer>* serial_ref, const char* label,
                 Report* rep) {
  for (int i = 0; i < kQueries; ++i) {
    rep->Attempt();
    const std::string q = std::string(label) + " Q" + std::to_string(i + 1);
    if (!SameAnswer(s.answers[i], row_ref[i])) {
      rep->Fail(q + ": monet " + std::to_string(s.answers[i].rows) +
                " rows / " + std::to_string(s.answers[i].check) +
                " vs row store " + std::to_string(row_ref[i].rows) +
                " rows / " + std::to_string(row_ref[i].check));
    } else if (serial_ref && !BitIdentical(s.answers[i], (*serial_ref)[i])) {
      rep->Fail(q + ": checksum differs from the degree-1 stream");
    }
  }
}

std::vector<double> QueryTimes(const std::vector<Stream>& streams, int q) {
  std::vector<double> v;
  for (const Stream& s : streams) v.push_back(s.query_s[q]);
  return v;
}

}  // namespace

bool SameAnswer(const Answer& a, const Answer& b) {
  const double tol =
      1e-6 * std::max({1.0, std::fabs(a.check), std::fabs(b.check)});
  return a.rows == b.rows && std::fabs(a.check - b.check) <= tol;
}

std::shared_ptr<moaflat::tpcd::TpcdInstance> LoadTpcd(
    const Options& opt, double scale_factor, int parent, SpanLog* log,
    LayerSamples* setup, Report* rep, moaflat::tpcd::TpcdData* data) {
  const double t0 = Now();
  int span = log->Open("tpcd.generate", parent, 0);
  moaflat::tpcd::TpcdData generated =
      moaflat::tpcd::Generate(scale_factor, DeriveSeed(opt.seed, 1));
  log->Close(span);
  const double t1 = Now();
  span = log->Open("tpcd.load", parent, 0);
  auto loaded = moaflat::tpcd::Load(generated, scale_factor);
  log->Close(span);
  if (!loaded.ok()) {
    rep->Fail("load: " + loaded.status().ToString());
    return nullptr;
  }
  setup->Add("tpcd.generate_s", t1 - t0);
  setup->Add("tpcd.load_s", Now() - t1);
  setup->Add("tpcd.load.reorder_s", (*loaded)->stats.reorder_sec);
  if (data != nullptr) *data = std::move(generated);
  return *loaded;
}

void RunTpcd(const Options& opt, int degree, SpanLog* log, Report* rep) {
  SpanLog* trace = log->enabled() ? log : nullptr;

  // --- set-up, several times; each followed by its first stream --------
  LayerSamples setup;
  std::vector<Stream> firsts;
  std::shared_ptr<moaflat::tpcd::TpcdInstance> inst;
  for (int k = 0; k < kSetups; ++k) {
    inst.reset();
    const int root = log->Open("bench.setup", -1, k);
    const double t0 = Now();
    inst = LoadTpcd(opt, kScaleFactor, root, log, &setup, rep);
    setup.Add("setup_s", Now() - t0);
    log->Close(root);
    if (inst == nullptr) return;
    QuerySuite suite(inst);
    firsts.push_back(
        RunStream(suite, true, degree, nullptr, 0, nullptr, rep));
    setup.Add("first_stream_s", firsts.back().wall_s);
  }
  QuerySuite suite(inst);

  // --- references: the row store, and the degree-1 stream --------------
  std::vector<Stream> rows;
  for (int i = 0; i < kRowStreams; ++i) {
    rows.push_back(RunStream(suite, false, 1, trace, 1000 + i, nullptr, rep));
  }
  const std::vector<Answer> row_ref = rows.front().answers;
  for (const Stream& r : rows) {
    for (int q = 0; q < kQueries; ++q) {
      rep->Check(BitIdentical(r.answers[q], row_ref[q]),
                 "row store Q" + std::to_string(q + 1) + " not repeatable");
    }
  }
  std::vector<Answer> serial_ref;
  if (degree > 1) {
    Stream serial = RunStream(suite, true, 1, nullptr, 0, nullptr, rep);
    CheckStream(serial, row_ref, nullptr, "degree-1 reference", rep);
    serial_ref = serial.answers;
  }
  const std::vector<Answer>* serial = degree > 1 ? &serial_ref : nullptr;
  for (const Stream& f : firsts) CheckStream(f, row_ref, serial, "first", rep);
  // Degree-1 answers of this seed, so tpcd_power and tpcd_parallel runs can
  // be compared bit for bit across processes.
  const std::vector<Answer>& d1 = degree > 1 ? serial_ref : firsts[0].answers;
  uint64_t digest = 1469598103934665603ULL;
  for (const Answer& a : d1) {
    uint64_t bits = 0;
    std::memcpy(&bits, &a.check, sizeof(bits));
    digest = (digest ^ bits ^ (a.rows << 1)) * 1099511628211ULL;
  }
  std::printf("# degree-1 answer digest: %016llx\n",
              static_cast<unsigned long long>(digest));

  // --- warm streams for the measured interval ---------------------------
  // A traced run alternates untraced and traced streams; the per-layer
  // figures come from the traced ones, the tracing overhead from the pair.
  auto& mem = moaflat::storage::MemoryTracker::Global();
  mem.MarkEpoch();
  std::vector<Stream> warm;
  std::vector<double> traced_s, untraced_s, faults, alloc_mb, rewrite_ms;
  LayerSamples layers;
  const double cpu0 = CpuSeconds();
  const double start = Now();
  for (int i = 0; i < kMinWarmStreams || Now() - start < opt.seconds; ++i) {
    const bool traced = trace != nullptr && i % 2 == 1;
    int root = -1;
    warm.push_back(RunStream(suite, true, degree, traced ? trace : nullptr,
                             i, &root, rep));
    const Stream& s = warm.back();
    CheckStream(s, row_ref, serial, "warm", rep);
    (traced ? traced_s : untraced_s).push_back(s.wall_s);
    if (!traced) continue;
    faults.push_back(static_cast<double>(s.faults));
    alloc_mb.push_back(s.allocated_mb);
    layers.AddPass(*trace, root, s.kernels, s.wall_s * 1e3);
    // The rewriter runs inside RunMonet; time it on its own, outside the
    // stream, for the queries that go through MOA.
    const int rw_root = trace->Open("bench.rewrite", -1, i);
    double ms = 0;
    for (int q = 1; q <= kQueries; ++q) {
      const std::string text = suite.MoaText(q);
      if (text.empty()) continue;
      moaflat::moa::Rewriter rewriter(&inst->db);
      const int span = trace->Open("moa.translate", rw_root, q);
      const double t0 = Now();
      auto tr = rewriter.TranslateText(text);
      ms += (Now() - t0) * 1e3;
      trace->Close(span);
      rep->Check(tr.ok(), "rewrite Q" + std::to_string(q));
    }
    trace->Close(rw_root);
    rewrite_ms.push_back(ms);
  }
  const double wall = Now() - start;
  const double cpu = CpuSeconds() - cpu0;

  // --- end-to-end --------------------------------------------------------
  std::vector<double> warm_s;
  for (const Stream& s : warm) warm_s.push_back(s.wall_s);
  double warm_total = 0;
  for (double w : warm_s) warm_total += w;
  std::vector<std::vector<double>> by_query;
  std::vector<double> qppd;
  for (int q = 0; q < kQueries; ++q) {
    by_query.push_back(QueryTimes(warm, q));
    qppd.push_back(Median(QueryTimes(rows, q)) / Median(by_query.back()));
  }
  setup.Emit(rep);
  rep->Set("stream_s", Median(warm_s));
  rep->Set("peak_mb", mem.peak() / 1e6);
  SetLatencyMetrics(by_query, warm_total, rep);

  // --- per-layer ---------------------------------------------------------
  std::vector<double> row_s;
  for (const Stream& r : rows) row_s.push_back(r.wall_s);
  rep->Set("relational.stream_s", Median(row_s));
  rep->Set("relational.qppd", GeoMean(qppd));
  rep->Set("parallel.cpu_per_wall", cpu / wall);
  rep->Set("parallel.efficiency", cpu / wall / degree);
  if (trace == nullptr) return;
  layers.Emit(rep);
  rep->Set("moa.rewrite_ms", Median(rewrite_ms));
  rep->Set("storage.faults", Median(faults));
  rep->Set("storage.intermediate_mb", Median(alloc_mb));
  const double traced_med = Median(traced_s);
  const double untraced_med = Median(untraced_s);
  rep->Set("trace.overhead_frac", traced_med / untraced_med - 1);

  // Attribution of the traced stream: kernel self times plus interpreter
  // overhead against the stream's wall time; and the two largest variants.
  double kernel_ms = rep->Get("kernel.other.ms");
  std::vector<std::pair<double, std::string>> by_variant;
  for (int i = 0; i < kNumKernelVariants; ++i) {
    const std::string v = kKernelVariants[i];
    const double ms = rep->Get("kernel." + v + ".ms");
    kernel_ms += ms;
    by_variant.emplace_back(ms, v);
  }
  std::sort(by_variant.rbegin(), by_variant.rend());
  const double interp_ms = rep->Get("mil.interp_overhead_ms");
  std::printf(
      "# attribution: kernel %.1f ms + interpreter %.1f ms = %.1f ms of a "
      "%.1f ms traced stream (%.1f%%; tracing overhead %+.1f%%); largest "
      "variants: %s %.1f%%, %s %.1f%%\n",
      kernel_ms, interp_ms, kernel_ms + interp_ms, traced_med * 1e3,
      100 * (kernel_ms + interp_ms) / (traced_med * 1e3),
      100 * rep->Get("trace.overhead_frac"), by_variant[0].second.c_str(),
      100 * by_variant[0].first / (traced_med * 1e3),
      by_variant[1].second.c_str(),
      100 * by_variant[1].first / (traced_med * 1e3));
}

}  // namespace perfbench
