#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

#include "common/rng.h"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics, printed by every untraced run. BENCHMARK.json
// lists the same names, units and directions.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"first_stream_s", "s"},
    {"stream_s", "s"},         {"query_geomean_ms", "ms"},
    {"qps", "1/s"},            {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},  {"peak_mb", "MB"},
};

// The per-layer metrics, printed by every traced run.
constexpr MetricDef kPerLayerFixed[] = {
    {"tpcd.generate_s", "s"},
    {"tpcd.load_s", "s"},
    {"tpcd.load.reorder_s", "s"},
    {"moa.rewrite_ms", "ms"},
    {"mil.parse_us", "us"},
    {"mil.analyze_us", "us"},
    {"mil.interp_overhead_ms", "ms"},
    {"kernel.other.ms", "ms"},
    {"parallel.cpu_per_wall", "ratio"},
    {"parallel.efficiency", "ratio"},
    {"service.price_us", "us"},
    {"service.price_below_run_share", "ratio"},
    {"service.queue_wait_us.p50", "us"},
    {"service.queue_wait_us.p99", "us"},
    {"service.exec_us.p50", "us"},
    {"service.admit_share", "ratio"},
    {"service.queue_share", "ratio"},
    {"service.veto_share", "ratio"},
    {"service.commit_wait_us.p50", "us"},
    {"service.commit_wait_us.p99", "us"},
    {"storage.faults", "count"},
    {"storage.intermediate_mb", "MB"},
    {"storage.wal_bytes_per_user_byte", "ratio"},
    {"storage.recover_s", "s"},
    {"storage.checkpoint_ms", "ms"},
    {"relational.stream_s", "s"},
    {"relational.qppd", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"trace.attributed_frac", "ratio"},
    {"trace.spans", "count"},
    {"bench.self_ms", "ms"},
};

// Span names of the kernel variants, "kernel.<variant>", parallel to
// kKernelVariants (span names must outlive the log).
const char* const kKernelSpanNames[] = {
    "kernel.datavector_semijoin", "kernel.datavector_semijoin_cached",
    "kernel.hash_join",           "kernel.hash_semijoin",
    "kernel.fetch_join",          "kernel.merge_join",
    "kernel.hash_unique",         "kernel.hash_set_aggregate",
    "kernel.multiplex",           "kernel.scan_select",
    "kernel.binsearch_select",    "kernel.other",
};

void PrintNumber(double v) {
  // All significant digits of a double, and never NaN/inf (not JSON).
  std::printf("%.17g", std::isfinite(v) ? v : 0.0);
}

}  // namespace

const char* const kKernelVariants[] = {
    "datavector_semijoin", "datavector_semijoin_cached",
    "hash_join",           "hash_semijoin",
    "fetch_join",          "merge_join",
    "hash_unique",         "hash_set_aggregate",
    "multiplex",           "scan_select",
    "binsearch_select",
};
const int kNumKernelVariants =
    sizeof(kKernelVariants) / sizeof(kKernelVariants[0]);

uint64_t DeriveSeed(uint64_t run_seed, uint64_t stream) {
  moaflat::Rng rng(run_seed * 0x100000001b3ULL + stream);
  return rng.Next();
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// ------------------------------------------------------------------ spans

SpanLog::SpanLog(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int SpanLog::Open(const char* name, int parent, uint64_t request) {
  if (!enabled_) return -1;
  const int64_t now = NowNs();
  return Add(name, parent, request, now, now);
}

void SpanLog::Close(int id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

int SpanLog::Add(const char* name, int parent, uint64_t request,
                 int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::AddStatements(const std::vector<moaflat::mil::StmtTrace>& traces,
                            int parent, uint64_t request, int64_t start_ns) {
  if (!enabled_) return;
  int64_t at = start_ns;
  for (const moaflat::mil::StmtTrace& t : traces) {
    const char* variant = KernelVariant(t.impl);
    int idx = kNumKernelVariants;  // "other"
    for (int i = 0; i < kNumKernelVariants; ++i) {
      if (variant == kKernelVariants[i]) idx = i;
    }
    const int64_t end = at + t.elapsed_us * 1000;
    Add(kKernelSpanNames[idx], parent, request, at, end);
    at = end;
  }
}

std::map<std::string, double> SpanLog::SelfMsUnder(int root) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t n = spans_.size();
  // Root ancestor of every span (parents always precede their children).
  std::vector<int> top(n);
  std::vector<std::vector<size_t>> children(n);
  for (size_t i = 0; i < n; ++i) {
    const int p = spans_[i].parent;
    top[i] = p < 0 ? static_cast<int>(i) : top[static_cast<size_t>(p)];
    if (p >= 0) children[static_cast<size_t>(p)].push_back(i);
  }
  std::map<std::string, double> self_ms;
  for (size_t i = 0; i < n; ++i) {
    if (top[i] != root) continue;
    const Span& s = spans_[i];
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (size_t c : children[i]) {
      const int64_t a = std::max(spans_[c].start_ns, s.start_ns);
      const int64_t b = std::min(spans_[c].end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (const auto& [a, b] : iv) {
      const int64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    self_ms[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self_ms;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------- kernels

const char* KernelVariant(const std::string& impl) {
  // A statement that made several kernel calls reports "a+b"; it is
  // attributed to its first call.
  const std::string first = impl.substr(0, impl.find('+'));
  if (first == "datavector_semijoin(cached)") {
    return kKernelVariants[1];
  }
  if (first.rfind("multiplex", 0) == 0) return kKernelVariants[8];
  for (int i = 0; i < kNumKernelVariants; ++i) {
    if (first == kKernelVariants[i]) return kKernelVariants[i];
  }
  return "other";
}

void KernelTotals::Add(const std::vector<moaflat::mil::StmtTrace>& traces) {
  for (const moaflat::mil::StmtTrace& t : traces) {
    const std::string v = KernelVariant(t.impl);
    calls[v] += 1;
    rows[v] += static_cast<double>(t.out_size);
  }
}

void KernelTotals::Merge(const KernelTotals& other) {
  for (const auto& [v, x] : other.calls) calls[v] += x;
  for (const auto& [v, x] : other.rows) rows[v] += x;
}

void LayerSamples::AddPass(const SpanLog& log, int root,
                           const KernelTotals& kernels, double wall_ms) {
  std::map<std::string, double> self = log.SelfMsUnder(root);
  double kernel_ms = 0;
  for (int i = 0; i <= kNumKernelVariants; ++i) {
    const std::string v =
        i < kNumKernelVariants ? kKernelVariants[i] : std::string("other");
    const double ms = self["kernel." + v];
    kernel_ms += ms;
    Add("kernel." + v + ".ms", ms);
    if (i == kNumKernelVariants) break;
    auto get = [&](const std::map<std::string, double>& m) {
      auto it = m.find(v);
      return it == m.end() ? 0.0 : it->second;
    };
    const double rows = get(kernels.rows);
    Add("kernel." + v + ".calls", get(kernels.calls));
    Add("kernel." + v + ".ns_per_row", rows > 0 ? ms * 1e6 / rows : 0);
  }
  Add("mil.interp_overhead_ms", self["mil.run"]);
  Add("bench.self_ms", self["bench.pass"]);
  Add("trace.attributed_frac", (kernel_ms + self["mil.run"]) / wall_ms);
}

void LayerSamples::Emit(Report* rep) const {
  for (const auto& [name, v] : values_) rep->Set(name, Median(v));
}

void SetLatencyMetrics(const std::vector<std::vector<double>>& by_kind_s,
                       double pass_wall_s, Report* rep) {
  std::vector<double> medians_ms, pooled_ms;
  for (const std::vector<double>& kind : by_kind_s) {
    if (kind.empty()) continue;
    medians_ms.push_back(Median(kind) * 1e3);
    for (double s : kind) pooled_ms.push_back(s * 1e3);
  }
  rep->Set("query_geomean_ms", GeoMean(medians_ms));
  rep->Set("latency_p50_ms", Quantile(pooled_ms, 0.5));
  rep->Set("latency_p90_ms", Quantile(pooled_ms, 0.9));
  rep->Set("qps", static_cast<double>(pooled_ms.size()) / pass_wall_s);
}

// ----------------------------------------------------------------- report

void Report::Fail(const std::string& what, uint64_t count) {
  correct_ = false;
  if (failed_ < 20) {
    std::fprintf(stderr, "CHECK FAILED (x%llu): %s\n",
                 static_cast<unsigned long long>(count), what.c_str());
  }
  failed_ += count;
}

double Report::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second;
}

void Report::Print() {
  std::vector<std::pair<std::string, std::string>> defs;  // name, unit
  if (!trace_) {
    for (const MetricDef& d : kEndToEnd) {
      defs.emplace_back(d.name, d.unit);
      Check(Get(d.name) > 0,
            std::string("end-to-end metric ") + d.name + " not measured");
    }
  } else {
    for (const MetricDef& d : kPerLayerFixed) defs.emplace_back(d.name, d.unit);
    for (int i = 0; i < kNumKernelVariants; ++i) {
      const std::string k = std::string("kernel.") + kKernelVariants[i];
      defs.emplace_back(k + ".ms", "ms");
      defs.emplace_back(k + ".calls", "count");
      defs.emplace_back(k + ".ns_per_row", "ns");
    }
  }
  if (attempted_ == 0) Fail("no operation attempted");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(attempted_, 1)),
              static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < defs.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i ? ", " : "", defs[i].first.c_str());
    PrintNumber(Get(defs[i].first));
    std::printf(", \"unit\": \"%s\"}", defs[i].second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
