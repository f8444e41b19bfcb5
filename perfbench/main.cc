// moabench: runs one benchmark workload by name and seed, checks every
// answer, and prints the metrics as the last line of standard output.
//
//   moabench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out-dir <dir>]
//
// Workloads: tpcd_power, tpcd_parallel, service_point, service_front,
// service_ingest, storage_recover.
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// and writes the run's spans to <out-dir>/spans-<workload>-<seed>.jsonl.
// Exit status: 0 when every check passed, 1 when one failed, 2 on a usage
// error or an unoptimized build.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench_util.h"
#include "common/parallel.h"
#include "workloads.h"

#ifndef MOABENCH_BUILD_TYPE
#define MOABENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload tpcd_power|tpcd_parallel|service_point|"
               "service_front|service_ingest|storage_recover --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               argv0);
  return 2;
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  char* end = nullptr;
  if (text[0] < '0' || text[0] > '9') return false;
  *out = std::strtoull(text, &end, 10);
  return *end == '\0';
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed" && ParseUnsigned(value, &n)) {
      opt.seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUnsigned(value, &n) && n > 0 &&
               n <= 3600) {
      opt.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace" && (std::strcmp(value, "0") == 0 ||
                                     std::strcmp(value, "1") == 0)) {
      opt.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  int degree = 0;
  if (opt.workload == "tpcd_power") degree = 1;
  if (opt.workload == "tpcd_parallel") degree = 4;
  if (opt.workload == "service_point" || opt.workload == "service_front" ||
      opt.workload == "service_ingest" ||
      opt.workload == "storage_recover") {
    degree = 1;  // the service's default session degree
  }
  if (degree == 0 || !have_seed || !have_seconds || !have_trace) {
    return Usage(argv[0]);
  }

  // Wall time is machine-relative: every result carries its box and build.
  std::printf("# box: nproc=%u block_cap=%d degree=%d compiler=\"%s\" "
              "build=%s optimized=%s workload=%s seed=%llu seconds=%g "
              "trace=%d\n",
              std::thread::hardware_concurrency(),
              moaflat::ParallelBlockCap(), degree, Compiler().c_str(),
              MOABENCH_BUILD_TYPE,
#ifdef __OPTIMIZE__
              "yes",
#else
              "no",
#endif
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "moabench: refusing to measure an unoptimized build; "
               "configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif

  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "moabench: cannot create %s: %s\n",
                 opt.out_dir.c_str(), ec.message().c_str());
    return 2;
  }

  SpanLog log(opt.trace);
  Report rep(opt.trace);
  if (opt.workload == "service_point") {
    RunServicePoint(opt, &log, &rep);
  } else if (opt.workload == "service_front") {
    RunServiceFront(opt, &log, &rep);
  } else if (opt.workload == "service_ingest") {
    RunServiceIngest(opt, &log, &rep);
  } else if (opt.workload == "storage_recover") {
    RunStorageRecover(opt, &log, &rep);
  } else {
    RunTpcd(opt, degree, &log, &rep);
  }
  if (opt.trace) {
    rep.Set("trace.spans", static_cast<double>(log.size()));
    const std::string path = opt.out_dir + "/spans-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".jsonl";
    if (!log.Write(path)) {
      std::fprintf(stderr, "moabench: cannot write %s\n", path.c_str());
    }
  }
  rep.Print();
  return rep.correct() ? 0 : 1;
}
