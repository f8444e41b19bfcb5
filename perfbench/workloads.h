// The benchmark's workloads. Each one builds its inputs from the run seed,
// drives the engine only through its public entry points, checks every
// answer, and sets its metrics on the report: the end-to-end ones always,
// the per-layer ones from the traced passes of a traced run.

#ifndef MOAFLAT_PERFBENCH_WORKLOADS_H_
#define MOAFLAT_PERFBENCH_WORKLOADS_H_

#include <memory>

#include "bench_util.h"
#include "tpcd/generator.h"
#include "tpcd/loader.h"

namespace perfbench {

/// One query's answer: its row count and checksum.
struct Answer {
  size_t rows = 0;
  double check = 0;
};

/// The engines compute checksums in different orders, so Monet-vs-row
/// agreement allows rounding (as bench_fig9_tpcd does).
bool SameAnswer(const Answer& a, const Answer& b);

/// Generates and loads TPC-D at `scale_factor` from the run seed: the set-up
/// shared by the TPC-D and catalog-serving workloads. Both phases become
/// spans under `parent` and samples of `tpcd.generate_s`, `tpcd.load_s` and
/// `tpcd.load.reorder_s` in `setup`. Returns null, failing the run, when the
/// load fails; `data` receives the generated population when non-null.
std::shared_ptr<moaflat::tpcd::TpcdInstance> LoadTpcd(
    const Options& opt, double scale_factor, int parent, SpanLog* log,
    LayerSamples* setup, Report* rep, moaflat::tpcd::TpcdData* data = nullptr);

/// TPC-D SF 0.1, one client running the Q1..Q15 stream on the Monet
/// engine at `degree` (1: tpcd_power, 4: tpcd_parallel), with the row
/// store as the reference.
void RunTpcd(const Options& opt, int degree, SpanLog* log, Report* rep);

/// TPC-D SF 0.1 catalog behind the query service; four closed-loop
/// sessions submitting seeded point queries as MIL text.
void RunServicePoint(const Options& opt, SpanLog* log, Report* rep);

/// The same catalog and point-query texts through the front end only: MOA
/// translation of the TPC-D MOA queries, MIL parse, static analysis and
/// the service's Price, each call timed on its own on one client thread.
void RunServiceFront(const Options& opt, SpanLog* log, Report* rep);

/// Two durable writer sessions growing their own tables while two reader
/// sessions aggregate over them, on a fresh store directory per episode.
void RunServiceIngest(const Options& opt, SpanLog* log, Report* rep);

/// The durability path without the service in the timed part: set-up
/// builds a store through durable writer sessions (with readers beside
/// them); every pass recovers it by full log replay, checkpoints the
/// recovered env into a second directory and recovers that copy.
void RunStorageRecover(const Options& opt, SpanLog* log, Report* rep);

}  // namespace perfbench

#endif  // MOAFLAT_PERFBENCH_WORKLOADS_H_
