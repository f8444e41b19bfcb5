// service_point, service_front, service_ingest and storage_recover: the
// query service and its durable store. Every request is Submit followed by
// Wait on the caller's thread, so its latency is what a caller waiting for
// the reply sees.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <variant>
#include <vector>

#include "bat/bat.h"
#include "bat/column.h"
#include "common/rng.h"
#include "mil/analyzer.h"
#include "mil/parser.h"
#include "moa/rewriter.h"
#include "service/query_service.h"
#include "storage/checkpoint.h"
#include "storage/memory_tracker.h"
#include "storage/page_accountant.h"
#include "tpcd/queries.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using moaflat::Value;
using moaflat::service::Admission;
using moaflat::service::QueryResult;
using moaflat::service::QueryService;
using moaflat::service::QueryState;
using moaflat::service::SessionOptions;

/// One finished request as the client saw it.
struct Sample {
  int kind = 0;
  double latency_s = 0;
  int64_t exec_us = 0;
  Admission admission = Admission::kAdmit;
  uint64_t faults = 0;
};

/// What one client thread collected in one pass.
struct ClientLog {
  std::vector<Sample> samples;
  KernelTotals kernels;
};

/// Submit + Wait on `session`. With a log, records `service.request` with
/// children `service.submit` and `service.wait`; the run itself
/// (QueryResult::elapsed_us) becomes a `mil.run` span ending when Wait
/// returned, with its statements under it.
moaflat::Result<QueryResult> Request(QueryService& svc, uint64_t session,
                                     const std::string& text, int kind,
                                     SpanLog* log, int parent,
                                     uint64_t request, ClientLog* out) {
  const int64_t t0 = log ? log->NowNs() : 0;
  const double start = Now();
  auto qid = svc.Submit(session, text);
  const int64_t t1 = log ? log->NowNs() : 0;
  moaflat::Result<QueryResult> r =
      qid.ok() ? svc.Wait(*qid) : moaflat::Result<QueryResult>(qid.status());
  const double latency = Now() - start;
  if (!r.ok()) return r;
  out->samples.push_back(
      {kind, latency, r->elapsed_us, r->admission.action, r->faults});
  if (log == nullptr) return r;
  out->kernels.Add(r->traces);
  const int64_t t2 = log->NowNs();
  const int req = log->Add("service.request", parent, request, t0, t2);
  log->Add("service.submit", req, request, t0, t1);
  const int wait = log->Add("service.wait", req, request, t1, t2);
  const int64_t exec_start = std::max(t1, t2 - r->elapsed_us * 1000);
  const int run = log->Add("mil.run", wait, request, exec_start, t2);
  log->AddStatements(r->traces, run, request, exec_start);
  return r;
}

const Value* ResultValue(const QueryResult& r, const std::string& name) {
  auto it = r.results.find(name);
  return it == r.results.end() ? nullptr : std::get_if<Value>(&it->second);
}

double AsNumber(const Value* v) {
  if (v == nullptr) return -1;
  auto d = v->ToDouble();
  return d.ok() ? *d : -1;
}

/// Figures shared by both service workloads, from the traced passes.
struct ServiceLayers {
  std::vector<double> queue_wait_us, exec_us, commit_wait_us;
  double admitted = 0, queued = 0, vetoed = 0, requests = 0;

  void Add(const Sample& s, bool is_commit) {
    const double wait_us = s.latency_s * 1e6 - static_cast<double>(s.exec_us);
    (is_commit ? commit_wait_us : queue_wait_us).push_back(wait_us);
    exec_us.push_back(static_cast<double>(s.exec_us));
    admitted += s.admission == Admission::kAdmit;
    queued += s.admission == Admission::kQueue;
    vetoed += s.admission == Admission::kVeto;
    requests += 1;
  }

  void Emit(Report* rep) const {
    rep->Set("service.queue_wait_us.p50", Quantile(queue_wait_us, 0.5));
    rep->Set("service.queue_wait_us.p99", Quantile(queue_wait_us, 0.99));
    rep->Set("service.exec_us.p50", Quantile(exec_us, 0.5));
    rep->Set("service.commit_wait_us.p50", Quantile(commit_wait_us, 0.5));
    rep->Set("service.commit_wait_us.p99", Quantile(commit_wait_us, 0.99));
    if (requests > 0) {
      rep->Set("service.admit_share", admitted / requests);
      rep->Set("service.queue_share", queued / requests);
      rep->Set("service.veto_share", vetoed / requests);
    }
  }
};

// ------------------------------------------------------------ point queries

constexpr double kPointScaleFactor = 0.1;
constexpr int kSetups = 3;
constexpr int kSessions = 4;
constexpr int kQueriesPerSession = 250;  // per pass
constexpr int kPoolSize = 64;            // distinct clerks and dates drawn
constexpr int kMinPasses = 3;
// The service keeps every finished query with its result bindings (nothing
// erases them), so memory grows with queries served. The run stops at this
// many passes even if time remains, which bounds memory near 1.2 GB and
// makes peak_mb the retention after a fixed number of queries.
constexpr int kMaxPasses = 40;
constexpr int kKinds = 3;

/// The three point-query shapes, keyed by a clerk (kinds 0, 1) or a ship
/// date (kind 2). Mix: 50% / 25% / 25%.
std::string PointText(int kind, const std::string& key) {
  switch (kind) {
    case 0:
      return "r := count(select(Order_clerk, \"" + key + "\"))\n";
    case 1:
      return "r := sum(semijoin(Order_totalprice, select(Order_clerk, \"" +
             key + "\")))\n";
    default:
      return "r := count(select(Item_shipdate, \"" + key + "\"))\n";
  }
}

int DrawKind(moaflat::Rng* rng) {
  const double u = rng->NextDouble();
  return u < 0.5 ? 0 : (u < 0.75 ? 1 : 2);
}

/// A direct MilInterpreter run of one point text on the catalog: the
/// answer, the statements it executed (one per line), each statement's
/// output size, and the page faults of the run from a cold start.
struct DirectRun {
  Value answer;
  std::string stmts;
  std::vector<size_t> out_size;
  uint64_t faults = 0;
};

struct Pool {
  std::vector<std::string> text[kKinds];
  std::vector<DirectRun> direct[kKinds];  // the references
};

/// Draws the clerks and dates of the run from the generated data.
Pool DrawPool(const moaflat::tpcd::TpcdData& data, uint64_t draw_seed) {
  moaflat::Rng rng(draw_seed);
  Pool pool;
  for (int i = 0; i < kPoolSize; ++i) {
    char clerk[32];
    std::snprintf(clerk, sizeof(clerk), "Clerk#%09d",
                  static_cast<int>(rng.Uniform(1, data.num_clerks)));
    const auto& item = data.items[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(data.items.size()) - 1))];
    pool.text[0].push_back(PointText(0, clerk));
    pool.text[1].push_back(PointText(1, clerk));
    pool.text[2].push_back(PointText(2, item.shipdate.ToString()));
  }
  return pool;
}

/// The references: one direct MilInterpreter run per pool entry.
void ComputeReference(const moaflat::tpcd::TpcdInstance& inst, Pool* pool,
                      Report* rep) {
  for (int k = 0; k < kKinds; ++k) {
    for (const std::string& text : pool->text[k]) {
      moaflat::mil::MilEnv env = inst.db.env();
      moaflat::storage::IoStats io;
      moaflat::kernel::ExecContext ctx;
      ctx.WithIo(&io);
      auto prog = moaflat::mil::ParseMil(text);
      DirectRun run;
      if (prog.ok()) {
        moaflat::mil::MilInterpreter interp(&env, &ctx);
        if (interp.Run(*prog).ok()) {
          auto r = env.GetValue("r");
          if (r.ok()) run.answer = *r;
          for (const moaflat::mil::StmtTrace& t : interp.traces()) {
            run.stmts += t.text + "\n";
            run.out_size.push_back(t.out_size);
          }
          run.faults = io.faults();
        }
      }
      rep->Check(!run.answer.is_nil(), "reference run failed: " + text);
      pool->direct[k].push_back(std::move(run));
    }
  }
}

/// The TPC-D catalog behind a fresh service with open sessions: one
/// set-up of service_point and service_front.
struct ServedCatalog {
  std::shared_ptr<moaflat::tpcd::TpcdInstance> inst;
  std::unique_ptr<QueryService> svc;
  std::vector<uint64_t> sessions;
};

/// Generates and loads the data, hands the catalog to a new service and
/// opens `sessions` sessions; records the set-up figures. The first set-up
/// also draws the run's pool of query texts from the generated data.
bool SetUpServedCatalog(const Options& opt, double scale_factor, int k,
                        int sessions, SpanLog* log, ServedCatalog* out,
                        Pool* pool, LayerSamples* setup, Report* rep) {
  out->svc.reset();
  out->inst.reset();
  const int root = log->Open("bench.setup", -1, k);
  const double t0 = Now();
  moaflat::tpcd::TpcdData data;
  out->inst = LoadTpcd(opt, scale_factor, root, log, setup, rep, &data);
  if (out->inst == nullptr) return false;
  int span = log->Open("service.set_catalog", root, k);
  out->svc = std::make_unique<QueryService>();
  out->svc->SetCatalog(out->inst->db.env());
  out->sessions.clear();
  for (int s = 0; s < sessions; ++s) {
    auto sid = out->svc->OpenSession(SessionOptions{});
    if (!sid.ok()) {
      rep->Fail("OpenSession: " + sid.status().ToString());
      return false;
    }
    out->sessions.push_back(*sid);
  }
  log->Close(span);
  setup->Add("setup_s", Now() - t0);
  log->Close(root);
  if (pool->text[0].empty()) *pool = DrawPool(data, DeriveSeed(opt.seed, 2));
  return true;
}

struct PointPass {
  double wall_s = 0;
  std::vector<ClientLog> clients;
  /// (kind, pool index, answer or nil) per request, checked later.
  std::vector<std::vector<std::tuple<int, int, Value>>> answers;
};

PointPass RunPointPass(QueryService& svc, const std::vector<uint64_t>& sessions,
                       const Pool& pool, uint64_t draw_seed, int pass_no,
                       SpanLog* log, int root) {
  PointPass pass;
  pass.clients.resize(kSessions);
  pass.answers.resize(kSessions);
  std::vector<std::thread> threads;
  const double t0 = Now();
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      moaflat::Rng rng(DeriveSeed(draw_seed, 1000 + pass_no * kSessions + s));
      for (int j = 0; j < kQueriesPerSession; ++j) {
        const int kind = DrawKind(&rng);
        const int idx = static_cast<int>(rng.Uniform(0, kPoolSize - 1));
        const uint64_t req = (static_cast<uint64_t>(pass_no) << 32) |
                             static_cast<uint64_t>(s * kQueriesPerSession + j);
        auto r = Request(svc, sessions[s], pool.text[kind][idx], kind, log,
                         root, req, &pass.clients[s]);
        Value answer;
        if (r.ok() && r->state == QueryState::kDone) {
          if (const Value* v = ResultValue(*r, "r")) answer = *v;
        }
        pass.answers[s].emplace_back(kind, idx, answer);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  pass.wall_s = Now() - t0;
  return pass;
}

void CheckPointPass(const PointPass& pass, const Pool& pool, Report* rep) {
  for (const auto& client : pass.answers) {
    for (const auto& [kind, idx, answer] : client) {
      rep->Attempt();
      const Value& expected = pool.direct[kind][idx].answer;
      if (!(answer == expected)) {
        rep->Fail("point query answered " +
                  (answer.is_nil() ? std::string("nothing")
                                   : answer.ToString()) +
                  ", direct run " + expected.ToString() +
                  ": " + pool.text[kind][idx]);
      }
    }
  }
}

// -------------------------------------------------------------- front end

constexpr int kFrontTexts = 10000;     // point texts per pass
constexpr int kMaxTracedPasses = 8;    // bounds the span log
// The catalog only feeds the analyzer's cardinality probes, whose cost grows
// with its logarithm. A small one keeps a set-up near 0.3 s, so five fit in a
// run and first_stream_s is a median of five.
constexpr double kFrontScaleFactor = 0.01;
constexpr int kFrontSetups = 5;
enum FrontKind { kTranslate, kParse, kAnalyze, kPrice, kFrontKinds };

/// A program's statements, one per line, as the interpreter traces them.
std::string StmtLines(const moaflat::mil::MilProgram& prog) {
  std::string out;
  for (const moaflat::mil::MilStmt& st : prog.stmts) out += st.ToString() + "\n";
  return out;
}

/// What the front end made of one point text: the parsed statements, the
/// analyzer's cardinality interval per statement and the sum of its
/// per-statement fault bounds, and Price's fault bound.
struct FrontOutput {
  std::string stmts;
  std::vector<moaflat::mil::CardInterval> card;
  double analyzed_faults = 0;
  double faults = -1;  // -1: Price failed
};

struct FrontPass {
  double wall_s = 0;
  std::vector<double> latency_s[kFrontKinds];
  /// Statements per MOA query, and the output per (kind, pool index) drawn.
  std::vector<std::string> translated;
  std::vector<std::tuple<int, int, FrontOutput>> priced;
  uint64_t failures = 0;
  std::string first_error;
};

/// The front end's references, independent of it: per MOA query of the
/// stream, the statements the engine executed (RunMonet) for an answer that
/// matches the row store (RunBaseline); per point text, Pool::direct.
std::vector<std::string> ExecutedMoaQueries(
    const std::shared_ptr<moaflat::tpcd::TpcdInstance>& inst,
    std::vector<std::string>* moa_texts, Report* rep) {
  moaflat::tpcd::QuerySuite suite(inst);
  std::vector<std::string> executed;
  for (int q = 1; q <= moaflat::tpcd::QuerySuite::kNumQueries; ++q) {
    if (suite.MoaText(q).empty()) continue;
    moa_texts->push_back(suite.MoaText(q));
    moaflat::kernel::ExecContext monet_ctx, row_ctx;
    auto monet = suite.RunMonet(q, monet_ctx);
    auto row = suite.RunBaseline(q, row_ctx);
    std::string lines;
    if (monet.ok() && row.ok() &&
        SameAnswer({monet->rows, monet->check}, {row->rows, row->check})) {
      for (const moaflat::mil::StmtTrace& t : monet->traces) {
        lines += t.text + "\n";
      }
    }
    rep->Check(!lines.empty(), "reference run of MOA query Q" +
                                   std::to_string(q) +
                                   " failed or disagrees with the row store");
    executed.push_back(std::move(lines));
  }
  return executed;
}

/// Why the front end's output for a text disagrees with the text's direct
/// run, or "" when it agrees: the parser must yield exactly the executed
/// statements, every statement's output size must lie in the analyzer's
/// interval, and Price must fold the analyzer's per-statement bounds.
/// (Whether that bound covers the run's faults is reported, not checked:
/// see service.price_below_run_share.)
std::string FrontMismatch(const FrontOutput& out, const DirectRun& run) {
  if (out.stmts != run.stmts) return "parsed statements differ from the run's";
  if (out.card.size() != run.out_size.size()) {
    return "analyzer saw " + std::to_string(out.card.size()) +
           " statements, the run executed " +
           std::to_string(run.out_size.size());
  }
  for (size_t i = 0; i < out.card.size(); ++i) {
    const double n = static_cast<double>(run.out_size[i]);
    if (n < out.card[i].lo || n > out.card[i].hi) {
      return "statement " + std::to_string(i + 1) + " returned " +
             std::to_string(run.out_size[i]) + " rows, outside the analyzer's [" +
             std::to_string(out.card[i].lo) + ", " +
             std::to_string(out.card[i].hi) + "]";
    }
  }
  if (std::fabs(out.faults - out.analyzed_faults) >
      1e-9 * std::max(1.0, out.analyzed_faults)) {
    return "priced at " + std::to_string(out.faults) +
           " faults, the analyzer's bounds sum to " +
           std::to_string(out.analyzed_faults);
  }
  return "";
}

/// One front-end pass: translate the MOA queries, then parse, analyze and
/// price a seeded draw of point-query texts, each call timed on its own.
FrontPass RunFrontPass(const moaflat::tpcd::TpcdInstance& inst,
                       const std::vector<std::string>& moa_texts,
                       QueryService& svc, uint64_t session, const Pool& pool,
                       uint64_t draw_seed, int pass_no, SpanLog* log,
                       int root) {
  FrontPass out;
  auto fail = [&](const std::string& what) {
    if (out.failures++ == 0) out.first_error = what;
  };
  const uint64_t request = static_cast<uint64_t>(pass_no);
  const double t0 = Now();
  for (const std::string& text : moa_texts) {
    moaflat::moa::Rewriter rewriter(&inst.db);
    const int span = log ? log->Open("moa.translate", root, request) : -1;
    const double a = Now();
    auto tr = rewriter.TranslateText(text);
    out.latency_s[kTranslate].push_back(Now() - a);
    if (log) log->Close(span);
    if (!tr.ok()) fail("translate: " + tr.status().ToString());
    out.translated.push_back(tr.ok() ? StmtLines(tr->program) : "");
  }
  moaflat::Rng rng(DeriveSeed(draw_seed, 5000 + static_cast<uint64_t>(pass_no)));
  for (int j = 0; j < kFrontTexts; ++j) {
    const int kind = DrawKind(&rng);
    const int idx = static_cast<int>(rng.Uniform(0, kPoolSize - 1));
    const std::string& text = pool.text[kind][idx];
    int span = log ? log->Open("mil.parse", root, request) : -1;
    double a = Now();
    auto prog = moaflat::mil::ParseMil(text);
    out.latency_s[kParse].push_back(Now() - a);
    if (log) log->Close(span);
    if (!prog.ok()) {
      fail("parse: " + text);
      continue;
    }
    span = log ? log->Open("mil.analyze", root, request) : -1;
    a = Now();
    moaflat::mil::AnalysisReport ar =
        moaflat::mil::AnalyzeProgram(*prog, inst.db.env());
    out.latency_s[kAnalyze].push_back(Now() - a);
    if (log) log->Close(span);
    if (ar.errors != 0) fail("analyzer rejected " + text);
    span = log ? log->Open("service.price", root, request) : -1;
    a = Now();
    auto price = svc.Price(session, text);
    out.latency_s[kPrice].push_back(Now() - a);
    if (log) log->Close(span);
    if (!price.ok()) fail("price: " + price.status().ToString());
    FrontOutput o{StmtLines(*prog), {}, 0, price.ok() ? price->faults : -1};
    for (const moaflat::mil::StmtInfo& st : ar.stmts) {
      o.card.push_back(st.result.card);
      o.analyzed_faults += st.faults_hi;
    }
    out.priced.emplace_back(kind, idx, std::move(o));
  }
  out.wall_s = Now() - t0;
  return out;
}

// ------------------------------------------------------------------ ingest

constexpr int kWriters = 2;
constexpr int kReaders = 2;
constexpr int kIngestPasses = 8;
constexpr int kRowsPerPass = 250;  // per writer and pass
constexpr int kRows = kIngestPasses * kRowsPerPass;
constexpr int kMinEpisodes = 3;
constexpr int kInsert = 0, kRead = 1;

/// Seeded row values per writer table: rows 0..seeded-1 are in the store's
/// first checkpoint, rows seeded..rows are inserted.
struct IngestData {
  int seeded = 1;
  int rows = 0;
  std::vector<int> value[kWriters];
  std::vector<double> prefix[kWriters];  // prefix[w][n] = sum of n values
};

IngestData MakeIngestData(uint64_t draw_seed, int seeded, int rows) {
  IngestData d;
  d.seeded = seeded;
  d.rows = rows;
  for (int w = 0; w < kWriters; ++w) {
    moaflat::Rng rng(DeriveSeed(draw_seed, 10 + w));
    d.prefix[w].push_back(0);
    for (int i = 0; i <= rows; ++i) {
      d.value[w].push_back(static_cast<int>(rng.Uniform(1, 1000)));
      d.prefix[w].push_back(d.prefix[w].back() + d.value[w].back());
    }
  }
  return d;
}

std::string TableName(int w) { return "w" + std::to_string(w); }

moaflat::Result<moaflat::bat::Bat> IntBat(const std::vector<int>& heads,
                                          const std::vector<int>& tails) {
  moaflat::bat::ColumnBuilder h(moaflat::MonetType::kInt);
  moaflat::bat::ColumnBuilder t(moaflat::MonetType::kInt);
  for (size_t i = 0; i < heads.size(); ++i) {
    MF_RETURN_NOT_OK(h.AppendValue(Value::Int(heads[i])));
    MF_RETURN_NOT_OK(t.AppendValue(Value::Int(tails[i])));
  }
  return moaflat::bat::Bat::Make(h.Finish(), t.Finish());
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

/// Store directory bytes per byte of inserted user data (8 per row).
double WalRatio(const std::string& dir, const IngestData& data) {
  return static_cast<double>(DirBytes(dir)) /
         (kWriters * (data.rows + 1 - data.seeded) * 2.0 * sizeof(int32_t));
}

/// A fresh durable store: a checkpoint of the seeded rows, a service with
/// durability enabled on it, and one durable session per writer.
struct DurableStore {
  std::unique_ptr<QueryService> svc;
  std::vector<uint64_t> writers;
  double checkpoint_ms = 0;
};

/// Creates `dir` empty and opens a DurableStore on it; the calls become
/// spans under `parent`. Fails the run and returns false on any error.
bool OpenDurableStore(const std::string& dir, const IngestData& data,
                      SpanLog* log, int parent, uint64_t request,
                      DurableStore* out, Report* rep) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) {
    rep->Fail("cannot create " + dir + ": " + ec.message());
    return false;
  }
  moaflat::mil::MilEnv seed_env;
  std::vector<int> heads(static_cast<size_t>(data.seeded));
  for (int i = 0; i < data.seeded; ++i) heads[i] = i;
  for (int w = 0; w < kWriters; ++w) {
    auto b = IntBat(heads, {data.value[w].begin(),
                            data.value[w].begin() + data.seeded});
    if (!b.ok()) {
      rep->Fail("seed table: " + b.status().ToString());
      return false;
    }
    seed_env.BindBat(TableName(w), *b);
  }
  int span = log->Open("storage.write_checkpoint", parent, request);
  const double t0 = Now();
  const moaflat::Status cp = moaflat::storage::WriteCheckpoint(dir, seed_env, 0);
  out->checkpoint_ms = (Now() - t0) * 1e3;
  log->Close(span);
  out->svc = std::make_unique<QueryService>();
  span = log->Open("service.enable_durability", parent, request);
  const moaflat::Status dur = cp.ok() ? out->svc->EnableDurability(dir) : cp;
  log->Close(span);
  out->writers.clear();
  for (int w = 0; dur.ok() && w < kWriters; ++w) {
    SessionOptions o;
    o.durable = true;
    auto sid = out->svc->OpenSession(o);
    if (sid.ok()) out->writers.push_back(*sid);
  }
  if (!dur.ok() || out->writers.size() != kWriters) {
    rep->Fail("durable set-up: " + dur.ToString());
    return false;
  }
  return true;
}

struct Episode {
  double setup_s = 0, checkpoint_ms = 0, recover_s = 0, wal_ratio = 0;
  std::vector<double> pass_s;
  std::vector<double> pass_alloc_mb;
  std::vector<std::vector<ClientLog>> clients;  // per pass
  std::vector<int> roots;                       // per pass, -1 untraced
};

/// Writers insert rows [from, to] into their tables, `batch` rows per
/// request (one commit), while the readers aggregate; readers reopen their
/// session before every read so they see the latest committed catalog, and
/// check count against sum.
double RunIngestPass(QueryService& svc, const std::vector<uint64_t>& writers,
                     const IngestData& data, int from, int to, int batch,
                     SpanLog* log, int root, uint64_t request_base,
                     std::vector<ClientLog>* clients, Report* rep) {
  clients->assign(kWriters + kReaders, ClientLog{});
  // Per client thread: operations, failures, and the first failure's text.
  std::vector<uint64_t> ops(kWriters + kReaders, 0);
  std::vector<uint64_t> fails(kWriters + kReaders, 0);
  std::vector<std::string> errors(kWriters + kReaders);
  auto fail = [&](int client, std::string what) {
    if (fails[client]++ == 0) errors[client] = std::move(what);
  };
  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> threads;
  const double t0 = Now();
  double wall = 0;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const std::string t = TableName(w);
      for (int i = from; i <= to; i += batch) {
        std::string text;
        for (int j = i; j < i + batch && j <= to; ++j) {
          text += t + " := insert(" + t + ", " + std::to_string(j) + ", " +
                  std::to_string(data.value[w][j]) + ")\n";
        }
        auto r = Request(
            svc, writers[w], text, kInsert, log, root,
            request_base + static_cast<uint64_t>(w * data.rows + i),
            &(*clients)[w]);
        ++ops[w];
        if (!r.ok() || r->state != QueryState::kDone) {
          fail(w, "insert " + text + " not acknowledged: " +
                      (r.ok() ? r->status.ToString() : r.status().ToString()));
        }
      }
      if (--writers_left == 0) wall = Now() - t0;
    });
  }
  for (int rd = 0; rd < kReaders; ++rd) {
    threads.emplace_back([&, rd] {
      const int me = kWriters + rd;
      int64_t last_count[kWriters] = {0, 0};
      for (uint64_t n = 0; writers_left.load() > 0; ++n) {
        const int w = static_cast<int>((rd + n) % kWriters);
        const std::string t = TableName(w);
        ++ops[me];
        auto sid = svc.OpenSession({});
        if (!sid.ok()) {
          fail(me, "OpenSession: " + sid.status().ToString());
          continue;
        }
        auto r = Request(svc, *sid,
                         "n := count(" + t + ")\ns := sum(" + t + ")\n",
                         kRead, log, root,
                         request_base + (1ULL << 31) + n * kReaders + rd,
                         &(*clients)[me]);
        const bool closed = svc.CloseSession(*sid).ok();
        const bool done = r.ok() && r->state == QueryState::kDone;
        const double count = done ? AsNumber(ResultValue(*r, "n")) : -1;
        const double sum = done ? AsNumber(ResultValue(*r, "s")) : -1;
        const int64_t c = static_cast<int64_t>(count);
        if (!closed || !done || c < last_count[w] || c < data.seeded ||
            c > data.rows + 1 ||
            sum != data.prefix[w][static_cast<size_t>(c)]) {
          fail(me, "read of " + t + " gave count " + std::to_string(count) +
                       ", sum " + std::to_string(sum));
        } else {
          last_count[w] = c;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kWriters + kReaders; ++c) {
    rep->Attempt(ops[c]);
    if (fails[c] > 0) rep->Fail(errors[c], fails[c]);
  }
  return wall;
}

/// Why `env` does not hold every acknowledged insert, in order, no more
/// and no fewer, or "" when it does.
std::string TableMismatch(const moaflat::mil::MilEnv& env,
                          const IngestData& data) {
  for (int w = 0; w < kWriters; ++w) {
    auto b = env.GetBat(TableName(w));
    bool ok = b.ok() && b->size() == static_cast<size_t>(data.rows) + 1;
    for (int i = 0; ok && i <= data.rows; ++i) {
      ok = b->head().GetValue(i) == Value::Int(i) &&
           b->tail().GetValue(i) == Value::Int(data.value[w][i]);
    }
    if (!ok) {
      return "table " + TableName(w) + " differs from its " +
             std::to_string(data.seeded) + " seeded rows plus the " +
             std::to_string(data.rows + 1 - data.seeded) +
             " acknowledged inserts";
    }
  }
  return "";
}

/// Recovers the store after the service is gone and checks its tables.
void CheckRecovered(const std::string& dir, const IngestData& data,
                    Episode* ep, SpanLog* log, Report* rep) {
  const int span = log->Open("storage.recover", -1, 0);
  const double t0 = Now();
  auto store = moaflat::storage::RecoverStore(dir);
  ep->recover_s = Now() - t0;
  log->Close(span);
  if (!store.ok()) {
    rep->Fail("RecoverStore: " + store.status().ToString());
    return;
  }
  const std::string why = TableMismatch(store->env, data);
  rep->Check(why.empty(), "recovered store: " + why);
}


// ---------------------------------------------------------------- recover

// Each writer's table starts with kRecoverSeeded rows and every commit logs
// the table's full new image, so 10 commits per writer give a log of ~8 MB
// while the set-up pays only 20 log fsyncs.
constexpr int kRecoverSeeded = 50000;
constexpr int kRecoverBatch = 16;  // rows per durable insert request
constexpr int kRecoverCommits = 10;  // per writer
constexpr int kRecoverSetups = 5;
enum RecoverKind { kRecover, kCheckpoint, kReopen, kRecoverKinds };

struct RecoverPass {
  double wall_s = 0;
  double latency_s[kRecoverKinds] = {};
};

/// One pass over the store built in set-up: recover it (its checkpoint plus
/// a replay of the whole log), checkpoint the recovered env into `copy`,
/// and recover that copy. Afterwards, outside the pass's time, both
/// recovered envs must hold exactly the seeded rows and acknowledged
/// inserts.
RecoverPass RunRecoverPass(const std::string& dir, const std::string& copy,
                           const IngestData& data, SpanLog* log, int root,
                           uint64_t request, Report* rep) {
  RecoverPass out;
  rep->Attempt(kRecoverKinds);
  int span = log ? log->Open("storage.recover", root, request) : -1;
  double a = Now();
  auto store = moaflat::storage::RecoverStore(dir);
  out.latency_s[kRecover] = Now() - a;
  if (log) log->Close(span);
  if (!store.ok()) {
    rep->Fail("RecoverStore: " + store.status().ToString(), kRecoverKinds);
    return out;
  }

  span = log ? log->Open("storage.write_checkpoint", root, request) : -1;
  a = Now();
  const moaflat::Status cp = moaflat::storage::WriteCheckpoint(
      copy, store->env, store->wal->next_lsn());
  out.latency_s[kCheckpoint] = Now() - a;
  if (log) log->Close(span);

  span = log ? log->Open("storage.reopen", root, request) : -1;
  a = Now();
  auto reopened = moaflat::storage::RecoverStore(copy);
  out.latency_s[kReopen] = Now() - a;
  if (log) log->Close(span);
  for (double s : out.latency_s) out.wall_s += s;

  std::string why = TableMismatch(store->env, data);
  rep->Check(why.empty(), "recovered store: " + why);
  rep->Check(cp.ok(), "WriteCheckpoint: " + cp.ToString());
  if (!reopened.ok()) {
    rep->Fail("RecoverStore of the checkpoint copy: " +
              reopened.status().ToString());
  } else {
    why = TableMismatch(reopened->env, data);
    rep->Check(why.empty(), "reopened checkpoint: " + why);
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------------ point

void RunServicePoint(const Options& opt, SpanLog* log, Report* rep) {
  SpanLog* trace = log->enabled() ? log : nullptr;
  const uint64_t draw_seed = DeriveSeed(opt.seed, 2);

  ServedCatalog served;
  Pool pool;
  LayerSamples setup;
  std::vector<PointPass> firsts;
  for (int k = 0; k < kSetups; ++k) {
    if (!SetUpServedCatalog(opt, kPointScaleFactor, k, kSessions, log,
                            &served, &pool, &setup, rep)) {
      return;
    }
    firsts.push_back(RunPointPass(*served.svc, served.sessions, pool,
                                  draw_seed, 0, nullptr, -1));
    setup.Add("first_stream_s", firsts.back().wall_s);
  }
  ComputeReference(*served.inst, &pool, rep);
  for (const PointPass& f : firsts) CheckPointPass(f, pool, rep);

  auto& mem = moaflat::storage::MemoryTracker::Global();
  mem.MarkEpoch();
  std::vector<std::vector<double>> by_kind(kKinds);
  std::vector<double> pass_s, traced_s, untraced_s, faults, alloc_mb;
  double wall_total = 0;
  LayerSamples layers;
  ServiceLayers service;
  const double cpu0 = CpuSeconds();
  const double start = Now();
  for (int p = 1;
       p <= kMinPasses || (p <= kMaxPasses && Now() - start < opt.seconds);
       ++p) {
    const bool traced = trace != nullptr && p % 2 == 0;
    const int root = traced ? trace->Open("bench.pass", -1, p) : -1;
    const uint64_t alloc0 = mem.allocated_total();
    PointPass pass = RunPointPass(*served.svc, served.sessions, pool,
                                  draw_seed, p, traced ? trace : nullptr, root);
    if (traced) trace->Close(root);
    CheckPointPass(pass, pool, rep);
    pass_s.push_back(pass.wall_s);
    wall_total += pass.wall_s;
    (traced ? traced_s : untraced_s).push_back(pass.wall_s);
    for (const ClientLog& c : pass.clients) {
      for (const Sample& s : c.samples) by_kind[s.kind].push_back(s.latency_s);
    }
    if (!traced) continue;
    KernelTotals kernels;
    uint64_t pass_faults = 0;
    for (const ClientLog& c : pass.clients) {
      for (const Sample& s : c.samples) {
        service.Add(s, false);
        pass_faults += s.faults;
      }
      kernels.Merge(c.kernels);
    }
    faults.push_back(static_cast<double>(pass_faults));
    alloc_mb.push_back((mem.allocated_total() - alloc0) / 1e6);
    layers.AddPass(*trace, root, kernels, pass.wall_s * 1e3);
  }
  const double wall = Now() - start;
  const double cpu = CpuSeconds() - cpu0;

  setup.Emit(rep);
  rep->Set("stream_s", Median(pass_s));
  rep->Set("peak_mb", mem.peak() / 1e6);
  SetLatencyMetrics(by_kind, wall_total, rep);
  const moaflat::service::ServiceConfig cfg;
  rep->Set("parallel.cpu_per_wall", cpu / wall);
  rep->Set("parallel.efficiency", cpu / wall / cfg.executors);
  if (trace == nullptr) return;
  layers.Emit(rep);
  service.Emit(rep);
  rep->Set("storage.faults", Median(faults));
  rep->Set("storage.intermediate_mb", Median(alloc_mb));
  rep->Set("trace.overhead_frac", Median(traced_s) / Median(untraced_s) - 1);
}

// -------------------------------------------------------------- front end

void RunServiceFront(const Options& opt, SpanLog* log, Report* rep) {
  SpanLog* trace = log->enabled() ? log : nullptr;
  const uint64_t draw_seed = DeriveSeed(opt.seed, 2);

  ServedCatalog served;
  Pool pool;
  LayerSamples setup;
  std::vector<FrontPass> firsts;
  std::vector<std::string> moa_texts;
  for (int k = 0; k < kFrontSetups; ++k) {
    if (!SetUpServedCatalog(opt, kFrontScaleFactor, k, 1, log, &served,
                            &pool, &setup, rep)) {
      return;
    }
    if (moa_texts.empty()) {
      moaflat::tpcd::QuerySuite suite(served.inst);
      for (int q = 1; q <= moaflat::tpcd::QuerySuite::kNumQueries; ++q) {
        if (!suite.MoaText(q).empty()) moa_texts.push_back(suite.MoaText(q));
      }
    }
    firsts.push_back(RunFrontPass(*served.inst, moa_texts, *served.svc,
                                  served.sessions[0], pool, draw_seed, 0,
                                  nullptr, -1));
    setup.Add("first_stream_s", firsts.back().wall_s);
  }

  // The references come from the engine itself, after every set-up's first
  // pass so that their kernel runs cannot warm those passes.
  std::vector<std::string> moa_reference;
  const std::vector<std::string> executed =
      ExecutedMoaQueries(served.inst, &moa_reference, rep);
  rep->Check(moa_reference == moa_texts, "MOA query texts changed");
  ComputeReference(*served.inst, &pool, rep);
  // Texts priced, and those whose Price bound lies below the faults of the
  // direct run although the analyzer calls its bound sound.
  double priced = 0, below_run = 0;
  auto check = [&](const FrontPass& pass) {
    rep->Attempt(pass.translated.size() + 3 * pass.priced.size());
    if (pass.failures > 0) rep->Fail(pass.first_error, pass.failures);
    for (size_t i = 0; i < pass.translated.size(); ++i) {
      rep->Check(i < executed.size() && pass.translated[i] == executed[i],
                 "translation of MOA query " + std::to_string(i) +
                     " differs from the MIL the engine executed");
    }
    for (const auto& [kind, idx, out] : pass.priced) {
      const DirectRun& run = pool.direct[kind][idx];
      const std::string why = FrontMismatch(out, run);
      rep->Check(why.empty(), why + ": " + pool.text[kind][idx]);
      priced += 1;
      below_run += out.faults < static_cast<double>(run.faults);
    }
  };
  for (const FrontPass& f : firsts) check(f);

  auto& mem = moaflat::storage::MemoryTracker::Global();
  mem.MarkEpoch();
  std::vector<std::vector<double>> by_kind(kFrontKinds);
  std::vector<double> pass_s, traced_s, untraced_s;
  double wall_total = 0;
  int traced_passes = 0;
  LayerSamples layers;
  const double cpu0 = CpuSeconds();
  const double start = Now();
  for (int p = 1; p <= kMinPasses || Now() - start < opt.seconds; ++p) {
    const bool traced =
        trace != nullptr && p % 2 == 0 && traced_passes < kMaxTracedPasses;
    const int root = traced ? trace->Open("bench.pass", -1, p) : -1;
    FrontPass pass = RunFrontPass(*served.inst, moa_texts, *served.svc,
                                  served.sessions[0], pool, draw_seed, p,
                                  traced ? trace : nullptr, root);
    if (traced) trace->Close(root);
    check(pass);
    pass_s.push_back(pass.wall_s);
    wall_total += pass.wall_s;
    for (int k = 0; k < kFrontKinds; ++k) {
      by_kind[k].insert(by_kind[k].end(), pass.latency_s[k].begin(),
                        pass.latency_s[k].end());
    }
    if (trace != nullptr && !traced && traced_passes < kMaxTracedPasses) {
      untraced_s.push_back(pass.wall_s);
    }
    if (!traced) continue;
    ++traced_passes;
    traced_s.push_back(pass.wall_s);
    layers.AddPass(*trace, root, KernelTotals{}, pass.wall_s * 1e3);
    double ms = 0;
    for (double s : pass.latency_s[kTranslate]) ms += s * 1e3;
    layers.Add("moa.rewrite_ms", ms);
    layers.Add("mil.parse_us", Median(pass.latency_s[kParse]) * 1e6);
    layers.Add("mil.analyze_us", Median(pass.latency_s[kAnalyze]) * 1e6);
    layers.Add("service.price_us", Median(pass.latency_s[kPrice]) * 1e6);
  }
  const double wall = Now() - start;
  const double cpu = CpuSeconds() - cpu0;

  setup.Emit(rep);
  rep->Set("stream_s", Median(pass_s));
  rep->Set("peak_mb", mem.peak() / 1e6);
  SetLatencyMetrics(by_kind, wall_total, rep);
  rep->Set("parallel.cpu_per_wall", cpu / wall);
  rep->Set("parallel.efficiency", cpu / wall);
  if (trace == nullptr) return;
  layers.Emit(rep);
  rep->Set("service.price_below_run_share", below_run / priced);
  rep->Set("trace.overhead_frac", Median(traced_s) / Median(untraced_s) - 1);
}

// ----------------------------------------------------------------- ingest

void RunServiceIngest(const Options& opt, SpanLog* log, Report* rep) {
  SpanLog* trace = log->enabled() ? log : nullptr;
  const IngestData data = MakeIngestData(DeriveSeed(opt.seed, 2), 1, kRows);
  const std::string base = opt.out_dir + "/ingest-" + std::to_string(getpid());

  auto& mem = moaflat::storage::MemoryTracker::Global();
  mem.MarkEpoch();
  std::vector<Episode> episodes;
  const double cpu0 = CpuSeconds();
  const double start = Now();
  for (int e = 0; e < kMinEpisodes || Now() - start < opt.seconds; ++e) {
    Episode ep;
    const std::string dir = base + "-" + std::to_string(e);
    const int setup = log->Open("bench.setup", -1, e);
    const double t0 = Now();
    DurableStore store;
    const bool opened = OpenDurableStore(dir, data, log, setup, e, &store, rep);
    ep.setup_s = Now() - t0;
    ep.checkpoint_ms = store.checkpoint_ms;
    log->Close(setup);
    if (!opened) return;
    QueryService* svc = store.svc.get();
    const std::vector<uint64_t>& writers = store.writers;

    // --- passes: the tables grow from 1 to kRows + 1 rows -----------------
    for (int p = 0; p < kIngestPasses; ++p) {
      const bool traced = trace != nullptr && (e + p) % 2 == 1;
      const int root = traced ? trace->Open("bench.pass", -1, p) : -1;
      ep.clients.emplace_back();
      const uint64_t alloc0 = mem.allocated_total();
      ep.pass_s.push_back(RunIngestPass(
          *svc, writers, data, p * kRowsPerPass + 1, (p + 1) * kRowsPerPass,
          1, traced ? trace : nullptr, root,
          (static_cast<uint64_t>(e) << 40) | (static_cast<uint64_t>(p) << 36),
          &ep.clients.back(), rep));
      if (traced) trace->Close(root);
      ep.roots.push_back(root);
      ep.pass_alloc_mb.push_back((mem.allocated_total() - alloc0) / 1e6);
    }
    // Not drained: no final checkpoint, so recovery replays the whole log.
    svc->Shutdown(false);
    store.svc.reset();
    ep.wal_ratio = WalRatio(dir, data);
    CheckRecovered(dir, data, &ep, log, rep);
    std::error_code ec;
    fs::remove_all(dir, ec);
    episodes.push_back(std::move(ep));
  }
  const double wall = Now() - start;
  const double cpu = CpuSeconds() - cpu0;

  std::vector<double> setup_s, first_s, warm_s, ckpt_ms, recover_s, wal_ratio;
  std::vector<double> traced_s, untraced_s, faults, alloc_mb;
  std::vector<std::vector<double>> by_kind(2);
  double warm_total = 0;
  LayerSamples layers;
  ServiceLayers service;
  for (const Episode& ep : episodes) {
    setup_s.push_back(ep.setup_s);
    ckpt_ms.push_back(ep.checkpoint_ms);
    recover_s.push_back(ep.recover_s);
    wal_ratio.push_back(ep.wal_ratio);
    first_s.push_back(ep.pass_s[0]);
    for (size_t p = 1; p < ep.pass_s.size(); ++p) {
      warm_s.push_back(ep.pass_s[p]);
      warm_total += ep.pass_s[p];
      for (const ClientLog& c : ep.clients[p]) {
        for (const Sample& s : c.samples) by_kind[s.kind].push_back(s.latency_s);
      }
    }
    for (size_t p = 0; p < ep.pass_s.size(); ++p) {
      (ep.roots[p] >= 0 ? traced_s : untraced_s).push_back(ep.pass_s[p]);
      if (ep.roots[p] < 0) continue;
      KernelTotals kernels;
      uint64_t pass_faults = 0;
      for (const ClientLog& c : ep.clients[p]) {
        for (const Sample& s : c.samples) {
          service.Add(s, s.kind == kInsert);
          pass_faults += s.faults;
        }
        kernels.Merge(c.kernels);
      }
      faults.push_back(static_cast<double>(pass_faults));
      alloc_mb.push_back(ep.pass_alloc_mb[p]);
      layers.AddPass(*trace, ep.roots[p], kernels, ep.pass_s[p] * 1e3);
    }
  }
  rep->Set("setup_s", Median(setup_s));
  rep->Set("first_stream_s", Median(first_s));
  rep->Set("stream_s", Median(warm_s));
  rep->Set("peak_mb", mem.peak() / 1e6);
  SetLatencyMetrics(by_kind, warm_total, rep);

  const moaflat::service::ServiceConfig cfg;
  rep->Set("parallel.cpu_per_wall", cpu / wall);
  rep->Set("parallel.efficiency", cpu / wall / cfg.executors);
  if (trace == nullptr) return;
  layers.Emit(rep);
  service.Emit(rep);
  rep->Set("storage.faults", Median(faults));
  rep->Set("storage.intermediate_mb", Median(alloc_mb));
  rep->Set("storage.checkpoint_ms", Median(ckpt_ms));
  rep->Set("storage.recover_s", Median(recover_s));
  rep->Set("storage.wal_bytes_per_user_byte", Median(wal_ratio));
  // Traced and untraced passes alternate, so each pass position of the
  // growing tables is sampled on both sides across episodes.
  rep->Set("trace.overhead_frac", Median(traced_s) / Median(untraced_s) - 1);
}


// ---------------------------------------------------------------- recover

void RunStorageRecover(const Options& opt, SpanLog* log, Report* rep) {
  SpanLog* trace = log->enabled() ? log : nullptr;
  const IngestData data =
      MakeIngestData(DeriveSeed(opt.seed, 2), kRecoverSeeded,
                     kRecoverSeeded + kRecoverCommits * kRecoverBatch - 1);
  const std::string base = opt.out_dir + "/recover-" + std::to_string(getpid());
  const std::string dir = base + "-store";
  const std::string copy = base + "-copy";

  // --- set-up: the store, built through the durable service ---------------
  LayerSamples setup;
  ServiceLayers service;
  std::vector<double> wal_ratio;
  for (int k = 0; k < kRecoverSetups; ++k) {
    const int root = log->Open("bench.setup", -1, k);
    const double t0 = Now();
    DurableStore store;
    if (!OpenDurableStore(dir, data, log, root, k, &store, rep)) return;
    std::vector<ClientLog> clients;
    RunIngestPass(*store.svc, store.writers, data, data.seeded, data.rows,
                  kRecoverBatch, trace, root, static_cast<uint64_t>(k) << 40,
                  &clients, rep);
    // Not drained: no final checkpoint, so recovery replays the whole log.
    store.svc->Shutdown(false);
    store.svc.reset();
    std::error_code ec;
    fs::remove_all(copy, ec);
    fs::create_directories(copy, ec);
    setup.Add("setup_s", Now() - t0);
    log->Close(root);
    if (ec) {
      rep->Fail("cannot create " + copy + ": " + ec.message());
      return;
    }
    for (const ClientLog& c : clients) {
      for (const Sample& s : c.samples) service.Add(s, s.kind == kInsert);
    }
    wal_ratio.push_back(WalRatio(dir, data));
    setup.Add("first_stream_s",
              RunRecoverPass(dir, copy, data, nullptr, -1, 0, rep).wall_s);
  }

  // --- passes over the last set-up's store ---------------------------------
  auto& mem = moaflat::storage::MemoryTracker::Global();
  mem.MarkEpoch();
  std::vector<std::vector<double>> by_kind(kRecoverKinds);
  std::vector<double> pass_s, traced_s, untraced_s, alloc_mb, recover_s,
      checkpoint_ms;
  double wall_total = 0;
  LayerSamples layers;
  const double cpu0 = CpuSeconds();
  const double start = Now();
  for (int p = 1; p <= kMinPasses || Now() - start < opt.seconds; ++p) {
    const bool traced = trace != nullptr && p % 2 == 0;
    const int root = traced ? trace->Open("bench.pass", -1, p) : -1;
    const uint64_t alloc0 = mem.allocated_total();
    const RecoverPass pass = RunRecoverPass(
        dir, copy, data, traced ? trace : nullptr, root, p, rep);
    if (traced) trace->Close(root);
    pass_s.push_back(pass.wall_s);
    wall_total += pass.wall_s;
    for (int k = 0; k < kRecoverKinds; ++k) {
      by_kind[k].push_back(pass.latency_s[k]);
    }
    if (trace == nullptr) continue;
    (traced ? traced_s : untraced_s).push_back(pass.wall_s);
    if (!traced) continue;
    alloc_mb.push_back((mem.allocated_total() - alloc0) / 1e6);
    recover_s.push_back(pass.latency_s[kRecover]);
    checkpoint_ms.push_back(pass.latency_s[kCheckpoint] * 1e3);
    layers.AddPass(*trace, root, KernelTotals{}, pass.wall_s * 1e3);
  }
  const double wall = Now() - start;
  const double cpu = CpuSeconds() - cpu0;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::remove_all(copy, ec);

  setup.Emit(rep);
  rep->Set("stream_s", Median(pass_s));
  rep->Set("peak_mb", mem.peak() / 1e6);
  SetLatencyMetrics(by_kind, wall_total, rep);
  rep->Set("parallel.cpu_per_wall", cpu / wall);
  rep->Set("parallel.efficiency", cpu / wall);
  if (trace == nullptr) return;
  layers.Emit(rep);
  service.Emit(rep);
  rep->Set("storage.intermediate_mb", Median(alloc_mb));
  rep->Set("storage.checkpoint_ms", Median(checkpoint_ms));
  rep->Set("storage.recover_s", Median(recover_s));
  rep->Set("storage.wal_bytes_per_user_byte", Median(wal_ratio));
  rep->Set("trace.overhead_frac", Median(traced_s) / Median(untraced_s) - 1);
}

}  // namespace perfbench
