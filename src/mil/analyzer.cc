#include "mil/analyzer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "kernel/cost_model.h"
#include "kernel/operators.h"
#include "kernel/registry.h"
#include "kernel/scalar_fn.h"

namespace moaflat::mil {
namespace {

using bat::Bat;
using kernel::Bound;
using kernel::DispatchInput;
using kernel::OperandView;
using kernel::OpParam;

// ------------------------------------------------------------- vocabulary

bool IsSetAggOp(const std::string& op) {
  return op.size() > 2 && op.front() == '{' && op.back() == '}';
}
bool IsMultiplexOp(const std::string& op) {
  return op.size() > 2 && op.front() == '[' && op.back() == ']';
}
bool IsScalarAggOp(const std::string& op) {
  return op == "sum" || op == "count" || op == "avg" || op == "min" ||
         op == "max";
}
bool IsAggName(const std::string& name) { return IsScalarAggOp(name); }

/// Arity of the scalar-function vocabulary (kernel/scalar_fn.h); -1 =
/// unknown function.
int ScalarFnArity(const std::string& fn) {
  if (fn == "+" || fn == "-" || fn == "*" || fn == "/" || fn == "=" ||
      fn == "!=" || fn == "<" || fn == "<=" || fn == ">" || fn == ">=" ||
      fn == "and" || fn == "or" || fn == "like" || fn == "concat") {
    return 2;
  }
  if (fn == "not" || fn == "year" || fn == "month" || fn == "day" ||
      fn == "length") {
    return 1;
  }
  if (fn == "ifthen") return 3;
  return -1;
}

/// Void columns carry dense oids; every type comparison first folds them
/// into kOidT so `join(x, extent)` style plans type-check.
MonetType Norm(MonetType t) {
  return t == MonetType::kVoid ? MonetType::kOidT : t;
}

/// How two key types relate for equality-style matching (join heads,
/// select values): exact same normalized type, comparable-but-lossy
/// (differing numeric representations hash/compare differently), or
/// incomparable (str against anything else — the runtime silently matches
/// nothing, see Column::CompareValue).
enum class TypeMatch { kExact, kLossy, kIncomparable };

TypeMatch MatchTypes(MonetType a, MonetType b) {
  const MonetType na = Norm(a);
  const MonetType nb = Norm(b);
  if (na == nb) return TypeMatch::kExact;
  if ((na == MonetType::kStr) != (nb == MonetType::kStr)) {
    return TypeMatch::kIncomparable;
  }
  return TypeMatch::kLossy;
}

// ------------------------------------------------------------- cost model

double PagesOf(const OperandView& v) {
  return kernel::HeapPages(v.size, v.head_width) +
         kernel::HeapPages(v.size, v.tail_width);
}

double FamilyPrice(const std::string& family, const DispatchInput& in) {
  if (auto c = kernel::KernelRegistry::Global().PriceCheapest(family, in)) {
    return *c;
  }
  double pages = PagesOf(in.left);
  if (in.right) pages += PagesOf(*in.right);
  return pages + kernel::kCpuSequential;
}

/// Dispatch view of an abstract binding at one end of its cardinality
/// interval. Catalog-bound names snapshot the real BAT (exact properties
/// and accelerators); derived results are property-free, which prices the
/// scan/hash variants and never a sorted-only shortcut the real result
/// might not support.
OperandView ViewAt(const AbstractBinding& b, double rows) {
  if (b.bound != nullptr) return OperandView::Of(*b.bound);
  OperandView v;
  if (rows < 0) rows = 0;
  v.size = static_cast<size_t>(std::llround(rows));
  v.head_width = TypeWidth(b.head);
  v.tail_width = TypeWidth(b.tail);
  v.head_void = b.head == MonetType::kVoid;
  v.tail_void = b.tail == MonetType::kVoid;
  v.head_oidlike = Norm(b.head) == MonetType::kOidT;
  v.tail_oidlike = Norm(b.tail) == MonetType::kOidT;
  v.props.hkey = b.head_key;
  return v;
}

// --------------------------------------------------------------- analyzer

constexpr double kUnknownRows = 1e15;  // cardinality of failed inference

class Analyzer {
 public:
  explicit Analyzer(const MilEnv& env) : env_(env) {}

  AnalysisReport Analyze(const MilProgram& program) {
    // First-def lines let name resolution distinguish "used before its
    // definition on line N" from a plain unknown name.
    for (const MilStmt& s : program.stmts) {
      if (first_def_.count(s.var) == 0) first_def_[s.var] = s.line;
    }

    for (const MilStmt& stmt : program.stmts) {
      stmt_ = &stmt;
      CheckShadow(stmt);
      AbstractBinding result = AnalyzeStmt(stmt);

      StmtInfo info;
      info.line = stmt.line;
      info.var = stmt.var;
      info.text = stmt.ToString();
      info.result = result;
      PriceStmt(stmt, result, &info);
      report_.stmts.push_back(std::move(info));

      DefInfo& def = defs_[stmt.var];
      def.line = stmt.line;
      def.read = false;
      bindings_[stmt.var] = result;
    }

    Hygiene(program);
    report_.bindings = bindings_;
    for (const Diagnostic& d : report_.diagnostics) {
      (d.severity == Severity::kError ? report_.errors : report_.warnings)++;
    }
    std::stable_sort(report_.diagnostics.begin(), report_.diagnostics.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                       return a.line < b.line;
                     });
    return std::move(report_);
  }

 private:
  struct DefInfo {
    int line = 0;
    bool read = false;
  };

  void Error(std::string msg) {
    report_.diagnostics.push_back(Diagnostic{
        Severity::kError, stmt_->line, stmt_->var, std::move(msg)});
  }
  void Warn(std::string msg) {
    report_.diagnostics.push_back(Diagnostic{
        Severity::kWarning, stmt_->line, stmt_->var, std::move(msg)});
  }

  static AbstractBinding Unknown() {
    AbstractBinding b;
    b.kind = AbstractBinding::Kind::kUnknown;
    b.card = {0, kUnknownRows};
    return b;
  }

  static AbstractBinding BatOf(MonetType head, MonetType tail,
                               CardInterval card, bool head_key) {
    AbstractBinding b;
    b.kind = AbstractBinding::Kind::kBat;
    b.head = head;
    b.tail = tail;
    b.card = card;
    b.head_key = head_key;
    return b;
  }

  static AbstractBinding ScalarOf(MonetType t) {
    AbstractBinding b;
    b.kind = AbstractBinding::Kind::kScalar;
    b.scalar = t;
    b.card = {1, 1};
    return b;
  }

  /// Resolves a name against the program-so-far, then the environment
  /// catalog. Marks the in-program definition as read.
  const AbstractBinding* Lookup(const std::string& name) {
    auto def = defs_.find(name);
    if (def != defs_.end()) def->second.read = true;
    auto it = bindings_.find(name);
    if (it != bindings_.end()) return &it->second;
    auto env_it = env_.bindings().find(name);
    if (env_it == env_.bindings().end()) return nullptr;
    AbstractBinding b;
    if (const Bat* bat = std::get_if<Bat>(&env_it->second)) {
      b.kind = AbstractBinding::Kind::kBat;
      b.head = bat->head().type();
      b.tail = bat->tail().type();
      b.card = {static_cast<double>(bat->size()),
                static_cast<double>(bat->size())};
      b.head_key = bat->props().hkey || bat->head().is_void();
      b.bound = bat;
    } else {
      b.kind = AbstractBinding::Kind::kScalar;
      b.scalar = std::get<Value>(env_it->second).type();
      b.card = {1, 1};
    }
    return &(bindings_[name] = b);
  }

  /// A BAT operand at argument position `i`; emits the appropriate
  /// diagnostic (missing / literal / scalar / undefined / use-before-def)
  /// and returns Unknown() so later statements do not cascade.
  AbstractBinding BatArg(size_t i) {
    const MilStmt& s = *stmt_;
    if (i >= s.args.size()) {
      Error("operator '" + s.op + "' is missing argument " +
            std::to_string(i + 1));
      return Unknown();
    }
    const MilArg& a = s.args[i];
    if (a.kind != MilArg::Kind::kVar) {
      Error("argument " + std::to_string(i + 1) + " of '" + s.op +
            "' must be a BAT, got literal " + a.lit.ToString());
      return Unknown();
    }
    const AbstractBinding* b = Lookup(a.var);
    if (b == nullptr) {
      auto fd = first_def_.find(a.var);
      if (fd != first_def_.end()) {
        Error("variable '" + a.var + "' used before its definition (line " +
              std::to_string(fd->second) + ")");
      } else {
        Error("unknown MIL variable '" + a.var + "'");
      }
      return Unknown();
    }
    if (b->kind == AbstractBinding::Kind::kScalar) {
      Error("argument " + std::to_string(i + 1) + " of '" + s.op +
            "' must be a BAT; '" + a.var + "' is a " +
            std::string(TypeName(b->scalar)) + " scalar");
      return Unknown();
    }
    return *b;
  }

  /// A scalar operand (literal, or a name bound to a scalar). Type is
  /// kVoid when only known at run time is impossible here — every path
  /// yields a type or diagnoses. Returns nullopt on error.
  std::optional<MonetType> ValArg(size_t i) {
    const MilStmt& s = *stmt_;
    if (i >= s.args.size()) {
      Error("operator '" + s.op + "' is missing argument " +
            std::to_string(i + 1));
      return std::nullopt;
    }
    const MilArg& a = s.args[i];
    if (a.kind == MilArg::Kind::kLit) return a.lit.type();
    const AbstractBinding* b = Lookup(a.var);
    if (b == nullptr) {
      auto fd = first_def_.find(a.var);
      if (fd != first_def_.end()) {
        Error("variable '" + a.var + "' used before its definition (line " +
              std::to_string(fd->second) + ")");
      } else {
        Error("unknown MIL variable '" + a.var + "'");
      }
      return std::nullopt;
    }
    if (b->kind == AbstractBinding::Kind::kBat) {
      Error("argument " + std::to_string(i + 1) + " of '" + s.op +
            "' must be a scalar; '" + a.var + "' is a BAT");
      return std::nullopt;
    }
    if (b->kind == AbstractBinding::Kind::kUnknown) return std::nullopt;
    return b->scalar;
  }

  /// Literal or catalog-bound scalar *value* of an argument; nullopt when
  /// the value only exists at run time (a calc.* result) or is missing.
  std::optional<Value> MaybeVal(size_t i) const {
    if (i >= stmt_->args.size()) return std::nullopt;
    const MilArg& a = stmt_->args[i];
    if (a.kind == MilArg::Kind::kLit) return a.lit;
    auto it = env_.bindings().find(a.var);
    if (it != env_.bindings().end() && defs_.count(a.var) == 0) {
      if (const Value* v = std::get_if<Value>(&it->second)) return *v;
    }
    return std::nullopt;
  }

  void CheckArity(size_t want) {
    if (stmt_->args.size() != want) {
      Error("operator '" + stmt_->op + "' expects " + std::to_string(want) +
            " argument" + (want == 1 ? "" : "s") + ", got " +
            std::to_string(stmt_->args.size()));
    }
  }

  /// Rebinding a name whose previous in-program definition was never read
  /// makes the earlier statement unobservable.
  void CheckShadow(const MilStmt& stmt) {
    auto it = defs_.find(stmt.var);
    if (it != defs_.end() && !it->second.read) {
      report_.diagnostics.push_back(Diagnostic{
          Severity::kWarning, stmt.line, stmt.var,
          "rebinds '" + stmt.var + "' before the definition on line " +
              std::to_string(it->second.line) + " is ever read"});
    }
  }

  // ----------------------------------------------------- type inference

  AbstractBinding AnalyzeStmt(const MilStmt& stmt) {
    const std::string& op = stmt.op;

    if (op.rfind("calc.", 0) == 0) return AnalyzeCalc(stmt);
    if (IsScalarAggOp(op) && stmt.args.size() == 1) {
      return AnalyzeScalarAgg(stmt);
    }
    if (IsMultiplexOp(op)) return AnalyzeMultiplex(stmt);
    if (IsSetAggOp(op)) return AnalyzeSetAgg(stmt);
    if (op == "select" || op.rfind("select.", 0) == 0) {
      return AnalyzeSelect(stmt);
    }
    if (op == "join" || op == "semijoin" || op == "kintersect" ||
        op == "kdiff" || op == "kunion") {
      return AnalyzeBinarySetOp(stmt);
    }
    if (op.rfind("thetajoin.", 0) == 0) return AnalyzeThetaJoin(stmt);
    if (op == "fetch") return AnalyzeFetch(stmt);
    if (op == "histogram") {
      CheckArity(1);
      AbstractBinding in = BatArg(0);
      if (in.kind != AbstractBinding::Kind::kBat) return Unknown();
      return BatOf(MonetType::kOidT, MonetType::kLng,
                   {in.card.lo > 0 ? 1.0 : 0.0, in.card.hi}, true);
    }
    if (op == "mirror") {
      CheckArity(1);
      AbstractBinding in = BatArg(0);
      if (in.kind != AbstractBinding::Kind::kBat) return Unknown();
      return BatOf(in.tail, in.head, in.card, false);
    }
    if (op == "unique" || op == "hunique") {
      CheckArity(1);
      AbstractBinding in = BatArg(0);
      if (in.kind != AbstractBinding::Kind::kBat) return Unknown();
      return BatOf(in.head, in.tail, {in.card.lo > 0 ? 1.0 : 0.0, in.card.hi},
                   op == "hunique" || in.head_key);
    }
    if (op == "group") return AnalyzeGroup(stmt);
    if (op == "mark") return AnalyzeMark();
    if (op == "extent") {
      CheckArity(1);
      AbstractBinding in = BatArg(0);
      if (in.kind != AbstractBinding::Kind::kBat) return Unknown();
      return BatOf(in.head, MonetType::kVoid, in.card, in.head_key);
    }
    if (op == "insert") return AnalyzeInsert();
    if (op == "slice") return AnalyzeSlice();
    if (op == "sort") {
      CheckArity(1);
      AbstractBinding in = BatArg(0);
      if (in.kind != AbstractBinding::Kind::kBat) return Unknown();
      return BatOf(in.head, in.tail, in.card, in.head_key);
    }
    if (op == "topn_max" || op == "topn_min") return AnalyzeTopN();
    if (op == "project") return AnalyzeProject();
    if (op == "append") return AnalyzeAppend();

    if (IsScalarAggOp(op)) {
      Error("aggregate '" + op + "' expects exactly 1 BAT argument, got " +
            std::to_string(stmt.args.size()));
      return Unknown();
    }
    Error("unknown MIL operator '" + op + "'");
    return Unknown();
  }

  /// Element-type applicability of one scalar-function argument; kVoid
  /// elements (unknown upstream) are skipped.
  void CheckScalarFnArg(const std::string& fn, size_t pos, MonetType t) {
    if (t == MonetType::kVoid) return;
    const bool numeric_fn =
        fn == "+" || fn == "-" || fn == "*" || fn == "/";
    if (numeric_fn && t == MonetType::kStr) {
      Error("'" + fn + "' needs numeric operands, argument " +
            std::to_string(pos + 1) + " is str");
    }
    if ((fn == "and" || fn == "or" || fn == "not") && t != MonetType::kBit) {
      Error("'" + fn + "' needs bit operands, argument " +
            std::to_string(pos + 1) + " is " + TypeName(t));
    }
    if ((fn == "year" || fn == "month" || fn == "day") &&
        t != MonetType::kDate) {
      Error("'" + fn + "' needs a date operand, got " + TypeName(t));
    }
    if ((fn == "like" || fn == "length" || fn == "concat") &&
        t != MonetType::kStr) {
      Error("'" + fn + "' needs str operands, argument " +
            std::to_string(pos + 1) + " is " + TypeName(t));
    }
    if (fn == "ifthen" && pos == 0 && t != MonetType::kBit) {
      Error("'ifthen' needs a bit condition, got " + std::string(TypeName(t)));
    }
  }

  void CheckCmpOperands(const std::string& fn,
                        const std::vector<MonetType>& els) {
    const bool cmp = fn == "=" || fn == "!=" || fn == "<" || fn == "<=" ||
                     fn == ">" || fn == ">=";
    if (!cmp || els.size() != 2) return;
    if (els[0] == MonetType::kVoid || els[1] == MonetType::kVoid) return;
    if (MatchTypes(els[0], els[1]) == TypeMatch::kIncomparable) {
      Error("'" + fn + "' compares " + std::string(TypeName(els[0])) +
            " with " + TypeName(els[1]) + "; str only compares with str");
    }
  }

  AbstractBinding AnalyzeCalc(const MilStmt& stmt) {
    const std::string fn = stmt.op.substr(5);
    const int arity = ScalarFnArity(fn);
    if (arity < 0) {
      Error("unknown scalar fn '" + fn + "'");
      return Unknown();
    }
    if (static_cast<int>(stmt.args.size()) != arity) {
      Error("scalar fn '" + fn + "' expects " + std::to_string(arity) +
            " args, got " + std::to_string(stmt.args.size()));
      return Unknown();
    }
    std::vector<MonetType> els;
    bool bad = false;
    for (size_t i = 0; i < stmt.args.size(); ++i) {
      auto t = ValArg(i);
      if (!t) {
        bad = true;
        els.push_back(MonetType::kVoid);
        continue;
      }
      els.push_back(*t);
      CheckScalarFnArg(fn, i, *t);
    }
    CheckCmpOperands(fn, els);
    if (bad) return Unknown();
    auto rt = kernel::ScalarResultType(fn, els);
    if (!rt.ok()) {
      Error(rt.status().message());
      return Unknown();
    }
    return ScalarOf(*rt);
  }

  AbstractBinding AnalyzeScalarAgg(const MilStmt& stmt) {
    AbstractBinding in = BatArg(0);
    if (in.kind != AbstractBinding::Kind::kBat) return Unknown();
    const std::string& op = stmt.op;
    if ((op == "sum" || op == "avg") && in.tail == MonetType::kStr) {
      Error("'" + op + "' needs a numeric tail, '" +
            stmt.args[0].ToString() + "' has a str tail");
      return Unknown();
    }
    if (op == "sum" || op == "avg") return ScalarOf(MonetType::kDbl);
    if (op == "count") return ScalarOf(MonetType::kLng);
    return ScalarOf(Norm(in.tail));  // min / max
  }

  AbstractBinding AnalyzeMultiplex(const MilStmt& stmt) {
    const std::string fn = stmt.op.substr(1, stmt.op.size() - 2);
    const int arity = ScalarFnArity(fn);
    if (arity < 0) {
      Error("unknown scalar fn '" + fn + "' in multiplex");
      return Unknown();
    }
    if (static_cast<int>(stmt.args.size()) != arity) {
      Error("multiplex [" + fn + "] expects " + std::to_string(arity) +
            " args, got " + std::to_string(stmt.args.size()));
      return Unknown();
    }
    // Element type per argument: a BAT contributes its tail, a scalar its
    // value type. The first BAT is the driver; the result is one value per
    // driver BUN.
    std::vector<MonetType> els;
    const AbstractBinding* driver = nullptr;
    double other_hi_factor = 1;
    bool bad = false;
    for (size_t i = 0; i < stmt.args.size(); ++i) {
      const MilArg& a = stmt.args[i];
      if (a.kind == MilArg::Kind::kLit) {
        els.push_back(a.lit.type());
        CheckScalarFnArg(fn, i, a.lit.type());
        continue;
      }
      const AbstractBinding* b = Lookup(a.var);
      if (b == nullptr) {
        auto fd = first_def_.find(a.var);
        if (fd != first_def_.end()) {
          Error("variable '" + a.var +
                "' used before its definition (line " +
                std::to_string(fd->second) + ")");
        } else {
          Error("unknown MIL variable '" + a.var + "'");
        }
        bad = true;
        els.push_back(MonetType::kVoid);
        continue;
      }
      if (b->kind == AbstractBinding::Kind::kUnknown) {
        bad = true;
        els.push_back(MonetType::kVoid);
        continue;
      }
      if (b->kind == AbstractBinding::Kind::kScalar) {
        els.push_back(b->scalar);
        CheckScalarFnArg(fn, i, b->scalar);
        continue;
      }
      els.push_back(b->tail);
      CheckScalarFnArg(fn, i, b->tail);
      if (driver == nullptr) {
        driver = b;
      } else if (!b->head_key) {
        // Unsynced operands take the head-join path, where a non-key head
        // can multiply the driver's rows.
        other_hi_factor *= std::max(1.0, b->card.hi);
      }
    }
    CheckCmpOperands(fn, els);
    if (driver == nullptr) {
      Error("multiplex [" + fn + "] has no BAT operand");
      return Unknown();
    }
    if (bad) return Unknown();
    auto rt = kernel::ScalarResultType(fn, els);
    if (!rt.ok()) {
      Error(rt.status().message());
      return Unknown();
    }
    return BatOf(driver->head, *rt,
                 {0, driver->card.hi * other_hi_factor}, driver->head_key);
  }

  AbstractBinding AnalyzeSetAgg(const MilStmt& stmt) {
    CheckArity(1);
    AbstractBinding in = BatArg(0);
    if (in.kind != AbstractBinding::Kind::kBat) return Unknown();
    const std::string agg = stmt.op.substr(1, stmt.op.size() - 2);
    if (!IsAggName(agg)) {
      Error("unknown aggregate '" + agg + "'");
      return Unknown();
    }
    if ((agg == "sum" || agg == "avg") && in.tail == MonetType::kStr) {
      Error("'{" + agg + "}' needs a numeric tail, '" +
            stmt.args[0].ToString() + "' has a str tail");
      return Unknown();
    }
    MonetType out = MonetType::kDbl;
    if (agg == "count") out = MonetType::kLng;
    if (agg == "min" || agg == "max") out = Norm(in.tail);
    return BatOf(Norm(in.head), out,
                 {in.card.lo > 0 ? 1.0 : 0.0, in.card.hi}, true);
  }

  AbstractBinding AnalyzeSelect(const MilStmt& stmt) {
    const std::string& op = stmt.op;
    AbstractBinding in = BatArg(0);
    CheckArityOneOf(op == "select" ? std::vector<size_t>{2, 3}
                                   : std::vector<size_t>{2});
    if (in.kind != AbstractBinding::Kind::kBat) return Unknown();

    if (op == "select.like") {
      if (in.tail != MonetType::kStr) {
        Error("select.like needs a str tail, '" + stmt.args[0].ToString() +
              "' has a " + std::string(TypeName(in.tail)) + " tail");
        return Unknown();
      }
      auto pat = ValArg(1);
      if (pat && *pat != MonetType::kStr) {
        Error("select.like needs a string pattern, got " + std::string(TypeName(*pat)));
        return Unknown();
      }
      return BatOf(in.head, in.tail, {0, in.card.hi}, in.head_key);
    }
    if (op.rfind("select.", 0) == 0) {
      const std::string cmp = op.substr(7);
      if (cmp != "!=" && cmp != "<" && cmp != "<=" && cmp != ">" &&
          cmp != ">=") {
        Error("unknown select comparator '" + cmp + "'");
        return Unknown();
      }
    }

    // Every predicate value must be comparable with the tail: a str/non-str
    // mismatch silently selects nothing at run time (Column::CompareValue
    // orders str columns after every non-str value).
    for (size_t i = 1; i < stmt.args.size() && i <= 2; ++i) {
      auto t = ValArg(i);
      if (!t) return Unknown();
      if (MatchTypes(in.tail, *t) == TypeMatch::kIncomparable) {
        Error("'" + op + "' compares a " + std::string(TypeName(in.tail)) +
              " tail with a " + TypeName(*t) + " value; no row can match");
        return Unknown();
      }
    }

    // Cardinality: exact two-probe narrowing on tail-sorted catalog BATs;
    // [0, n] otherwise.
    CardInterval card{0, in.card.hi};
    double sel = -1;
    if (in.bound != nullptr) {
      Bound lo, hi;
      if (ReconstructBounds(stmt, &lo, &hi)) {
        sel = kernel::EstimateSelectivity(*in.bound, lo, hi);
        if (sel >= 0) {
          const double rows = sel * in.card.hi;
          card = {std::floor(rows), std::ceil(rows)};
        }
      }
    }
    select_sel_[stmt_index_of(stmt)] = sel;
    return BatOf(in.head, in.tail, card, in.head_key);
  }

  AbstractBinding AnalyzeBinarySetOp(const MilStmt& stmt) {
    const std::string& op = stmt.op;
    CheckArity(2);
    AbstractBinding l = BatArg(0);
    AbstractBinding r = BatArg(1);
    if (l.kind != AbstractBinding::Kind::kBat ||
        r.kind != AbstractBinding::Kind::kBat) {
      return Unknown();
    }
    // join matches l's tail against r's head; the set ops match heads.
    const MonetType lk = op == "join" ? l.tail : l.head;
    const MonetType rk = r.head;
    switch (MatchTypes(lk, rk)) {
      case TypeMatch::kIncomparable:
        Error("'" + op + "' matches a " + std::string(TypeName(lk)) +
              " column against a " + TypeName(rk) +
              " column; no pair can match");
        return Unknown();
      case TypeMatch::kLossy:
        Warn("'" + op + "' matches " + std::string(TypeName(lk)) +
             " against " + TypeName(rk) +
             "; differing representations usually match nothing");
        break;
      case TypeMatch::kExact:
        break;
    }
    if ((op == "kunion" || op == "append") &&
        MatchTypes(l.tail, r.tail) != TypeMatch::kExact) {
      Error("'" + op + "' mixes a " + std::string(TypeName(l.tail)) +
            " tail with a " + TypeName(r.tail) + " tail");
      return Unknown();
    }

    if (op == "join") {
      const double hi =
          r.head_key ? l.card.hi
                     : std::min(l.card.hi * std::max(1.0, r.card.hi),
                                kUnknownRows);
      return BatOf(l.head, r.tail, {0, hi}, l.head_key && r.head_key);
    }
    if (op == "kdiff") {
      return BatOf(l.head, l.tail, {0, l.card.hi}, l.head_key);
    }
    if (op == "kunion") {
      return BatOf(l.head, l.tail, {l.card.lo, l.card.hi + r.card.hi},
                   l.head_key && r.head_key);
    }
    // semijoin / kintersect: l rows whose head occurs in r.
    const double hi =
        l.head_key ? std::min(l.card.hi, r.card.hi) : l.card.hi;
    return BatOf(l.head, l.tail, {0, hi}, l.head_key);
  }

  AbstractBinding AnalyzeThetaJoin(const MilStmt& stmt) {
    CheckArity(2);
    const std::string cmp = stmt.op.substr(10);
    if (cmp != "<" && cmp != "<=" && cmp != ">" && cmp != ">=" &&
        cmp != "!=") {
      Error("unknown theta comparator '" + cmp + "'");
      return Unknown();
    }
    AbstractBinding l = BatArg(0);
    AbstractBinding r = BatArg(1);
    if (l.kind != AbstractBinding::Kind::kBat ||
        r.kind != AbstractBinding::Kind::kBat) {
      return Unknown();
    }
    if (MatchTypes(l.tail, r.head) == TypeMatch::kIncomparable) {
      Error("'" + stmt.op + "' compares a " +
            std::string(TypeName(l.tail)) + " tail with a " +
            TypeName(r.head) + " head; no pair can match");
      return Unknown();
    }
    const double hi =
        std::min(l.card.hi * std::max(1.0, r.card.hi), kUnknownRows);
    return BatOf(l.head, r.tail, {0, hi}, false);
  }

  AbstractBinding AnalyzeFetch(const MilStmt& stmt) {
    CheckArity(2);
    AbstractBinding in = BatArg(0);
    AbstractBinding pos = BatArg(1);
    if (in.kind != AbstractBinding::Kind::kBat ||
        pos.kind != AbstractBinding::Kind::kBat) {
      return Unknown();
    }
    if (Norm(pos.tail) != MonetType::kOidT) {
      Error("fetch positions need an oid (or void) tail, '" +
            stmt.args[1].ToString() + "' has a " +
            std::string(TypeName(pos.tail)) + " tail");
      return Unknown();
    }
    return BatOf(MonetType::kOidT, in.tail, pos.card, false);
  }

  AbstractBinding AnalyzeGroup(const MilStmt& stmt) {
    CheckArityOneOf({1, 2});
    AbstractBinding in = BatArg(0);
    if (in.kind != AbstractBinding::Kind::kBat) return Unknown();
    if (stmt.args.size() >= 2) {
      AbstractBinding refine = BatArg(1);
      if (refine.kind != AbstractBinding::Kind::kBat) return Unknown();
    }
    return BatOf(in.head, MonetType::kOidT, in.card, in.head_key);
  }

  AbstractBinding AnalyzeMark() {
    CheckArity(2);
    AbstractBinding in = BatArg(0);
    auto base = ValArg(1);
    if (base && (*base == MonetType::kStr || *base == MonetType::kDate)) {
      Error("mark base must cast to oid, got " + std::string(TypeName(*base)));
      return Unknown();
    }
    if (in.kind != AbstractBinding::Kind::kBat) return Unknown();
    return BatOf(in.head, MonetType::kOidT, in.card, in.head_key);
  }

  AbstractBinding AnalyzeSlice() {
    CheckArity(3);
    AbstractBinding in = BatArg(0);
    CardInterval card{0, in.card.hi};
    auto lo = ValArg(1);
    auto hi = ValArg(2);
    for (auto t : {lo, hi}) {
      if (t && (*t == MonetType::kStr || *t == MonetType::kDate)) {
        Error("slice bounds must cast to lng, got " + std::string(TypeName(*t)));
        return Unknown();
      }
    }
    if (in.kind != AbstractBinding::Kind::kBat) return Unknown();
    auto lo_v = MaybeVal(1);
    auto hi_v = MaybeVal(2);
    if (lo_v && hi_v) {
      auto lo_i = lo_v->CastTo(MonetType::kLng);
      auto hi_i = hi_v->CastTo(MonetType::kLng);
      if (lo_i.ok() && hi_i.ok()) {
        const double k = std::max<double>(
            0, static_cast<double>(hi_i->AsLng()) - lo_i->AsLng() + 1);
        card.hi = std::min(card.hi, k);
      }
    }
    return BatOf(in.head, in.tail, card, in.head_key);
  }

  AbstractBinding AnalyzeTopN() {
    CheckArity(2);
    AbstractBinding in = BatArg(0);
    auto n_t = ValArg(1);
    if (n_t && (*n_t == MonetType::kStr || *n_t == MonetType::kDate)) {
      Error("topn count must cast to lng, got " + std::string(TypeName(*n_t)));
      return Unknown();
    }
    if (in.kind != AbstractBinding::Kind::kBat) return Unknown();
    CardInterval card{0, in.card.hi};
    if (auto n = MaybeVal(1)) {
      auto n_i = n->CastTo(MonetType::kLng);
      if (n_i.ok()) {
        const double k = static_cast<double>(n_i->AsLng());
        card = {std::min(in.card.lo, k), std::min(in.card.hi, k)};
      }
    }
    return BatOf(in.head, in.tail, card, in.head_key);
  }

  AbstractBinding AnalyzeProject() {
    CheckArity(2);
    AbstractBinding in = BatArg(0);
    auto t = ValArg(1);
    if (in.kind != AbstractBinding::Kind::kBat || !t) return Unknown();
    return BatOf(in.head, *t, in.card, in.head_key);
  }

  AbstractBinding AnalyzeInsert() {
    CheckArity(3);
    AbstractBinding in = BatArg(0);
    if (in.kind != AbstractBinding::Kind::kBat) return Unknown();
    // The kernel materializes void columns as oid when inserting (a dense
    // sequence plus an arbitrary BUN is no longer dense).
    const MonetType head_t =
        in.head == MonetType::kVoid ? MonetType::kOidT : in.head;
    const MonetType tail_t =
        in.tail == MonetType::kVoid ? MonetType::kOidT : in.tail;
    auto check = [&](size_t i, MonetType want, const char* side) {
      auto v = MaybeVal(i);
      if (!v.has_value() || want == MonetType::kVoid) return;
      if (!v->CastTo(want).ok()) {
        Error(std::string("'insert' ") + side + " value " + v->ToString() +
              " is not coercible to " + TypeName(want));
      }
    };
    check(1, head_t, "head");
    check(2, tail_t, "tail");
    // Sortedness and keyness are guarded (rechecked) by the kernel, not
    // provable here; card grows by exactly the one inserted BUN.
    return BatOf(head_t, tail_t, {in.card.lo + 1, in.card.hi + 1}, false);
  }

  AbstractBinding AnalyzeAppend() {
    CheckArity(2);
    AbstractBinding l = BatArg(0);
    AbstractBinding r = BatArg(1);
    if (l.kind != AbstractBinding::Kind::kBat ||
        r.kind != AbstractBinding::Kind::kBat) {
      return Unknown();
    }
    // Append concatenates columns; the kernel rejects mismatched types.
    if (MatchTypes(l.head, r.head) != TypeMatch::kExact ||
        MatchTypes(l.tail, r.tail) != TypeMatch::kExact) {
      Error("'append' requires matching column types, got [" +
            std::string(TypeName(l.head)) + "," + TypeName(l.tail) +
            "] and [" + TypeName(r.head) + "," + TypeName(r.tail) + "]");
      return Unknown();
    }
    return BatOf(l.head, l.tail,
                 {l.card.lo + r.card.lo, l.card.hi + r.card.hi}, false);
  }

  void CheckArityOneOf(const std::vector<size_t>& oks) {
    for (size_t n : oks) {
      if (stmt_->args.size() == n) return;
    }
    std::string want;
    for (size_t i = 0; i < oks.size(); ++i) {
      if (i > 0) want += " or ";
      want += std::to_string(oks[i]);
    }
    Error("operator '" + stmt_->op + "' expects " + want +
          " arguments, got " + std::to_string(stmt_->args.size()));
  }

  bool ReconstructBounds(const MilStmt& stmt, Bound* lo, Bound* hi) const {
    const std::string& op = stmt.op;
    if (op == "select") {
      auto v1 = MaybeVal(1);
      if (stmt.args.size() == 2 && v1) {
        *lo = Bound{true, true, *v1};
        *hi = Bound{true, true, *v1};
        return true;
      }
      if (stmt.args.size() == 3 && v1) {
        auto v2 = MaybeVal(2);
        if (v2) {
          *lo = Bound{true, true, *v1};
          *hi = Bound{true, true, *v2};
          return true;
        }
      }
      return false;
    }
    const std::string cmp = op.substr(7);
    auto v = MaybeVal(1);
    if (!v) return false;
    if (cmp == "<") {
      *hi = Bound{true, false, *v};
    } else if (cmp == "<=") {
      *hi = Bound{true, true, *v};
    } else if (cmp == ">") {
      *lo = Bound{true, false, *v};
    } else if (cmp == ">=") {
      *lo = Bound{true, true, *v};
    } else {
      return false;
    }
    return true;
  }

  // ------------------------------------------------------ cost intervals

  size_t stmt_index_of(const MilStmt& stmt) const {
    return static_cast<size_t>(&stmt - stmt_base_);
  }

  /// DispatchInput over operand views at one interval end. When both
  /// operands are catalog BATs the kernel's own snapshot carries the exact
  /// sync keys, alignment and accelerators.
  DispatchInput InputAt(const AbstractBinding& l, bool hi_end) const {
    DispatchInput in;
    in.left = ViewAt(l, hi_end ? l.card.hi : l.card.lo);
    return in;
  }
  DispatchInput InputAt(const AbstractBinding& l, const AbstractBinding& r,
                        bool hi_end) const {
    if (l.bound != nullptr && r.bound != nullptr) {
      return kernel::MakeInput(*l.bound, *r.bound);
    }
    DispatchInput in;
    in.left = ViewAt(l, hi_end ? l.card.hi : l.card.lo);
    in.right = ViewAt(r, hi_end ? r.card.hi : r.card.lo);
    return in;
  }

  const AbstractBinding* Peek(const MilArg& a) const {
    if (a.kind != MilArg::Kind::kVar) return nullptr;
    auto it = bindings_.find(a.var);
    return it == bindings_.end() ? nullptr : &it->second;
  }

  /// Section 5.2.2 fault price of the statement at both interval ends.
  /// The hi bound prices the cheapest applicable variant over the largest
  /// operand views any execution can present; the lo bound subtracts the
  /// model's sub-page CPU tie-breaker terms, so it never overtakes a
  /// measured run of the same plan.
  void PriceStmt(const MilStmt& stmt, const AbstractBinding& result,
                 StmtInfo* info) {
    for (int end = 0; end < 2; ++end) {
      const bool hi_end = end == 1;
      double f = PriceAt(stmt, result, hi_end);
      if (!hi_end) f = std::max(0.0, f - 1.0);
      (hi_end ? info->faults_hi : info->faults_lo) = f;
    }
    if (info->faults_lo > info->faults_hi) {
      info->faults_lo = info->faults_hi;
    }
  }

  double PriceAt(const MilStmt& stmt, const AbstractBinding& result,
                 bool hi_end) {
    const std::string& op = stmt.op;
    const AbstractBinding* a0 =
        stmt.args.empty() ? nullptr : Peek(stmt.args[0]);
    const AbstractBinding* a1 =
        stmt.args.size() < 2 ? nullptr : Peek(stmt.args[1]);
    auto bat0 = [&]() -> const AbstractBinding* {
      return a0 != nullptr && a0->kind == AbstractBinding::Kind::kBat ? a0
                                                                      : nullptr;
    };
    auto bat1 = [&]() -> const AbstractBinding* {
      return a1 != nullptr && a1->kind == AbstractBinding::Kind::kBat ? a1
                                                                      : nullptr;
    };
    auto view = [&](const AbstractBinding& b) {
      return ViewAt(b, hi_end ? b.card.hi : b.card.lo);
    };

    if (op.rfind("calc.", 0) == 0) return 0;
    if (IsScalarAggOp(op) && stmt.args.size() == 1) {
      const AbstractBinding* in = bat0();
      if (in == nullptr) return 0;
      const OperandView v = view(*in);
      return kernel::HeapPages(v.size, v.tail_width);
    }
    if (IsMultiplexOp(op)) {
      const std::string fn = op.substr(1, op.size() - 2);
      const AbstractBinding* driver = nullptr;
      const AbstractBinding* other = nullptr;
      for (const MilArg& a : stmt.args) {
        const AbstractBinding* b = Peek(a);
        if (b == nullptr || b->kind != AbstractBinding::Kind::kBat) continue;
        if (driver == nullptr) {
          driver = b;
        } else if (other == nullptr) {
          other = b;
        }
      }
      if (driver == nullptr) return 0;
      DispatchInput in = other != nullptr ? InputAt(*driver, *other, hi_end)
                                          : InputAt(*driver, hi_end);
      in.param = OpParam{static_cast<int64_t>(stmt.args.size()), fn, false};
      return FamilyPrice("multiplex", in);
    }
    if (IsSetAggOp(op)) {
      const AbstractBinding* in = bat0();
      if (in == nullptr) return 0;
      return FamilyPrice("set_aggregate", InputAt(*in, hi_end));
    }
    if (op == "select" || op.rfind("select.", 0) == 0) {
      const AbstractBinding* in = bat0();
      if (in == nullptr) return 0;
      DispatchInput di = InputAt(*in, hi_end);
      auto sel = select_sel_.find(stmt_index_of(stmt));
      if (sel != select_sel_.end()) di.est_selectivity = sel->second;
      return FamilyPrice("select", di);
    }
    if (op == "join" || op == "semijoin" || op == "kintersect" ||
        op == "kdiff" || op == "kunion") {
      const AbstractBinding* l = bat0();
      const AbstractBinding* r = bat1();
      if (l == nullptr || r == nullptr) return 0;
      const std::string family = op == "join"     ? "join"
                                 : op == "kdiff"  ? "kdiff"
                                 : op == "kunion" ? "kunion"
                                                  : "semijoin";
      return FamilyPrice(family, InputAt(*l, *r, hi_end));
    }
    if (op.rfind("thetajoin.", 0) == 0) {
      const AbstractBinding* l = bat0();
      const AbstractBinding* r = bat1();
      if (l == nullptr || r == nullptr) return 0;
      const std::string cmp = op.substr(10);
      kernel::CmpOp c = kernel::CmpOp::kLt;
      if (cmp == "<=") c = kernel::CmpOp::kLe;
      if (cmp == ">") c = kernel::CmpOp::kGt;
      if (cmp == ">=") c = kernel::CmpOp::kGe;
      if (cmp == "!=") c = kernel::CmpOp::kNe;
      DispatchInput in = InputAt(*l, *r, hi_end);
      in.param = OpParam{static_cast<int64_t>(c), "", false};
      return FamilyPrice("thetajoin", in);
    }
    if (op == "group") {
      const AbstractBinding* in = bat0();
      if (in == nullptr) return 0;
      if (stmt.args.size() == 1) return FamilyPrice("group", InputAt(*in, hi_end));
      const AbstractBinding* refine = bat1();
      if (refine == nullptr) return 0;
      return FamilyPrice("group_refine", InputAt(*in, *refine, hi_end));
    }

    // Unregistered reshaping operators: one sequential pass, or the
    // random-fetch page model for positional gathers.
    if (op == "fetch") {
      const AbstractBinding* in = bat0();
      const AbstractBinding* pos = bat1();
      if (in == nullptr || pos == nullptr) return 0;
      const OperandView iv = view(*in);
      const OperandView pv = view(*pos);
      return PagesOf(pv) + kernel::RandomFetchPages(
                               iv.size, iv.tail_width,
                               hi_end ? pos->card.hi : pos->card.lo);
    }
    if (op == "histogram" || op == "unique" || op == "hunique" ||
        op == "sort") {
      const AbstractBinding* in = bat0();
      if (in == nullptr) return 0;
      return PagesOf(view(*in)) + kernel::kCpuHashed;
    }
    if (op == "mirror") return 0;  // property bookkeeping, no heap copied
    if (op == "mark" || op == "extent" || op == "project") {
      const AbstractBinding* in = bat0();
      if (in == nullptr) return 0;
      const OperandView v = view(*in);
      return kernel::HeapPages(v.size, v.head_width);
    }
    if (op == "slice" || op == "topn_max" || op == "topn_min") {
      const AbstractBinding* in = bat0();
      if (in == nullptr) return 0;
      if (op == "slice") {
        const double rows = hi_end ? result.card.hi : result.card.lo;
        const OperandView v = view(*in);
        return kernel::HeapPages(static_cast<uint64_t>(rows), v.head_width) +
               kernel::HeapPages(static_cast<uint64_t>(rows), v.tail_width);
      }
      return PagesOf(view(*in));
    }
    if (op == "append") {
      const AbstractBinding* l = bat0();
      const AbstractBinding* r = bat1();
      if (l == nullptr || r == nullptr) return 0;
      return PagesOf(view(*l)) + PagesOf(view(*r));
    }
    if (op == "insert") {
      // One sequential pass over the carried-over prefix (both columns).
      const AbstractBinding* in = bat0();
      if (in == nullptr) return 0;
      return PagesOf(view(*in));
    }
    return 0;
  }

  // ------------------------------------------------------------- hygiene

  void Hygiene(const MilProgram& program) {
    // Observable sinks: the declared results, or — for programs without a
    // result clause, where the shell prints the last binding — the final
    // statement. Anything else computed but never read is dead weight.
    std::set<std::string> sinks(program.results.begin(),
                               program.results.end());
    if (sinks.empty() && !program.stmts.empty()) {
      sinks.insert(program.stmts.back().var);
    }
    for (const MilStmt& s : program.stmts) {
      auto def = defs_.find(s.var);
      if (def == defs_.end() || def->second.line != s.line) continue;
      if (!def->second.read && sinks.count(s.var) == 0) {
        report_.diagnostics.push_back(Diagnostic{
            Severity::kWarning, s.line, s.var,
            "binding '" + s.var + "' is never read and not a result"});
      }
    }
    for (const std::string& name : sinks) {
      auto it = bindings_.find(name);
      if (it == bindings_.end()) continue;
      const AbstractBinding& b = it->second;
      if (b.kind == AbstractBinding::Kind::kBat && b.card.hi <= 0) {
        report_.diagnostics.push_back(Diagnostic{
            Severity::kWarning, defs_.count(name) ? defs_[name].line : 0,
            name, "result '" + name + "' is statically empty"});
      }
    }
  }

 public:
  void SetStmtBase(const MilStmt* base) { stmt_base_ = base; }

 private:
  const MilEnv& env_;
  AnalysisReport report_;
  std::map<std::string, AbstractBinding> bindings_;
  std::map<std::string, DefInfo> defs_;
  std::map<std::string, int> first_def_;
  std::map<size_t, double> select_sel_;  // stmt index -> two-probe estimate
  const MilStmt* stmt_ = nullptr;
  const MilStmt* stmt_base_ = nullptr;
};

}  // namespace

// ------------------------------------------------------------- rendering

std::string Diagnostic::ToString() const {
  std::string s = "line " + std::to_string(line) + ": ";
  s += severity == Severity::kError ? "error: " : "warning: ";
  s += message;
  return s;
}

std::string AbstractBinding::ToString() const {
  switch (kind) {
    case Kind::kScalar:
      return std::string(TypeName(scalar)) + " scalar";
    case Kind::kBat: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "] rows in [%.0f, %.0f]", card.lo,
                    card.hi);
      return "[" + std::string(TypeName(head)) + "," + TypeName(tail) + buf;
    }
    case Kind::kUnknown:
      break;
  }
  return "unknown";
}

std::string AnalysisReport::DiagnosticsString() const {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    out += d.ToString();
    out += "\n";
  }
  return out;
}

std::string AnalysisReport::FirstError() const {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) return d.ToString();
  }
  return "";
}

std::string AnalysisReport::SchemaString(
    const std::vector<std::string>& names) const {
  std::string out;
  for (const std::string& name : names) {
    auto it = bindings.find(name);
    if (it == bindings.end()) continue;
    out += name + " : " + it->second.ToString() + "\n";
  }
  return out;
}

// -------------------------------------------------------------- analysis

AnalysisReport AnalyzeProgram(const MilProgram& program, const MilEnv& env) {
  Analyzer a(env);
  a.SetStmtBase(program.stmts.data());
  return a.Analyze(program);
}

std::vector<std::string> ResultNames(const MilProgram& program) {
  if (!program.results.empty()) return program.results;
  std::vector<std::string> names;
  names.reserve(program.stmts.size());
  for (const MilStmt& s : program.stmts) names.push_back(s.var);
  return names;
}

}  // namespace moaflat::mil
