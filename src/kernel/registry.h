#ifndef MOAFLAT_KERNEL_REGISTRY_H_
#define MOAFLAT_KERNEL_REGISTRY_H_

#include <any>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "bat/bat.h"
#include "common/result.h"
#include "common/value.h"
#include "kernel/exec_context.h"

/// The kernel's dynamic-optimization step as data (Section 5.1: every BAT
/// operator performs "a run-time choice between the available algorithms",
/// driven by the operand properties and accelerators). Each operator
/// registers its implementation variants here with an applicability
/// predicate over a snapshot of the operand features and an expected-page-
/// fault cost estimate (Section 5.2.2, kernel/cost_model.h); the dispatch
/// loop picks the cheapest applicable variant. The decision table is
/// inspectable via KernelRegistry::Explain and unit-testable without
/// executing anything.
namespace moaflat::kernel {

using bat::Bat;

/// Dispatch-relevant snapshot of one operand: the Section 5.1 properties
/// plus which accelerators exist. Predicates and cost hints see only this
/// view, never the data.
struct OperandView {
  bat::Properties props;
  size_t size = 0;
  int head_width = 0;           // bytes per stored head value (0 = void)
  int tail_width = 0;           // bytes per stored tail value (0 = void)
  bool head_void = false;
  bool tail_void = false;
  bool head_hashed = false;     // hash accelerator already built
  bool tail_hashed = false;
  bool has_datavector = false;  // Section 5.2 datavector accelerator
  bool head_oidlike = false;    // head type is oid or void
  bool tail_oidlike = false;    // tail type is oid or void

  static OperandView Of(const Bat& b);
  std::string ToString() const;
};

/// Operator-specific dispatch parameter: the Section 5.1 run-time choice
/// sometimes depends on the requested operation itself, not only on the
/// operand properties (the theta-join's comparison, the multiplexed
/// function). Each operator family defines what the fields mean; its
/// registered predicates and cost functions read them back.
struct OpParam {
  int64_t code = 0;   // e.g. the CmpOp of a theta-join, a multiplex arity
  std::string name;   // e.g. the multiplex scalar function
  bool flag = false;  // e.g. "every multiplex argument is numeric"
};

/// Input of one dispatch decision: one or two operand views plus the
/// cross-operand facts the kernel can prove from sync keys.
struct DispatchInput {
  OperandView left;
  std::optional<OperandView> right;
  /// Heads provably correspond by position (Section 5.1 "synced").
  bool synced = false;
  /// Left tail and right head are provably the same value sequence by
  /// position (the positional/fetch-join precondition).
  bool tail_head_aligned = false;
  /// Operator-parameter slot; absent for purely operand-driven families.
  std::optional<OpParam> param;
  /// Estimated fraction of qualifying rows, when the caller can do better
  /// than the fixed kDispatchSelectivity prior — the select entry point
  /// sets this from a two-probe binary-search estimate on tail-sorted
  /// operands. Negative = unknown; cost functions fall back to the
  /// constant.
  double est_selectivity = -1.0;

  std::string ToString() const;
};

DispatchInput MakeInput(const Bat& ab);
DispatchInput MakeInput(const Bat& ab, const Bat& cd);

/// Exec signatures of the registered operator families. Every variant
/// finishes its own OpRecorder with the name it reports and its result
/// size.
struct Bound;  // defined in operators.h
enum class AggKind;
enum class CmpOp;
using SelectImplSig = Result<Bat>(const ExecContext&, const Bat&,
                                  const Bound& lo, const Bound& hi,
                                  OpRecorder&);
using UnaryImplSig = Result<Bat>(const ExecContext&, const Bat&, OpRecorder&);
using BinaryImplSig = Result<Bat>(const ExecContext&, const Bat&, const Bat&,
                                  OpRecorder&);
using SetAggImplSig = Result<Bat>(const ExecContext&, AggKind, const Bat&,
                                  OpRecorder&);
using ThetaImplSig = Result<Bat>(const ExecContext&, const Bat&, const Bat&,
                                 CmpOp, OpRecorder&);
/// The argument vector element is operators.h's MxArg spelled out (the
/// alias lives there; redeclaring it here would couple the headers).
using MultiplexImplSig = Result<Bat>(const ExecContext&, const std::string&,
                                     const std::vector<std::variant<
                                         Bat, Value>>&,
                                     OpRecorder&);

class KernelRegistry {
 public:
  using Predicate = std::function<bool(const DispatchInput&)>;
  using CostFn = std::function<double(const DispatchInput&)>;

  /// One registered implementation of an operator.
  struct Variant {
    std::string name;
    Predicate applicable;
    /// Expected cold page faults of this variant on this input, from the
    /// Section 5.2.2 model (kernel/cost_model.h) over the operand
    /// cardinalities and column widths; lower wins among applicable
    /// variants. Ties resolve to the earlier registration.
    CostFn cost;
    /// A std::function of the family's exec signature (see *ImplSig).
    std::any exec;
    /// One-line rationale shown by Explain.
    std::string note;
  };

  /// Registers a variant of `op`. Registration order is the tie-break
  /// order for equal costs. Not thread-safe; registration happens during
  /// static initialization, dispatch afterwards is read-only.
  void Register(const std::string& op, Variant v);

  template <typename Sig>
  void Register(const std::string& op, std::string name, Predicate applicable,
                CostFn cost, std::function<Sig> exec, std::string note = "") {
    Register(op, Variant{std::move(name), std::move(applicable),
                         std::move(cost), std::any(std::move(exec)),
                         std::move(note)});
  }

  /// The dynamic-optimization step: cheapest applicable variant of `op`
  /// for this input, or nullptr when none applies (or `op` is unknown).
  const Variant* Choose(const std::string& op, const DispatchInput& in) const;

  /// Predicted page-fault cost of the variant Choose() would pick —
  /// the plan-pricing entry point admission control uses to veto or queue
  /// a query before anything executes. nullopt when no variant applies
  /// (or `op` is unknown).
  std::optional<double> PriceCheapest(const std::string& op,
                                      const DispatchInput& in) const;

  /// Runs the chosen variant. `Args` must match the family's exec
  /// signature exactly (the OpRecorder reference last).
  template <typename Sig, typename... Args>
  Result<Bat> Dispatch(const std::string& op, const DispatchInput& in,
                       Args&&... args) const {
    const Variant* v = Choose(op, in);
    if (v == nullptr) {
      return Status::ExecutionError("no applicable implementation of '" + op +
                                    "' for " + in.ToString());
    }
    const auto* fn = std::any_cast<std::function<Sig>>(&v->exec);
    if (fn == nullptr) {
      return Status::ExecutionError("implementation '" + v->name + "' of '" +
                                    op +
                                    "' registered with a foreign signature");
    }
    return (*fn)(std::forward<Args>(args)...);
  }

  // --- inspection ------------------------------------------------------

  struct Candidate {
    std::string name;
    bool applicable = false;
    /// Expected page faults from the Section 5.2.2 model. Infinity when
    /// the variant is inapplicable: a vetoed variant must never read as
    /// the cheapest row of the decision table (ToString renders `-`).
    double cost = std::numeric_limits<double>::infinity();
    bool chosen = false;
    std::string note;
  };
  struct Explanation {
    std::string op;
    std::string input;
    std::vector<Candidate> candidates;
    std::string chosen;  // empty when nothing applies

    std::string ToString() const;
  };

  /// Renders the full decision table for `op` on this input — what the
  /// optimizer would pick and why. Purely inspective: nothing executes,
  /// no accelerator is built.
  Explanation Explain(const std::string& op, const DispatchInput& in) const;
  Explanation Explain(const std::string& op, const Bat& ab) const;
  Explanation Explain(const std::string& op, const Bat& ab,
                      const Bat& cd) const;

  /// Registered operator names, sorted.
  std::vector<std::string> Ops() const;

  /// The variants of `op` in registration order (nullptr if unknown).
  const std::vector<Variant>* VariantsOf(const std::string& op) const;

  /// The process-wide registry, populated with the built-in operator
  /// families on first use.
  static KernelRegistry& Global();

 private:
  std::map<std::string, std::vector<Variant>> ops_;
};

namespace internal {
/// Per-family registration hooks, defined next to the implementations and
/// invoked once by KernelRegistry::Global(). Explicit calls (rather than
/// static initializers) keep the registration alive under static-library
/// dead-stripping.
void RegisterSelectKernels(KernelRegistry& r);
void RegisterJoinKernels(KernelRegistry& r);
void RegisterSemijoinKernels(KernelRegistry& r);
void RegisterGroupKernels(KernelRegistry& r);
void RegisterAggregateKernels(KernelRegistry& r);
void RegisterThetaJoinKernels(KernelRegistry& r);
void RegisterMultiplexKernels(KernelRegistry& r);
}  // namespace internal

}  // namespace moaflat::kernel

#endif  // MOAFLAT_KERNEL_REGISTRY_H_
