#pragma once

// FILTER expression trees (§2.4.3).
//
// Expressions evaluated as part of operators are represented as trees whose
// leaves are constants, solution-variable references, and feature lookups,
// and whose interior nodes are comparisons, logical connectives, arithmetic,
// and UDF calls. Trees are immutable and shared; the planner reorders
// *references* to subtrees, never mutates them, so a reordered plan can
// never change evaluation semantics of an individual conjunct.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "expr/value.h"
#include "graph/solution.h"
#include "sim/time.h"
#include "udf/profiler.h"
#include "udf/registry.h"

namespace ids::expr {

enum class ExprKind { kConst, kVar, kFeature, kCompare, kLogical, kArith, kUdfCall };
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class LogicOp { kAnd, kOr, kNot };
enum class ArithOp { kAdd, kSub, kMul, kDiv };

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

class Expr {
 public:
  // -- Factories ----------------------------------------------------------
  static ExprPtr Constant(Value v);
  static ExprPtr Var(std::string name);
  /// Feature lookup: evaluates `entity` (must yield an Entity) and reads
  /// the named feature from the feature store.
  static ExprPtr Feature(ExprPtr entity, std::string feature);
  static ExprPtr Compare(CmpOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr And(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Not(ExprPtr operand);
  static ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Udf(std::string name, std::vector<ExprPtr> args);

  // -- Introspection -------------------------------------------------------
  ExprKind kind() const { return kind_; }
  const Value& constant() const { return value_; }
  const std::string& name() const { return name_; }  // var/feature/udf name
  CmpOp cmp_op() const { return cmp_; }
  LogicOp logic_op() const { return logic_; }
  ArithOp arith_op() const { return arith_; }
  std::span<const ExprPtr> children() const { return children_; }

  bool is_and() const {
    return kind_ == ExprKind::kLogical && logic_ == LogicOp::kAnd;
  }

  /// Appends the qualified names of all UDFs referenced in this subtree.
  void collect_udfs(std::vector<std::string>* out) const;

  /// Human-readable rendering, e.g. "(sw(?prot) >= 0.9)".
  std::string to_string() const;

 private:
  Expr() = default;

  ExprKind kind_ = ExprKind::kConst;
  Value value_;
  std::string name_;
  CmpOp cmp_ = CmpOp::kEq;
  LogicOp logic_ = LogicOp::kAnd;
  ArithOp arith_ = ArithOp::kAdd;
  std::vector<ExprPtr> children_;
};

/// One row of a solution table, as seen by expression evaluation.
struct RowView {
  const graph::SolutionTable* table = nullptr;
  std::size_t row = 0;
};

/// Everything expression evaluation needs. `cost` accumulates the modeled
/// nanoseconds of this evaluation (UDF costs plus per-node overhead); the
/// caller charges it to the rank's virtual clock.
struct EvalContext {
  RowView row;
  udf::UdfRegistry* registry = nullptr;
  udf::UdfProfiler* profiler = nullptr;
  udf::UdfContext udf_ctx;
  /// Relative speed (> 0) of the executing rank (runtime::HeteroProfile);
  /// modeled UDF costs are divided by it before charging and profiling, so
  /// the profiler observes each rank's *effective* throughput (§2.4.2).
  double speed_factor = 1.0;
  sim::Nanos cost = 0;
};

/// Modeled per-node interpretation overhead.
constexpr sim::Nanos kExprNodeCost = 25;

/// Evaluates `e` against the context row. Never throws; type errors yield
/// null (which is falsy in FILTER position).
Value eval(const Expr& e, EvalContext& ctx);

}  // namespace ids::expr
