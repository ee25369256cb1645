#include "expr/expr.h"

#include "store/feature_store.h"

namespace ids::expr {

// The private default constructor keeps Expr immutable from outside; the
// static factories (which may access it) build an instance locally and
// freeze it behind a shared_ptr<const Expr>.

ExprPtr Expr::Constant(Value v) {
  Expr e;
  e.kind_ = ExprKind::kConst;
  e.value_ = std::move(v);
  return std::make_shared<const Expr>(std::move(e));
}

ExprPtr Expr::Var(std::string name) {
  Expr e;
  e.kind_ = ExprKind::kVar;
  e.name_ = std::move(name);
  return std::make_shared<const Expr>(std::move(e));
}

ExprPtr Expr::Feature(ExprPtr entity, std::string feature) {
  Expr e;
  e.kind_ = ExprKind::kFeature;
  e.name_ = std::move(feature);
  e.children_ = {std::move(entity)};
  return std::make_shared<const Expr>(std::move(e));
}

ExprPtr Expr::Compare(CmpOp op, ExprPtr lhs, ExprPtr rhs) {
  Expr e;
  e.kind_ = ExprKind::kCompare;
  e.cmp_ = op;
  e.children_ = {std::move(lhs), std::move(rhs)};
  return std::make_shared<const Expr>(std::move(e));
}

ExprPtr Expr::And(ExprPtr lhs, ExprPtr rhs) {
  Expr e;
  e.kind_ = ExprKind::kLogical;
  e.logic_ = LogicOp::kAnd;
  e.children_ = {std::move(lhs), std::move(rhs)};
  return std::make_shared<const Expr>(std::move(e));
}

ExprPtr Expr::Or(ExprPtr lhs, ExprPtr rhs) {
  Expr e;
  e.kind_ = ExprKind::kLogical;
  e.logic_ = LogicOp::kOr;
  e.children_ = {std::move(lhs), std::move(rhs)};
  return std::make_shared<const Expr>(std::move(e));
}

ExprPtr Expr::Not(ExprPtr operand) {
  Expr e;
  e.kind_ = ExprKind::kLogical;
  e.logic_ = LogicOp::kNot;
  e.children_ = {std::move(operand)};
  return std::make_shared<const Expr>(std::move(e));
}

ExprPtr Expr::Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  Expr e;
  e.kind_ = ExprKind::kArith;
  e.arith_ = op;
  e.children_ = {std::move(lhs), std::move(rhs)};
  return std::make_shared<const Expr>(std::move(e));
}

ExprPtr Expr::Udf(std::string name, std::vector<ExprPtr> args) {
  Expr e;
  e.kind_ = ExprKind::kUdfCall;
  e.name_ = std::move(name);
  e.children_ = std::move(args);
  return std::make_shared<const Expr>(std::move(e));
}

void Expr::collect_udfs(std::vector<std::string>* out) const {
  if (kind_ == ExprKind::kUdfCall) out->push_back(name_);
  for (const auto& c : children_) c->collect_udfs(out);
}

namespace {

/// "(lhs op rhs)", built by appending to one string.
std::string infix(const Expr& lhs, std::string_view op, const Expr& rhs) {
  std::string out = "(";
  out += lhs.to_string();
  out += op;
  out += rhs.to_string();
  out += ')';
  return out;
}

}  // namespace

std::string Expr::to_string() const {
  switch (kind_) {
    case ExprKind::kConst:
      return expr::to_string(value_);
    case ExprKind::kVar:
      return "?" + name_;
    case ExprKind::kFeature:
      return children_[0]->to_string() + "." + name_;
    case ExprKind::kCompare: {
      static constexpr const char* ops[] = {" == ", " != ", " < ",
                                            " <= ", " > ", " >= "};
      return infix(*children_[0], ops[static_cast<int>(cmp_)], *children_[1]);
    }
    case ExprKind::kLogical: {
      if (logic_ == LogicOp::kNot) return "!(" + children_[0]->to_string() + ")";
      return infix(*children_[0], logic_ == LogicOp::kAnd ? " && " : " || ",
                   *children_[1]);
    }
    case ExprKind::kArith: {
      static constexpr const char* ops[] = {" + ", " - ", " * ", " / "};
      return infix(*children_[0], ops[static_cast<int>(arith_)], *children_[1]);
    }
    case ExprKind::kUdfCall: {
      std::string s = name_ + "(";
      for (std::size_t i = 0; i < children_.size(); ++i) {
        if (i) s += ", ";
        s += children_[i]->to_string();
      }
      return s + ")";
    }
  }
  return "?";
}

namespace {

Value eval_var(const Expr& e, EvalContext& ctx) {
  const graph::SolutionTable* t = ctx.row.table;
  if (!t) return null_value();
  if (int i = t->id_var_index(e.name()); i >= 0) {
    return Entity{t->id_at(ctx.row.row, i)};
  }
  if (int i = t->num_var_index(e.name()); i >= 0) {
    return t->num_at(ctx.row.row, i);
  }
  return null_value();
}

Value eval_feature(const Expr& e, EvalContext& ctx) {
  Value ent = eval(*e.children()[0], ctx);
  const Entity* en = std::get_if<Entity>(&ent);
  if (!en || !ctx.udf_ctx.features) return null_value();
  const store::FeatureValue* fv = ctx.udf_ctx.features->get(en->id, e.name());
  if (!fv) return null_value();
  if (const double* d = std::get_if<double>(fv)) return *d;
  if (const std::int64_t* i = std::get_if<std::int64_t>(fv)) return *i;
  return std::get<std::string>(*fv);
}

Value eval_compare(const Expr& e, EvalContext& ctx) {
  Value a = eval(*e.children()[0], ctx);
  Value b = eval(*e.children()[1], ctx);
  if (is_null(a) || is_null(b)) return null_value();
  // Equality on mismatched types is false, not null, except via compare.
  int c = 0;
  if (!compare(a, b, &c)) {
    if (e.cmp_op() == CmpOp::kEq) return false;
    if (e.cmp_op() == CmpOp::kNe) return true;
    return null_value();
  }
  switch (e.cmp_op()) {
    case CmpOp::kEq: return c == 0;
    case CmpOp::kNe: return c != 0;
    case CmpOp::kLt: return c < 0;
    case CmpOp::kLe: return c <= 0;
    case CmpOp::kGt: return c > 0;
    case CmpOp::kGe: return c >= 0;
  }
  return null_value();
}

Value eval_logical(const Expr& e, EvalContext& ctx) {
  if (e.logic_op() == LogicOp::kNot) {
    Value v = eval(*e.children()[0], ctx);
    if (is_null(v)) return null_value();
    return !truthy(v);
  }
  // Short-circuit evaluation: the right operand of a satisfied AND/OR is
  // never evaluated (and never charged) — this is what makes conjunct
  // ordering matter for cost.
  Value a = eval(*e.children()[0], ctx);
  bool ta = truthy(a);
  if (e.logic_op() == LogicOp::kAnd) {
    if (!ta) return false;
    return truthy(eval(*e.children()[1], ctx));
  }
  if (ta) return true;
  return truthy(eval(*e.children()[1], ctx));
}

Value eval_arith(const Expr& e, EvalContext& ctx) {
  Value a = eval(*e.children()[0], ctx);
  Value b = eval(*e.children()[1], ctx);
  double da = 0.0;
  double db = 0.0;
  if (!as_double(a, &da) || !as_double(b, &db)) return null_value();
  switch (e.arith_op()) {
    case ArithOp::kAdd: return da + db;
    case ArithOp::kSub: return da - db;
    case ArithOp::kMul: return da * db;
    case ArithOp::kDiv: return db == 0.0 ? null_value() : Value(da / db);
  }
  return null_value();
}

Value eval_udf(const Expr& e, EvalContext& ctx) {
  if (!ctx.registry) return null_value();
  const udf::UdfInfo* info = ctx.registry->find(e.name());
  if (!info) return null_value();

  std::vector<Value> args;
  args.reserve(e.children().size());
  for (const auto& c : e.children()) args.push_back(eval(*c, ctx));

  udf::UdfResult r = ctx.registry->call(*info, ctx.udf_ctx, args,
                                        ctx.speed_factor, ctx.profiler);
  ctx.cost += r.modeled_cost;
  return std::move(r.value);
}

}  // namespace

Value eval(const Expr& e, EvalContext& ctx) {
  ctx.cost += kExprNodeCost;
  switch (e.kind()) {
    case ExprKind::kConst: return e.constant();
    case ExprKind::kVar: return eval_var(e, ctx);
    case ExprKind::kFeature: return eval_feature(e, ctx);
    case ExprKind::kCompare: return eval_compare(e, ctx);
    case ExprKind::kLogical: return eval_logical(e, ctx);
    case ExprKind::kArith: return eval_arith(e, ctx);
    case ExprKind::kUdfCall: return eval_udf(e, ctx);
  }
  return null_value();
}

}  // namespace ids::expr
