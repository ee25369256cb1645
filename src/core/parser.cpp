#include "core/parser.h"

#include <cctype>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/strings.h"

namespace ids::core {

namespace {

// ---- Lexer -----------------------------------------------------------------

enum class TokKind {
  kEnd,
  kIdent,    // bare identifier / IRI / dotted udf name: a-zA-Z0-9_:./#-
  kVar,      // ?name (value excludes the '?')
  kString,   // "..." (value excludes quotes)
  kNumber,   // 123, 1.5, -2e3
  kPunct,    // {, }, (, ), [, ], ., ,,
  kOp,       // && || ! == != <= >= < > + - * /
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
  std::size_t pos = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) { advance(); }

  const Token& peek() const { return current_; }

  Token take() {
    Token t = current_;
    advance();
    return t;
  }

  Status error(const std::string& message) const {
    return Status::InvalidArgument(message + " at offset " +
                                   std::to_string(current_.pos) + " near '" +
                                   current_.text + "'");
  }

 private:
  static bool ident_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':' || c == '/' || c == '#' || c == '-' || c == '.';
  }

  void advance() {
    while (pos_ < src_.size() &&
           std::isspace(static_cast<unsigned char>(src_[pos_]))) {
      ++pos_;
    }
    current_ = Token{};
    current_.pos = pos_;
    if (pos_ >= src_.size()) return;

    char c = src_[pos_];
    // Variables.
    if (c == '?') {
      std::size_t start = ++pos_;
      while (pos_ < src_.size() && (std::isalnum(static_cast<unsigned char>(
                                        src_[pos_])) ||
                                    src_[pos_] == '_')) {
        ++pos_;
      }
      current_.kind = TokKind::kVar;
      current_.text = std::string(src_.substr(start, pos_ - start));
      return;
    }
    // Strings.
    if (c == '"') {
      std::size_t start = ++pos_;
      while (pos_ < src_.size() && src_[pos_] != '"') ++pos_;
      current_.kind = TokKind::kString;
      current_.text = std::string(src_.substr(start, pos_ - start));
      if (pos_ < src_.size()) ++pos_;  // closing quote
      return;
    }
    // Numbers (a leading digit; unary minus is handled by the expression
    // grammar).
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = pos_;
      while (pos_ < src_.size() &&
             (std::isdigit(static_cast<unsigned char>(src_[pos_])) ||
              src_[pos_] == '.' || src_[pos_] == 'e' || src_[pos_] == 'E' ||
              ((src_[pos_] == '+' || src_[pos_] == '-') && pos_ > start &&
               (src_[pos_ - 1] == 'e' || src_[pos_ - 1] == 'E')))) {
        ++pos_;
      }
      current_.kind = TokKind::kNumber;
      current_.text = std::string(src_.substr(start, pos_ - start));
      return;
    }
    // Multi-char operators.
    auto two = src_.substr(pos_, 2);
    for (std::string_view op : {"&&", "||", "==", "!=", "<=", ">="}) {
      if (two == op) {
        current_.kind = TokKind::kOp;
        current_.text = std::string(op);
        pos_ += 2;
        return;
      }
    }
    // Single-char operators / punctuation.
    if (std::string_view("<>!+-*/").find(c) != std::string_view::npos) {
      current_.kind = TokKind::kOp;
      current_.text = std::string(1, c);
      ++pos_;
      return;
    }
    if (std::string_view("{}()[].,").find(c) != std::string_view::npos) {
      current_.kind = TokKind::kPunct;
      current_.text = std::string(1, c);
      ++pos_;
      return;
    }
    // Identifiers / IRIs / keywords.
    if (ident_char(c)) {
      std::size_t start = pos_;
      while (pos_ < src_.size() && ident_char(src_[pos_])) ++pos_;
      current_.kind = TokKind::kIdent;
      current_.text = std::string(src_.substr(start, pos_ - start));
      return;
    }
    current_.kind = TokKind::kOp;
    current_.text = std::string(1, c);
    ++pos_;
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  Token current_;
};

// ---- Parser ----------------------------------------------------------------

class Parser {
 public:
  Parser(std::string_view src, graph::Dictionary* dict)
      : lexer_(src), dict_(dict) {}

  Result<Query> parse() {
    Query q;
    if (Status st = parse_select(&q); !st.ok()) return st;
    if (Status st = parse_where(&q); !st.ok()) return st;
    // Optional tail clauses in any order.
    for (;;) {
      std::string kw = to_lower(lexer_.peek().text);
      if (lexer_.peek().kind != TokKind::kIdent) break;
      Status st = Status::Ok();
      if (kw == "filter") {
        st = parse_filter(&q);
      } else if (kw == "keyword") {
        st = parse_keyword(&q);
      } else if (kw == "vector") {
        st = parse_vector(&q);
      } else if (kw == "distinct") {
        st = parse_distinct(&q);
      } else if (kw == "invoke") {
        st = parse_invoke(&q);
      } else if (kw == "order") {
        st = parse_order(&q);
      } else if (kw == "limit") {
        st = parse_limit(&q);
      } else {
        return lexer_.error("unexpected clause '" + kw + "'");
      }
      if (!st.ok()) return st;
    }
    if (lexer_.peek().kind != TokKind::kEnd) {
      return lexer_.error("trailing input");
    }
    return q;
  }

  Result<expr::ExprPtr> parse_single_expression() {
    expr::ExprPtr e;
    if (Status st = parse_or(&e); !st.ok()) return st;
    if (lexer_.peek().kind != TokKind::kEnd) {
      return lexer_.error("trailing input after expression");
    }
    return e;
  }

 private:
  bool at_keyword(const char* kw) {
    return lexer_.peek().kind == TokKind::kIdent &&
           to_lower(lexer_.peek().text) == kw;
  }

  Status expect_keyword(const char* kw) {
    if (!at_keyword(kw)) {
      return lexer_.error(std::string("expected '") + kw + "'");
    }
    lexer_.take();
    return Status::Ok();
  }

  Status expect_punct(const char* p) {
    if (lexer_.peek().kind != TokKind::kPunct || lexer_.peek().text != p) {
      return lexer_.error(std::string("expected '") + p + "'");
    }
    lexer_.take();
    return Status::Ok();
  }

  Status parse_select(Query* q) {
    if (Status st = expect_keyword("select"); !st.ok()) return st;
    if (lexer_.peek().kind == TokKind::kOp && lexer_.peek().text == "*") {
      lexer_.take();  // SELECT * == project everything
      return Status::Ok();
    }
    while (lexer_.peek().kind == TokKind::kVar) {
      q->select.push_back(lexer_.take().text);
    }
    if (q->select.empty()) {
      return lexer_.error("SELECT needs '*' or at least one variable");
    }
    return Status::Ok();
  }

  Status parse_pattern_term(graph::PatternTerm* out) {
    const Token& t = lexer_.peek();
    if (t.kind == TokKind::kVar) {
      *out = graph::PatternTerm::Var(lexer_.take().text);
      return Status::Ok();
    }
    if (t.kind == TokKind::kIdent) {
      *out = graph::PatternTerm::Const(dict_->intern(lexer_.take().text));
      return Status::Ok();
    }
    if (t.kind == TokKind::kString) {
      // Literals are stored quoted in the dictionary (Turtle-style).
      std::string quoted = "\"";
      quoted += lexer_.take().text;
      quoted += '"';
      *out = graph::PatternTerm::Const(dict_->intern(quoted));
      return Status::Ok();
    }
    return lexer_.error("expected IRI, literal or variable");
  }

  Status parse_where(Query* q) {
    if (Status st = expect_keyword("where"); !st.ok()) return st;
    if (Status st = expect_punct("{"); !st.ok()) return st;
    while (!(lexer_.peek().kind == TokKind::kPunct &&
             lexer_.peek().text == "}")) {
      graph::TriplePattern p;
      if (Status st = parse_pattern_term(&p.s); !st.ok()) return st;
      if (Status st = parse_pattern_term(&p.p); !st.ok()) return st;
      if (Status st = parse_pattern_term(&p.o); !st.ok()) return st;
      q->patterns.push_back(std::move(p));
      if (lexer_.peek().kind == TokKind::kPunct && lexer_.peek().text == ".") {
        lexer_.take();
      }
    }
    lexer_.take();  // '}'
    if (q->patterns.empty()) {
      return lexer_.error("WHERE block has no patterns");
    }
    return Status::Ok();
  }

  Status parse_filter(Query* q) {
    lexer_.take();  // FILTER
    expr::ExprPtr e;
    if (Status st = parse_or(&e); !st.ok()) return st;
    q->filters.push_back(std::move(e));
    return Status::Ok();
  }

  Status parse_keyword(Query* q) {
    lexer_.take();  // KEYWORD
    if (lexer_.peek().kind != TokKind::kVar) {
      return lexer_.error("KEYWORD needs a variable");
    }
    KeywordClause kc;
    kc.var = lexer_.take().text;
    if (Status st = expect_keyword("matches"); !st.ok()) return st;
    if (at_keyword("all")) {
      lexer_.take();
      kc.conjunctive = true;
    } else if (at_keyword("any")) {
      lexer_.take();
      kc.conjunctive = false;
    } else {
      return lexer_.error("expected ALL or ANY");
    }
    if (Status st = expect_punct("("); !st.ok()) return st;
    for (;;) {
      if (lexer_.peek().kind != TokKind::kString) {
        return lexer_.error("expected token string");
      }
      kc.tokens.push_back(lexer_.take().text);
      if (lexer_.peek().kind == TokKind::kPunct && lexer_.peek().text == ",") {
        lexer_.take();
        continue;
      }
      break;
    }
    if (Status st = expect_punct(")"); !st.ok()) return st;
    q->keywords.push_back(std::move(kc));
    return Status::Ok();
  }

  Status parse_vector(Query* q) {
    lexer_.take();  // VECTOR
    if (lexer_.peek().kind != TokKind::kVar) {
      return lexer_.error("VECTOR needs a variable");
    }
    VectorClause vc;
    vc.var = lexer_.take().text;
    if (Status st = expect_keyword("nearest"); !st.ok()) return st;
    if (lexer_.peek().kind != TokKind::kNumber) {
      return lexer_.error("expected k");
    }
    vc.k = static_cast<std::size_t>(std::strtoull(
        lexer_.take().text.c_str(), nullptr, 10));
    if (at_keyword("cosine")) {
      lexer_.take();
      vc.metric = store::Metric::kCosine;
    } else if (at_keyword("dot")) {
      lexer_.take();
      vc.metric = store::Metric::kDot;
    } else if (at_keyword("l2")) {
      lexer_.take();
      vc.metric = store::Metric::kL2;
    }
    if (Status st = expect_punct("["); !st.ok()) return st;
    for (;;) {
      double v = 0.0;
      if (Status st = parse_signed_number(&v); !st.ok()) return st;
      vc.query.push_back(static_cast<float>(v));
      if (lexer_.peek().kind == TokKind::kPunct && lexer_.peek().text == ",") {
        lexer_.take();
        continue;
      }
      break;
    }
    if (Status st = expect_punct("]"); !st.ok()) return st;
    q->vectors.push_back(std::move(vc));
    return Status::Ok();
  }

  Status parse_distinct(Query* q) {
    lexer_.take();  // DISTINCT
    if (lexer_.peek().kind != TokKind::kVar) {
      return lexer_.error("DISTINCT needs a variable");
    }
    q->distinct_var = lexer_.take().text;
    return Status::Ok();
  }

  Status parse_invoke(Query* q) {
    lexer_.take();  // INVOKE
    if (lexer_.peek().kind != TokKind::kIdent) {
      return lexer_.error("INVOKE needs a UDF name");
    }
    InvokeClause inv;
    inv.udf = lexer_.take().text;
    if (Status st = expect_punct("("); !st.ok()) return st;
    if (!(lexer_.peek().kind == TokKind::kPunct &&
          lexer_.peek().text == ")")) {
      for (;;) {
        expr::ExprPtr arg;
        if (Status st = parse_or(&arg); !st.ok()) return st;
        inv.args.push_back(std::move(arg));
        if (lexer_.peek().kind == TokKind::kPunct &&
            lexer_.peek().text == ",") {
          lexer_.take();
          continue;
        }
        break;
      }
    }
    if (Status st = expect_punct(")"); !st.ok()) return st;
    if (Status st = expect_keyword("as"); !st.ok()) return st;
    if (lexer_.peek().kind != TokKind::kVar) {
      return lexer_.error("INVOKE ... AS needs a variable");
    }
    inv.out_var = lexer_.take().text;
    if (at_keyword("cache")) {
      lexer_.take();
      if (lexer_.peek().kind != TokKind::kString) {
        return lexer_.error("CACHE needs a prefix string");
      }
      inv.use_cache = true;
      inv.cache_prefix = lexer_.take().text;
    }
    q->invokes.push_back(std::move(inv));
    return Status::Ok();
  }

  Status parse_order(Query* q) {
    lexer_.take();  // ORDER
    if (Status st = expect_keyword("by"); !st.ok()) return st;
    if (lexer_.peek().kind != TokKind::kVar) {
      return lexer_.error("ORDER BY needs a variable");
    }
    q->order_by = lexer_.take().text;
    if (at_keyword("desc")) {
      lexer_.take();
      q->order_descending = true;
    } else if (at_keyword("asc")) {
      lexer_.take();
    }
    return Status::Ok();
  }

  Status parse_limit(Query* q) {
    lexer_.take();  // LIMIT
    if (lexer_.peek().kind != TokKind::kNumber) {
      return lexer_.error("LIMIT needs a number");
    }
    q->limit = static_cast<std::size_t>(
        std::strtoull(lexer_.take().text.c_str(), nullptr, 10));
    return Status::Ok();
  }

  Status parse_signed_number(double* out) {
    double sign = 1.0;
    if (lexer_.peek().kind == TokKind::kOp && lexer_.peek().text == "-") {
      lexer_.take();
      sign = -1.0;
    }
    if (lexer_.peek().kind != TokKind::kNumber) {
      return lexer_.error("expected number");
    }
    *out = sign * std::strtod(lexer_.take().text.c_str(), nullptr);
    return Status::Ok();
  }

  // -- Expression grammar (precedence climbing) ----------------------------

  Status parse_or(expr::ExprPtr* out) {
    if (Status st = parse_and(out); !st.ok()) return st;
    while (lexer_.peek().kind == TokKind::kOp && lexer_.peek().text == "||") {
      lexer_.take();
      expr::ExprPtr rhs;
      if (Status st = parse_and(&rhs); !st.ok()) return st;
      *out = expr::Expr::Or(*out, std::move(rhs));
    }
    return Status::Ok();
  }

  Status parse_and(expr::ExprPtr* out) {
    if (Status st = parse_cmp(out); !st.ok()) return st;
    while (lexer_.peek().kind == TokKind::kOp && lexer_.peek().text == "&&") {
      lexer_.take();
      expr::ExprPtr rhs;
      if (Status st = parse_cmp(&rhs); !st.ok()) return st;
      *out = expr::Expr::And(*out, std::move(rhs));
    }
    return Status::Ok();
  }

  Status parse_cmp(expr::ExprPtr* out) {
    if (Status st = parse_additive(out); !st.ok()) return st;
    if (lexer_.peek().kind != TokKind::kOp) return Status::Ok();
    const std::string op = lexer_.peek().text;
    expr::CmpOp c;
    if (op == "==") c = expr::CmpOp::kEq;
    else if (op == "!=") c = expr::CmpOp::kNe;
    else if (op == "<") c = expr::CmpOp::kLt;
    else if (op == "<=") c = expr::CmpOp::kLe;
    else if (op == ">") c = expr::CmpOp::kGt;
    else if (op == ">=") c = expr::CmpOp::kGe;
    else return Status::Ok();
    lexer_.take();
    expr::ExprPtr rhs;
    if (Status st = parse_additive(&rhs); !st.ok()) return st;
    *out = expr::Expr::Compare(c, *out, std::move(rhs));
    return Status::Ok();
  }

  Status parse_additive(expr::ExprPtr* out) {
    if (Status st = parse_multiplicative(out); !st.ok()) return st;
    while (lexer_.peek().kind == TokKind::kOp &&
           (lexer_.peek().text == "+" || lexer_.peek().text == "-")) {
      bool add = lexer_.take().text == "+";
      expr::ExprPtr rhs;
      if (Status st = parse_multiplicative(&rhs); !st.ok()) return st;
      *out = expr::Expr::Arith(add ? expr::ArithOp::kAdd : expr::ArithOp::kSub,
                               *out, std::move(rhs));
    }
    return Status::Ok();
  }

  Status parse_multiplicative(expr::ExprPtr* out) {
    if (Status st = parse_unary(out); !st.ok()) return st;
    while (lexer_.peek().kind == TokKind::kOp &&
           (lexer_.peek().text == "*" || lexer_.peek().text == "/")) {
      bool mul = lexer_.take().text == "*";
      expr::ExprPtr rhs;
      if (Status st = parse_unary(&rhs); !st.ok()) return st;
      *out = expr::Expr::Arith(mul ? expr::ArithOp::kMul : expr::ArithOp::kDiv,
                               *out, std::move(rhs));
    }
    return Status::Ok();
  }

  Status parse_unary(expr::ExprPtr* out) {
    if (lexer_.peek().kind == TokKind::kOp && lexer_.peek().text == "!") {
      lexer_.take();
      expr::ExprPtr operand;
      if (Status st = parse_unary(&operand); !st.ok()) return st;
      *out = expr::Expr::Not(std::move(operand));
      return Status::Ok();
    }
    if (lexer_.peek().kind == TokKind::kOp && lexer_.peek().text == "-") {
      lexer_.take();
      expr::ExprPtr operand;
      if (Status st = parse_unary(&operand); !st.ok()) return st;
      *out = expr::Expr::Arith(expr::ArithOp::kSub, expr::Expr::Constant(0.0),
                               std::move(operand));
      return Status::Ok();
    }
    return parse_primary(out);
  }

  Status parse_primary(expr::ExprPtr* out) {
    const Token& t = lexer_.peek();
    switch (t.kind) {
      case TokKind::kNumber: {
        *out = expr::Expr::Constant(std::strtod(lexer_.take().text.c_str(),
                                                nullptr));
        return Status::Ok();
      }
      case TokKind::kString: {
        *out = expr::Expr::Constant(lexer_.take().text);
        return Status::Ok();
      }
      case TokKind::kVar: {
        std::string var = lexer_.take().text;
        expr::ExprPtr e = expr::Expr::Var(var);
        // Feature access chain: ?x.feature(.subfeature...).
        while (lexer_.peek().kind == TokKind::kPunct &&
               lexer_.peek().text == ".") {
          lexer_.take();
          if (lexer_.peek().kind != TokKind::kIdent) {
            return lexer_.error("expected feature name after '.'");
          }
          e = expr::Expr::Feature(std::move(e), lexer_.take().text);
        }
        *out = std::move(e);
        return Status::Ok();
      }
      case TokKind::kIdent: {
        std::string name = lexer_.take().text;
        std::string lower = to_lower(name);
        if (lower == "true") {
          *out = expr::Expr::Constant(true);
          return Status::Ok();
        }
        if (lower == "false") {
          *out = expr::Expr::Constant(false);
          return Status::Ok();
        }
        // UDF call.
        if (Status st = expect_punct("("); !st.ok()) return st;
        std::vector<expr::ExprPtr> args;
        if (!(lexer_.peek().kind == TokKind::kPunct &&
              lexer_.peek().text == ")")) {
          for (;;) {
            expr::ExprPtr arg;
            if (Status st = parse_or(&arg); !st.ok()) return st;
            args.push_back(std::move(arg));
            if (lexer_.peek().kind == TokKind::kPunct &&
                lexer_.peek().text == ",") {
              lexer_.take();
              continue;
            }
            break;
          }
        }
        if (Status st = expect_punct(")"); !st.ok()) return st;
        *out = expr::Expr::Udf(std::move(name), std::move(args));
        return Status::Ok();
      }
      case TokKind::kPunct: {
        if (t.text == "(") {
          lexer_.take();
          if (Status st = parse_or(out); !st.ok()) return st;
          return expect_punct(")");
        }
        break;
      }
      default:
        break;
    }
    return lexer_.error("expected expression");
  }

  Lexer lexer_;
  graph::Dictionary* dict_;
};

}  // namespace

Result<Query> parse_query(std::string_view text, graph::Dictionary* dict) {
  Parser p(text, dict);
  return p.parse();
}

Result<expr::ExprPtr> parse_expression(std::string_view text) {
  Parser p(text, nullptr);
  return p.parse_single_expression();
}

}  // namespace ids::core
