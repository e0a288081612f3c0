#include "directives/parser.hpp"

#include "support/error.hpp"
#include "support/strings.hpp"

namespace hpfnt::dir {

namespace {

class Cursor {
 public:
  explicit Cursor(const Line& line) : tokens_(&line.tokens) {}

  const Token& peek(int ahead = 0) const {
    const std::size_t i = pos_ + static_cast<std::size_t>(ahead);
    return i < tokens_->size() ? (*tokens_)[i] : tokens_->back();
  }

  bool at(Tok kind) const { return peek().kind == kind; }

  bool at_ident(const std::string& word) const {
    return peek().kind == Tok::kIdent && iequals(peek().text, word);
  }

  const Token& eat() { return (*tokens_)[pos_ < tokens_->size() - 1 ? pos_++ : pos_]; }

  const Token& expect(Tok kind, const char* context) {
    if (!at(kind)) {
      fail(cat("expected ", tok_name(kind), " in ", context, ", found ",
               describe(peek())));
    }
    return eat();
  }

  bool accept(Tok kind) {
    if (at(kind)) {
      eat();
      return true;
    }
    return false;
  }

  bool accept_ident(const std::string& word) {
    if (at_ident(word)) {
      eat();
      return true;
    }
    return false;
  }

  std::string expect_name(const char* context) {
    if (!at(Tok::kIdent)) {
      fail(cat("expected an identifier in ", context, ", found ",
               describe(peek())));
    }
    return eat().text;
  }

  void expect_end(const char* context) {
    if (!at(Tok::kEnd)) {
      fail(cat("unexpected ", describe(peek()), " after ", context));
    }
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw DirectiveError(message, peek().line, peek().column);
  }

  static std::string describe(const Token& t) {
    if (t.kind == Tok::kIdent) return "'" + t.text + "'";
    if (t.kind == Tok::kInteger) return "'" + std::to_string(t.value) + "'";
    return tok_name(t.kind);
  }

 private:
  const std::vector<Token>* tokens_;
  std::size_t pos_ = 0;
};

// --- expressions -----------------------------------------------------------

DirExprPtr parse_expr(Cursor& c);

DirExprPtr parse_factor(Cursor& c) {
  const Token& t = c.peek();
  if (c.accept(Tok::kMinus)) {
    auto e = std::make_shared<DirExpr>();
    e->kind = DirExpr::Kind::kNeg;
    e->line = t.line;
    e->column = t.column;
    e->lhs = parse_factor(c);
    return e;
  }
  if (c.at(Tok::kInteger)) {
    auto e = std::make_shared<DirExpr>();
    e->kind = DirExpr::Kind::kInt;
    e->value = c.eat().value;
    e->line = t.line;
    e->column = t.column;
    return e;
  }
  if (c.at(Tok::kIdent)) {
    std::string name = c.eat().text;
    if (c.at(Tok::kLParen)) {
      // Intrinsic call: MAX, MIN, LBOUND, UBOUND, SIZE.
      c.eat();
      auto e = std::make_shared<DirExpr>();
      e->kind = DirExpr::Kind::kCall;
      e->name = name;
      e->line = t.line;
      e->column = t.column;
      e->args.push_back(parse_expr(c));
      while (c.accept(Tok::kComma)) e->args.push_back(parse_expr(c));
      c.expect(Tok::kRParen, "intrinsic call");
      return e;
    }
    auto e = std::make_shared<DirExpr>();
    e->kind = DirExpr::Kind::kName;
    e->name = std::move(name);
    e->line = t.line;
    e->column = t.column;
    return e;
  }
  if (c.accept(Tok::kLParen)) {
    DirExprPtr inner = parse_expr(c);
    c.expect(Tok::kRParen, "parenthesized expression");
    return inner;
  }
  c.fail(cat("expected an expression, found ", Cursor::describe(c.peek())));
}

DirExprPtr parse_term(Cursor& c) {
  DirExprPtr lhs = parse_factor(c);
  while (c.at(Tok::kStar)) {
    const Token& op = c.eat();
    auto e = std::make_shared<DirExpr>();
    e->kind = DirExpr::Kind::kMul;
    e->line = op.line;
    e->column = op.column;
    e->lhs = lhs;
    e->rhs = parse_factor(c);
    lhs = e;
  }
  return lhs;
}

DirExprPtr parse_expr(Cursor& c) {
  DirExprPtr lhs = parse_term(c);
  while (c.at(Tok::kPlus) || c.at(Tok::kMinus)) {
    const Token& op = c.eat();
    auto e = std::make_shared<DirExpr>();
    e->kind = op.kind == Tok::kPlus ? DirExpr::Kind::kAdd
                                    : DirExpr::Kind::kSub;
    e->line = op.line;
    e->column = op.column;
    e->lhs = lhs;
    e->rhs = parse_term(c);
    lhs = e;
  }
  return lhs;
}

// --- subscripts, dims, formats, targets ----------------------------------------

/// Parses one subscript: "*", ":", expr, or triplet [l]:[u][:s].
AstSub parse_sub(Cursor& c) {
  AstSub sub;
  if (c.accept(Tok::kStar)) {
    sub.kind = AstSub::Kind::kStar;
    return sub;
  }
  DirExprPtr first;
  if (!c.at(Tok::kColon) && !c.at(Tok::kDoubleColon)) {
    first = parse_expr(c);
    if (!c.at(Tok::kColon) && !c.at(Tok::kDoubleColon)) {
      sub.kind = AstSub::Kind::kExpr;
      sub.expr = first;
      return sub;
    }
  }
  // Triplet territory: "M::M" lexes its "::" as one token (omitted upper).
  sub.kind = AstSub::Kind::kTriplet;
  sub.lower = first;
  if (c.accept(Tok::kDoubleColon)) {
    if (!c.at(Tok::kComma) && !c.at(Tok::kRParen) && !c.at(Tok::kEnd)) {
      sub.stride = parse_expr(c);
    }
  } else {
    c.expect(Tok::kColon, "subscript triplet");
    if (!c.at(Tok::kColon) && !c.at(Tok::kComma) && !c.at(Tok::kRParen) &&
        !c.at(Tok::kEnd)) {
      sub.upper = parse_expr(c);
    }
    if (c.accept(Tok::kColon)) {
      sub.stride = parse_expr(c);
    }
  }
  if (sub.lower == nullptr && sub.upper == nullptr && sub.stride == nullptr) {
    sub.kind = AstSub::Kind::kColon;  // bare ":"
  }
  return sub;
}

std::vector<AstSub> parse_sub_list(Cursor& c, const char* context) {
  c.expect(Tok::kLParen, context);
  std::vector<AstSub> subs;
  subs.push_back(parse_sub(c));
  while (c.accept(Tok::kComma)) subs.push_back(parse_sub(c));
  c.expect(Tok::kRParen, context);
  return subs;
}

/// Parses one declaration dimension: ":" (deferred) or [l:]u.
AstDim parse_dim(Cursor& c) {
  AstDim dim;
  if (c.accept(Tok::kColon)) {
    dim.deferred = true;
    return dim;
  }
  DirExprPtr first = parse_expr(c);
  if (c.accept(Tok::kColon)) {
    dim.lower = first;
    dim.upper = parse_expr(c);
  } else {
    dim.upper = first;
  }
  return dim;
}

std::vector<AstDim> parse_dim_list(Cursor& c, const char* context) {
  c.expect(Tok::kLParen, context);
  std::vector<AstDim> dims;
  dims.push_back(parse_dim(c));
  while (c.accept(Tok::kComma)) dims.push_back(parse_dim(c));
  c.expect(Tok::kRParen, context);
  return dims;
}

AstFormat parse_format(Cursor& c) {
  AstFormat fmt;
  if (c.accept(Tok::kColon)) {
    fmt.kind = AstFormat::Kind::kCollapsed;
    return fmt;
  }
  std::string word = c.expect_name("distribution format");
  if (iequals(word, "BLOCK")) {
    fmt.kind = AstFormat::Kind::kBlock;
  } else if (iequals(word, "VIENNA_BLOCK")) {
    fmt.kind = AstFormat::Kind::kViennaBlock;
  } else if (iequals(word, "CYCLIC")) {
    fmt.kind = AstFormat::Kind::kCyclic;
    if (c.accept(Tok::kLParen)) {
      fmt.cyclic_k = parse_expr(c);
      c.expect(Tok::kRParen, "CYCLIC(k)");
    }
  } else if (iequals(word, "GENERAL_BLOCK")) {
    fmt.kind = AstFormat::Kind::kGeneralBlock;
    // "GENERAL_BLOCK(/3,9/)" lexes its "(/" as one token; the explicit
    // "GENERAL_BLOCK((/3,9/))" form has a separate outer "(".
    if (c.accept(Tok::kSlashParen)) {
      fmt.gb_bounds.push_back(parse_expr(c));
      while (c.accept(Tok::kComma)) fmt.gb_bounds.push_back(parse_expr(c));
      c.expect(Tok::kParenSlash, "GENERAL_BLOCK bound list");
    } else {
      c.expect(Tok::kLParen, "GENERAL_BLOCK");
      const bool constructor = c.accept(Tok::kSlashParen);
      fmt.gb_bounds.push_back(parse_expr(c));
      while (c.accept(Tok::kComma)) fmt.gb_bounds.push_back(parse_expr(c));
      if (constructor) c.expect(Tok::kParenSlash, "GENERAL_BLOCK bound list");
      c.expect(Tok::kRParen, "GENERAL_BLOCK");
    }
  } else {
    c.fail(cat("unknown distribution format '", word,
               "' (BLOCK, VIENNA_BLOCK, GENERAL_BLOCK, CYCLIC or ':')"));
  }
  return fmt;
}

std::vector<AstFormat> parse_format_list(Cursor& c) {
  c.expect(Tok::kLParen, "distribution format list");
  std::vector<AstFormat> formats;
  formats.push_back(parse_format(c));
  while (c.accept(Tok::kComma)) formats.push_back(parse_format(c));
  c.expect(Tok::kRParen, "distribution format list");
  return formats;
}

AstTarget parse_target(Cursor& c) {
  AstTarget target;
  target.name = c.expect_name("distribution target");
  if (c.at(Tok::kLParen)) {
    target.subs = parse_sub_list(c, "distribution target section");
    target.has_subs = true;
  }
  return target;
}

// --- array expressions --------------------------------------------------------

AstSecExprPtr parse_sec_expr(Cursor& c);

AstSecExprPtr parse_sec_factor(Cursor& c) {
  const Token& t = c.peek();
  if (c.accept(Tok::kMinus)) {
    auto e = std::make_shared<AstSecExpr>();
    e->kind = AstSecExpr::Kind::kNeg;
    e->line = t.line;
    e->column = t.column;
    e->lhs = parse_sec_factor(c);
    return e;
  }
  if (c.at(Tok::kInteger)) {
    auto e = std::make_shared<AstSecExpr>();
    e->kind = AstSecExpr::Kind::kInt;
    e->value = c.eat().value;
    e->line = t.line;
    e->column = t.column;
    return e;
  }
  if (c.at(Tok::kIdent)) {
    auto e = std::make_shared<AstSecExpr>();
    e->kind = AstSecExpr::Kind::kRef;
    e->name = c.eat().text;
    e->line = t.line;
    e->column = t.column;
    if (c.at(Tok::kLParen)) {
      e->subs = parse_sub_list(c, "array-expression section");
      e->has_subs = true;
    }
    return e;
  }
  if (c.accept(Tok::kLParen)) {
    AstSecExprPtr inner = parse_sec_expr(c);
    c.expect(Tok::kRParen, "parenthesized array expression");
    return inner;
  }
  c.fail(cat("expected an array expression, found ",
             Cursor::describe(c.peek())));
}

AstSecExprPtr parse_sec_term(Cursor& c) {
  AstSecExprPtr lhs = parse_sec_factor(c);
  while (c.at(Tok::kStar) || c.at(Tok::kSlash)) {
    const Token& op = c.eat();
    auto e = std::make_shared<AstSecExpr>();
    e->kind = op.kind == Tok::kStar ? AstSecExpr::Kind::kMul
                                    : AstSecExpr::Kind::kDiv;
    e->line = op.line;
    e->column = op.column;
    e->lhs = lhs;
    e->rhs = parse_sec_factor(c);
    lhs = e;
  }
  return lhs;
}

AstSecExprPtr parse_sec_expr(Cursor& c) {
  AstSecExprPtr lhs = parse_sec_term(c);
  while (c.at(Tok::kPlus) || c.at(Tok::kMinus)) {
    const Token& op = c.eat();
    auto e = std::make_shared<AstSecExpr>();
    e->kind = op.kind == Tok::kPlus ? AstSecExpr::Kind::kAdd
                                    : AstSecExpr::Kind::kSub;
    e->line = op.line;
    e->column = op.column;
    e->lhs = lhs;
    e->rhs = parse_sec_term(c);
    lhs = e;
  }
  return lhs;
}

/// True when the line is `NAME ( ... ) = ...` — an array-section
/// assignment. Distinguished from a declaration/CALL/etc. by the caller;
/// here only the parenthesized-prefix-then-'=' shape is scanned, without
/// consuming tokens.
bool looks_like_array_assign(const Cursor& c) {
  if (c.peek(0).kind != Tok::kIdent || c.peek(1).kind != Tok::kLParen) {
    return false;
  }
  int depth = 0;
  for (int k = 1; c.peek(k).kind != Tok::kEnd; ++k) {
    const Tok kind = c.peek(k).kind;
    if (kind == Tok::kLParen || kind == Tok::kSlashParen) ++depth;
    if (kind == Tok::kRParen || kind == Tok::kParenSlash) {
      if (--depth == 0) return c.peek(k + 1).kind == Tok::kAssign;
    }
  }
  return false;
}

// --- statements -------------------------------------------------------------------

AstDeclName parse_decl_name(Cursor& c) {
  AstDeclName d;
  d.name = c.expect_name("declaration");
  if (c.at(Tok::kLParen)) {
    d.dims = parse_dim_list(c, "declaration shape");
  }
  return d;
}

AstNode parse_declaration(Cursor& c, int line_no, const std::string& type) {
  AstNode node;
  node.kind = AstNode::Kind::kDeclaration;
  node.line = line_no;
  AstDeclaration decl;
  decl.type = to_upper(type);
  // DOUBLE PRECISION: consume the second word.
  if (iequals(type, "DOUBLE")) c.accept_ident("PRECISION");
  // Attribute list: REAL, ALLOCATABLE [ (dims) ] :: names
  bool attributed = false;
  while (c.accept(Tok::kComma)) {
    attributed = true;
    std::string attr = c.expect_name("type attribute");
    if (iequals(attr, "ALLOCATABLE")) {
      decl.allocatable = true;
      if (c.at(Tok::kLParen)) {
        decl.type_dims = parse_dim_list(c, "ALLOCATABLE shape");
      }
    } else if (iequals(attr, "DIMENSION")) {
      decl.type_dims = parse_dim_list(c, "DIMENSION shape");
    } else {
      c.fail(cat("unsupported attribute '", attr, "'"));
    }
  }
  if (attributed) {
    c.expect(Tok::kDoubleColon, "attributed declaration");
  } else {
    c.accept(Tok::kDoubleColon);  // REAL :: A is also legal
  }
  decl.names.push_back(parse_decl_name(c));
  while (c.accept(Tok::kComma)) decl.names.push_back(parse_decl_name(c));
  c.expect_end("declaration");
  node.declaration = std::move(decl);
  return node;
}

AstNode parse_statement(Cursor& c, int line_no) {
  AstNode node;
  node.line = line_no;
  if (c.at_ident("REAL") || c.at_ident("INTEGER") || c.at_ident("DOUBLE") ||
      c.at_ident("LOGICAL")) {
    std::string type = c.eat().text;
    return parse_declaration(c, line_no, type);
  }
  if (c.accept_ident("ALLOCATE")) {
    node.kind = AstNode::Kind::kAllocate;
    AstAllocate alloc;
    c.expect(Tok::kLParen, "ALLOCATE");
    alloc.items.push_back(parse_decl_name(c));
    while (c.accept(Tok::kComma)) alloc.items.push_back(parse_decl_name(c));
    c.expect(Tok::kRParen, "ALLOCATE");
    c.expect_end("ALLOCATE");
    node.allocate = std::move(alloc);
    return node;
  }
  if (c.accept_ident("DEALLOCATE")) {
    node.kind = AstNode::Kind::kDeallocate;
    AstDeallocate dealloc;
    c.expect(Tok::kLParen, "DEALLOCATE");
    dealloc.names.push_back(c.expect_name("DEALLOCATE"));
    while (c.accept(Tok::kComma)) {
      dealloc.names.push_back(c.expect_name("DEALLOCATE"));
    }
    c.expect(Tok::kRParen, "DEALLOCATE");
    c.expect_end("DEALLOCATE");
    node.deallocate = std::move(dealloc);
    return node;
  }
  if (c.accept_ident("CALL")) {
    node.kind = AstNode::Kind::kCall;
    AstCall call;
    call.procedure = c.expect_name("CALL");
    if (c.accept(Tok::kLParen)) {
      if (!c.at(Tok::kRParen)) {
        auto parse_arg = [&]() {
          AstCallArg arg;
          arg.name = c.expect_name("actual argument");
          if (c.at(Tok::kLParen)) {
            arg.subs = parse_sub_list(c, "actual argument section");
            arg.has_subs = true;
          }
          return arg;
        };
        call.args.push_back(parse_arg());
        while (c.accept(Tok::kComma)) call.args.push_back(parse_arg());
      }
      c.expect(Tok::kRParen, "CALL");
    }
    c.expect_end("CALL");
    node.call = std::move(call);
    return node;
  }
  if (c.accept_ident("SUBROUTINE")) {
    node.kind = AstNode::Kind::kSubroutineStart;
    node.subroutine_name = c.expect_name("SUBROUTINE");
    if (c.accept(Tok::kLParen)) {
      if (!c.at(Tok::kRParen)) {
        node.subroutine_args.push_back(c.expect_name("dummy argument"));
        while (c.accept(Tok::kComma)) {
          node.subroutine_args.push_back(c.expect_name("dummy argument"));
        }
      }
      c.expect(Tok::kRParen, "SUBROUTINE");
    }
    c.expect_end("SUBROUTINE");
    return node;
  }
  if (c.accept_ident("END")) {
    node.kind = AstNode::Kind::kEnd;
    c.accept_ident("SUBROUTINE");
    if (c.at(Tok::kIdent)) c.eat();  // optional name
    c.expect_end("END");
    return node;
  }
  if (c.at_ident("READ")) {
    node.kind = AstNode::Kind::kRead;
    return node;  // rest of the line ignored; the binder explains
  }
  // STATS: snapshot the plan-cache counters (a scalar named STATS can
  // still be assigned — the lookahead keeps `STATS = 3` an assignment).
  if (c.at_ident("STATS") && c.peek(1).kind != Tok::kAssign) {
    c.eat();
    node.kind = AstNode::Kind::kStats;
    c.expect_end("STATS");
    return node;
  }
  // Fault statements (src/fault/). The same lookaheads keep scalars named
  // CHECKPOINT etc. assignable, and an array named FAULTS subscriptable.
  if (c.at_ident("CHECKPOINT") && c.peek(1).kind != Tok::kAssign) {
    c.eat();
    node.kind = AstNode::Kind::kCheckpoint;
    c.expect_end("CHECKPOINT");
    return node;
  }
  if (c.at_ident("RESTORE") && c.peek(1).kind != Tok::kAssign) {
    c.eat();
    node.kind = AstNode::Kind::kRestore;
    c.expect_end("RESTORE");
    return node;
  }
  if (c.at_ident("FAIL_PROC") && c.peek(1).kind != Tok::kAssign) {
    c.eat();
    node.kind = AstNode::Kind::kFailProc;
    AstFailProc fp;
    fp.proc = parse_expr(c);
    c.expect_end("FAIL_PROC");
    node.fail_proc = std::move(fp);
    return node;
  }
  if (c.at_ident("FAULTS") && c.peek(1).kind == Tok::kLParen &&
      !looks_like_array_assign(c)) {
    c.eat();
    node.kind = AstNode::Kind::kFaults;
    c.expect(Tok::kLParen, "FAULTS");
    AstFaults f;
    f.seed = parse_expr(c);
    c.expect(Tok::kComma, "FAULTS");
    f.prob_permille = parse_expr(c);
    c.expect(Tok::kComma, "FAULTS");
    f.retries = parse_expr(c);
    c.expect(Tok::kRParen, "FAULTS");
    c.expect_end("FAULTS");
    node.faults = std::move(f);
    return node;
  }
  // Array-section assignment: NAME(subs) = array-expr.
  if (looks_like_array_assign(c)) {
    node.kind = AstNode::Kind::kArrayAssign;
    AstArrayAssign assign;
    assign.column = c.peek().column;
    assign.name = c.eat().text;
    assign.subs = parse_sub_list(c, "assignment target section");
    assign.has_subs = true;
    c.expect(Tok::kAssign, "array assignment");
    assign.rhs = parse_sec_expr(c);
    c.expect_end("array assignment");
    node.array_assign = std::move(assign);
    return node;
  }
  // Scalar assignment: NAME = expr.
  if (c.at(Tok::kIdent) && c.peek(1).kind == Tok::kAssign) {
    node.kind = AstNode::Kind::kAssign;
    AstAssign assign;
    assign.name = c.eat().text;
    c.expect(Tok::kAssign, "assignment");
    assign.value = parse_expr(c);
    c.expect_end("assignment");
    node.assign = std::move(assign);
    return node;
  }
  c.fail(cat("unrecognized statement starting with ",
             Cursor::describe(c.peek())));
}

// --- directives --------------------------------------------------------------------

AstNode parse_directive(Cursor& c, int line_no) {
  AstNode node;
  node.line = line_no;
  if (c.accept_ident("PROCESSORS")) {
    node.kind = AstNode::Kind::kProcessors;
    AstProcessors procs;
    c.accept(Tok::kDoubleColon);
    procs.arrangements.push_back(parse_decl_name(c));
    while (c.accept(Tok::kComma)) {
      procs.arrangements.push_back(parse_decl_name(c));
    }
    c.expect_end("PROCESSORS");
    node.processors = std::move(procs);
    return node;
  }
  const bool redistribute = c.at_ident("REDISTRIBUTE");
  if (c.accept_ident("DISTRIBUTE") || c.accept_ident("REDISTRIBUTE")) {
    node.kind = AstNode::Kind::kDistribute;
    AstDistribute dist;
    dist.executable = redistribute;
    if (c.at(Tok::kLParen)) {
      // Attributed form: DISTRIBUTE (fmts) [TO t] :: A, B
      dist.formats = parse_format_list(c);
      dist.has_formats = true;
      if (c.accept_ident("TO") || c.accept_ident("ONTO")) {
        dist.target = parse_target(c);
      }
      c.expect(Tok::kDoubleColon, "attributed DISTRIBUTE");
      dist.names.push_back(c.expect_name("distributee"));
      while (c.accept(Tok::kComma)) {
        dist.names.push_back(c.expect_name("distributee"));
      }
    } else {
      dist.names.push_back(c.expect_name("distributee"));
      if (c.accept(Tok::kStar)) {
        dist.inherit = true;  // DISTRIBUTE A *  (§7 inheritance)
      }
      if (c.at(Tok::kLParen)) {
        dist.formats = parse_format_list(c);
        dist.has_formats = true;
      }
      if (c.accept_ident("TO") || c.accept_ident("ONTO")) {
        dist.target = parse_target(c);
      }
    }
    c.expect_end("DISTRIBUTE");
    node.distribute = std::move(dist);
    return node;
  }
  const bool realign = c.at_ident("REALIGN");
  if (c.accept_ident("ALIGN") || c.accept_ident("REALIGN")) {
    node.kind = AstNode::Kind::kAlign;
    AstAlign align;
    align.executable = realign;
    align.alignee = c.expect_name("alignee");
    align.alignee_subs = parse_sub_list(c, "alignee subscripts");
    if (!c.accept_ident("WITH")) {
      c.fail("expected WITH in ALIGN");
    }
    align.base = c.expect_name("alignment base");
    align.base_subs = parse_sub_list(c, "alignment base subscripts");
    c.expect_end("ALIGN");
    node.align = std::move(align);
    return node;
  }
  if (c.accept_ident("DYNAMIC")) {
    node.kind = AstNode::Kind::kDynamic;
    AstDynamic dyn;
    c.accept(Tok::kDoubleColon);
    dyn.names.push_back(c.expect_name("DYNAMIC"));
    while (c.accept(Tok::kComma)) dyn.names.push_back(c.expect_name("DYNAMIC"));
    c.expect_end("DYNAMIC");
    node.dynamic = std::move(dyn);
    return node;
  }
  if (c.accept_ident("TEMPLATE")) {
    node.kind = AstNode::Kind::kTemplate;
    AstTemplateDecl tmpl;
    tmpl.templates.push_back(parse_decl_name(c));
    while (c.accept(Tok::kComma)) tmpl.templates.push_back(parse_decl_name(c));
    c.expect_end("TEMPLATE");
    node.template_decl = std::move(tmpl);
    return node;
  }
  if (c.accept_ident("INHERIT")) {
    node.kind = AstNode::Kind::kInherit;
    AstInherit inh;
    c.accept(Tok::kDoubleColon);
    inh.names.push_back(c.expect_name("INHERIT"));
    while (c.accept(Tok::kComma)) inh.names.push_back(c.expect_name("INHERIT"));
    c.expect_end("INHERIT");
    node.inherit = std::move(inh);
    return node;
  }
  if (c.accept_ident("SHADOW")) {
    // SHADOW A(w, l:r, ...) — one width sub per array dimension: an
    // expression declares the symmetric width w:w, a triplet the left and
    // right widths separately (HPF/JA explicit shadow).
    node.kind = AstNode::Kind::kShadow;
    AstShadow sh;
    sh.name = c.expect_name("SHADOW");
    sh.widths = parse_sub_list(c, "SHADOW widths");
    c.expect_end("SHADOW");
    node.shadow = std::move(sh);
    return node;
  }
  c.fail(cat("unknown directive ", Cursor::describe(c.peek())));
}

}  // namespace

AstNode parse_line(const Line& line) {
  Cursor c(line);
  return line.is_directive ? parse_directive(c, line.number)
                           : parse_statement(c, line.number);
}

AstProgram parse_program(const std::string& source) {
  AstProgram program;
  AstSubroutine* open_subroutine = nullptr;
  const std::vector<Line> lines = lex(source);
  program.main.reserve(lines.size());  // at most a node per line
  for (const Line& line : lines) {
    AstNode node = parse_line(line);
    if (node.kind == AstNode::Kind::kSubroutineStart) {
      if (open_subroutine != nullptr) {
        throw DirectiveError("nested SUBROUTINE definitions are not supported",
                             line.number, 1);
      }
      AstSubroutine sub;
      sub.name = node.subroutine_name;
      sub.dummies = node.subroutine_args;
      sub.line = node.line;
      program.subroutines.push_back(std::move(sub));
      open_subroutine = &program.subroutines.back();
      continue;
    }
    if (node.kind == AstNode::Kind::kEnd) {
      if (open_subroutine != nullptr) {
        open_subroutine = nullptr;
        continue;
      }
      continue;  // END of the main program
    }
    if (open_subroutine != nullptr) {
      open_subroutine->body.push_back(std::move(node));
    } else {
      program.main.push_back(std::move(node));
    }
  }
  if (open_subroutine != nullptr) {
    throw DirectiveError("SUBROUTINE " + open_subroutine->name +
                             " has no END",
                         open_subroutine->line, 1);
  }
  return program;
}

}  // namespace hpfnt::dir
