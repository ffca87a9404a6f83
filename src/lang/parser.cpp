//===-- lang/parser.cpp - Recursive-descent parser implementation ---------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lang/parser.h"

#include "lang/lexer.h"

#include <cassert>
#include <optional>
#include <sstream>

using namespace dai;

namespace {

/// Recursive-descent parser over the token stream. Reports at most one error
/// (the first), recorded in Err; once Err is set, all productions bail out.
class Parser {
public:
  explicit Parser(std::vector<Token> Tokens) : Toks(std::move(Tokens)) {}

  ParseResult run() {
    ParseResult R;
    while (!Err.has_value() && peek().Kind != TokenKind::Eof) {
      FunctionAst F = parseFunction();
      if (Err)
        break;
      R.Program.Functions.push_back(std::move(F));
    }
    if (Err)
      R.Error = *Err;
    else if (R.Program.Functions.empty())
      R.Error = "input contains no functions";
    return R;
  }

private:
  std::vector<Token> Toks;
  size_t Pos = 0;
  std::optional<std::string> Err;

  /// Recursion ceiling across the mutually recursive productions. The
  /// recursive-descent frames are large enough (larger still under ASan)
  /// that pathological nesting — thousands of parens, unary operators, or
  /// statement blocks — would overflow the stack instead of producing a
  /// diagnostic without this bound.
  static constexpr unsigned MaxDepth = 400;
  unsigned Depth = 0;
  /// Enclosing 'while' bodies of the statement being parsed.
  unsigned LoopDepth = 0;

  struct DepthGuard {
    unsigned &D;
    explicit DepthGuard(unsigned &Depth) : D(Depth) { ++D; }
    ~DepthGuard() { --D; }
  };

  bool tooDeep() {
    if (Depth <= MaxDepth)
      return false;
    error("nesting exceeds the parser depth limit");
    return true;
  }

  const Token &peek(size_t Ahead = 0) const {
    size_t I = Pos + Ahead;
    return I < Toks.size() ? Toks[I] : Toks.back();
  }

  bool at(TokenKind K) const { return peek().Kind == K; }

  Token consume() {
    Token T = peek();
    if (Pos + 1 < Toks.size())
      ++Pos;
    return T;
  }

  void error(const std::string &Msg) {
    if (Err)
      return;
    const Token &T = peek();
    std::ostringstream OS;
    OS << "parse error at line " << T.Line << ", col " << T.Col << ": " << Msg;
    if (T.Kind == TokenKind::Error)
      OS << " (" << T.Text << ")";
    Err = OS.str();
  }

  Token expect(TokenKind K, const char *Context) {
    if (!at(K)) {
      error(std::string("expected ") + tokenKindName(K) + " " + Context +
            ", found " + tokenKindName(peek().Kind));
      return Token{K, "", peek().Line, peek().Col};
    }
    return consume();
  }

  FunctionAst parseFunction() {
    FunctionAst F;
    expect(TokenKind::KwFunction, "to begin a function definition");
    F.Name = expect(TokenKind::Ident, "as the function name").Text;
    expect(TokenKind::LParen, "after the function name");
    if (!at(TokenKind::RParen)) {
      F.Params.push_back(expect(TokenKind::Ident, "as a parameter").Text);
      while (!Err && at(TokenKind::Comma)) {
        consume();
        F.Params.push_back(expect(TokenKind::Ident, "as a parameter").Text);
      }
    }
    expect(TokenKind::RParen, "after the parameter list");
    F.Body = parseBlock();
    return F;
  }

  AstStmtPtr parseBlock() {
    expect(TokenKind::LBrace, "to open a block");
    std::vector<AstStmtPtr> Stmts;
    while (!Err && !at(TokenKind::RBrace) && !at(TokenKind::Eof)) {
      if (AstStmtPtr S = parseStmt())
        Stmts.push_back(std::move(S));
    }
    expect(TokenKind::RBrace, "to close a block");
    return AstStmt::mkBlock(std::move(Stmts));
  }

  AstStmtPtr parseStmt() {
    DepthGuard G(Depth);
    if (Err || tooDeep())
      return nullptr;
    switch (peek().Kind) {
    case TokenKind::Semi:
      consume();
      return AstStmt::mkSimple(Stmt::mkSkip());
    case TokenKind::KwVar: {
      consume();
      std::string Name = expect(TokenKind::Ident, "after 'var'").Text;
      expect(TokenKind::Assign, "in a variable declaration");
      AstStmtPtr S = parseAssignRhs(Name);
      expect(TokenKind::Semi, "after a declaration");
      return S;
    }
    case TokenKind::KwReturn: {
      // A return inside a loop leaves it without passing its head, and the
      // DAIG reads every loop exit from the loop's fixed point at the head.
      if (LoopDepth > 0) {
        error("'return' inside a 'while' loop is not supported");
        return nullptr;
      }
      consume();
      ExprPtr Value;
      if (!at(TokenKind::Semi))
        Value = parseExpr();
      expect(TokenKind::Semi, "after 'return'");
      return AstStmt::mkReturn(Value ? Value : Expr::mkInt(0));
    }
    case TokenKind::KwIf: {
      consume();
      expect(TokenKind::LParen, "after 'if'");
      ExprPtr Cond = parseExpr();
      expect(TokenKind::RParen, "after the if condition");
      AstStmtPtr Then = parseBlock();
      AstStmtPtr Else = AstStmt::mkBlock({});
      if (at(TokenKind::KwElse)) {
        consume();
        if (at(TokenKind::KwIf)) {
          Else = parseStmt(); // else-if chain
          if (!Else)          // bailed (depth limit) — keep mkIf's contract
            Else = AstStmt::mkBlock({});
        } else {
          Else = parseBlock();
        }
      }
      return AstStmt::mkIf(std::move(Cond), std::move(Then), std::move(Else));
    }
    case TokenKind::KwWhile: {
      consume();
      expect(TokenKind::LParen, "after 'while'");
      ExprPtr Cond = parseExpr();
      expect(TokenKind::RParen, "after the while condition");
      ++LoopDepth;
      AstStmtPtr Body = parseBlock();
      --LoopDepth;
      return AstStmt::mkWhile(std::move(Cond), std::move(Body));
    }
    case TokenKind::KwPrint: {
      consume();
      expect(TokenKind::LParen, "after 'print'");
      ExprPtr Arg = parseExpr();
      expect(TokenKind::RParen, "after the print argument");
      expect(TokenKind::Semi, "after 'print(...)'");
      return AstStmt::mkSimple(Stmt::mkPrint(std::move(Arg)));
    }
    case TokenKind::KwAssert: {
      consume();
      expect(TokenKind::LParen, "after 'assert'");
      ExprPtr Cond = parseExpr();
      expect(TokenKind::RParen, "after the assert condition");
      expect(TokenKind::Semi, "after 'assert(...)'");
      return AstStmt::mkSimple(Stmt::mkAssert(std::move(Cond)));
    }
    case TokenKind::Ident: {
      std::string Name = consume().Text;
      if (at(TokenKind::Assign)) {
        consume();
        AstStmtPtr S = parseAssignRhs(Name);
        expect(TokenKind::Semi, "after an assignment");
        return S;
      }
      if (at(TokenKind::LBracket)) {
        consume();
        ExprPtr Idx = parseExpr();
        expect(TokenKind::RBracket, "after an array index");
        expect(TokenKind::Assign, "in an array store");
        ExprPtr Rhs = parseExpr();
        expect(TokenKind::Semi, "after an array store");
        return AstStmt::mkSimple(
            Stmt::mkArrayWrite(Name, std::move(Idx), std::move(Rhs)));
      }
      if (at(TokenKind::Dot)) {
        consume();
        std::string Field = expect(TokenKind::Ident, "as a field name").Text;
        if (Field != "next") {
          error("only the 'next' field may be written");
          return nullptr;
        }
        expect(TokenKind::Assign, "in a field store");
        ExprPtr Rhs = parseExpr();
        expect(TokenKind::Semi, "after a field store");
        return AstStmt::mkSimple(Stmt::mkFieldWrite(Name, std::move(Rhs)));
      }
      error("expected '=', '[', or '.' after an identifier statement");
      return nullptr;
    }
    default:
      error("expected a statement");
      consume(); // Ensure progress even on malformed input.
      return nullptr;
    }
  }

  /// Parses the right-hand side of `Name = ...`, which may be an allocation,
  /// a call, or an expression.
  AstStmtPtr parseAssignRhs(const std::string &Name) {
    if (at(TokenKind::KwNew)) {
      consume();
      expect(TokenKind::KwList, "after 'new'");
      if (at(TokenKind::LParen)) {
        consume();
        expect(TokenKind::RParen, "after 'new List('");
      }
      return AstStmt::mkSimple(Stmt::mkAlloc(Name));
    }
    // Call syntax: IDENT '(' — calls are statements, not expressions.
    if (at(TokenKind::Ident) && peek(1).Kind == TokenKind::LParen) {
      std::string Callee = consume().Text;
      consume(); // '('
      std::vector<ExprPtr> Args;
      if (!at(TokenKind::RParen)) {
        Args.push_back(parseExpr());
        while (!Err && at(TokenKind::Comma)) {
          consume();
          Args.push_back(parseExpr());
        }
      }
      expect(TokenKind::RParen, "after call arguments");
      return AstStmt::mkSimple(Stmt::mkCall(Name, Callee, std::move(Args)));
    }
    return AstStmt::mkSimple(Stmt::mkAssign(Name, parseExpr()));
  }

  // Expression parsing: precedence climbing.
  ExprPtr parseExpr() {
    DepthGuard G(Depth);
    if (tooDeep())
      return Expr::mkInt(0);
    return parseOr();
  }

  ExprPtr parseOr() {
    ExprPtr L = parseAnd();
    while (!Err && at(TokenKind::OrOr)) {
      consume();
      L = Expr::mkBinary(BinaryOp::Or, L, parseAnd());
    }
    return L;
  }

  ExprPtr parseAnd() {
    ExprPtr L = parseEquality();
    while (!Err && at(TokenKind::AndAnd)) {
      consume();
      L = Expr::mkBinary(BinaryOp::And, L, parseEquality());
    }
    return L;
  }

  ExprPtr parseEquality() {
    ExprPtr L = parseRelational();
    while (!Err && (at(TokenKind::EqEq) || at(TokenKind::NotEq))) {
      BinaryOp Op = at(TokenKind::EqEq) ? BinaryOp::Eq : BinaryOp::Ne;
      consume();
      L = Expr::mkBinary(Op, L, parseRelational());
    }
    return L;
  }

  ExprPtr parseRelational() {
    ExprPtr L = parseAdditive();
    while (!Err && (at(TokenKind::Lt) || at(TokenKind::Le) ||
                    at(TokenKind::Gt) || at(TokenKind::Ge))) {
      BinaryOp Op = at(TokenKind::Lt)   ? BinaryOp::Lt
                    : at(TokenKind::Le) ? BinaryOp::Le
                    : at(TokenKind::Gt) ? BinaryOp::Gt
                                        : BinaryOp::Ge;
      consume();
      L = Expr::mkBinary(Op, L, parseAdditive());
    }
    return L;
  }

  ExprPtr parseAdditive() {
    ExprPtr L = parseMultiplicative();
    while (!Err && (at(TokenKind::Plus) || at(TokenKind::Minus))) {
      BinaryOp Op = at(TokenKind::Plus) ? BinaryOp::Add : BinaryOp::Sub;
      consume();
      L = Expr::mkBinary(Op, L, parseMultiplicative());
    }
    return L;
  }

  ExprPtr parseMultiplicative() {
    ExprPtr L = parseUnary();
    while (!Err && (at(TokenKind::Star) || at(TokenKind::Slash) ||
                    at(TokenKind::Percent))) {
      BinaryOp Op = at(TokenKind::Star)    ? BinaryOp::Mul
                    : at(TokenKind::Slash) ? BinaryOp::Div
                                           : BinaryOp::Mod;
      consume();
      L = Expr::mkBinary(Op, L, parseUnary());
    }
    return L;
  }

  ExprPtr parseUnary() {
    // Guarded separately from parseExpr: `-` / `!` chains recurse here
    // without passing through parseExpr.
    DepthGuard G(Depth);
    if (tooDeep())
      return Expr::mkInt(0);
    if (at(TokenKind::Minus)) {
      consume();
      return Expr::mkUnary(UnaryOp::Neg, parseUnary());
    }
    if (at(TokenKind::Not)) {
      consume();
      return Expr::mkUnary(UnaryOp::Not, parseUnary());
    }
    return parsePostfix();
  }

  ExprPtr parsePostfix() {
    ExprPtr E = parsePrimary();
    for (;;) {
      if (Err)
        return E;
      if (at(TokenKind::LBracket)) {
        consume();
        ExprPtr Idx = parseExpr();
        expect(TokenKind::RBracket, "after an array index");
        E = Expr::mkIndex(E, Idx);
        continue;
      }
      if (at(TokenKind::Dot)) {
        consume();
        std::string Field = expect(TokenKind::Ident, "as a field name").Text;
        E = Expr::mkField(E, Field);
        continue;
      }
      return E;
    }
  }

  ExprPtr parsePrimary() {
    switch (peek().Kind) {
    case TokenKind::IntLit: {
      Token T = consume();
      // stoll throws out_of_range on literals past int64; report it as a
      // located diagnostic like every other malformed input.
      try {
        return Expr::mkInt(std::stoll(T.Text));
      } catch (const std::exception &) {
        error("integer literal '" + T.Text + "' does not fit in 64 bits");
        return Expr::mkInt(0);
      }
    }
    case TokenKind::KwTrue:
      consume();
      return Expr::mkBool(true);
    case TokenKind::KwFalse:
      consume();
      return Expr::mkBool(false);
    case TokenKind::KwNull:
      consume();
      return Expr::mkNull();
    case TokenKind::Ident:
      return Expr::mkVar(consume().Text);
    case TokenKind::LParen: {
      consume();
      ExprPtr E = parseExpr();
      expect(TokenKind::RParen, "to close a parenthesized expression");
      return E;
    }
    case TokenKind::LBracket: {
      consume();
      std::vector<ExprPtr> Elems;
      if (!at(TokenKind::RBracket)) {
        Elems.push_back(parseExpr());
        while (!Err && at(TokenKind::Comma)) {
          consume();
          Elems.push_back(parseExpr());
        }
      }
      expect(TokenKind::RBracket, "to close an array literal");
      return Expr::mkArray(std::move(Elems));
    }
    default:
      error("expected an expression");
      consume();
      return Expr::mkInt(0);
    }
  }
};

} // namespace

ParseResult dai::parseProgram(std::string_view Source) {
  return Parser(tokenize(Source)).run();
}

ParseResult dai::parseSnippet(std::string_view Source) {
  std::string Wrapped = "function main() {\n";
  Wrapped.append(Source);
  Wrapped.append("\n}\n");
  return parseProgram(Wrapped);
}
