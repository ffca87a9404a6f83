//===-- tests/frontend_errors_test.cpp - Front-end error paths ------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Error-path coverage for the lexer/parser/lowering pipeline: malformed
/// programs must come back as ParseResult/LowerResult diagnostics — never an
/// assert, crash, or unbounded loop. Includes a fuzz-lite pass: a seeded
/// corpus of workload programs run through every truncation prefix and
/// through deterministic byte mutations, all fed to the full frontend.
///
//===----------------------------------------------------------------------===//

#include "cfg/lowering.h"

#include "lang/parser.h"
#include "support/rng.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace dai;

namespace {

/// Runs \p Source through the whole frontend and asserts the only two legal
/// outcomes: a valid program, or a non-empty diagnostic. (The EXPECTs run
/// inside the test process — an assert/crash fails the whole binary, which
/// is exactly the regression this suite exists to catch.)
void expectGracefulFrontend(const std::string &Source,
                            const std::string &Context) {
  LowerResult R = frontend(Source);
  if (!R.ok()) {
    EXPECT_FALSE(R.Error.empty())
        << Context << ": failed parse must carry a diagnostic";
  }
}

/// Corpus: realistic source programs covering the whole grammar surface —
/// loops, branches, calls, arrays, heap fields — so truncations and byte
/// mutations explore every lexer/parser state, not just the happy path.
std::vector<std::string> corpus() {
  return {
      R"(function helper0(a, b) {
        var t = a + b;
        if (t > 10) { t = t - 1; } else { t = t + 1; }
        return t;
      }
      function main(n) {
        var i = 0;
        var s = 0;
        while (i < n) {
          s = helper0(s, i);
          i = i + 1;
        }
        return s;
      })",
      R"(function main(p, q) {
        var r = p;
        while (r.next != null) {
          r = r.next;
        }
        r.next = q;
        var xs = [1, 2, 3];
        xs[0] = xs[1] + xs[2];
        if (!(p == null) && q != null || true) {
          return xs[0];
        }
        return 0;
      })",
      R"(function f(x) { return x + 1; }
      function g(x) { var a = f(x); return a * 2 - -3; }
      function main() {
        var l = new List;
        var v = g(21);
        print(v);
        ;
        return v;
      })",
  };
}

TEST(FrontendErrors, TruncationNeverCrashes) {
  // Every prefix of every corpus program: the lexer/parser must diagnose
  // the missing tail, not read past the buffer or assert.
  for (const std::string &Src : corpus()) {
    for (size_t Cut = 0; Cut < Src.size(); Cut += 7) {
      std::string Truncated = Src.substr(0, Cut);
      expectGracefulFrontend(Truncated,
                             "truncation at byte " + std::to_string(Cut));
    }
    // The exact one-byte-short prefix, the classic EOF-in-token case.
    if (!Src.empty())
      expectGracefulFrontend(Src.substr(0, Src.size() - 1),
                             "one byte short");
  }
}

TEST(FrontendErrors, ByteMutationsNeverCrash) {
  // Deterministic byte mutations (overwrite / delete / duplicate) at seeded
  // positions: mostly invalid programs, occasionally still-valid ones —
  // both must come back as a ParseResult, not a crash.
  for (const std::string &Src : corpus()) {
    Rng R(0xfa57f00dULL ^ Src.size());
    for (unsigned I = 0; I < 200; ++I) {
      std::string Mutated = Src;
      size_t Pos = static_cast<size_t>(R.below(Mutated.size()));
      switch (R.below(3)) {
      case 0: // overwrite with an arbitrary byte (incl. NUL and high bytes)
        Mutated[Pos] = static_cast<char>(R.below(256));
        break;
      case 1: // delete
        Mutated.erase(Pos, 1);
        break;
      default: // duplicate
        Mutated.insert(Pos, 1, Mutated[Pos]);
        break;
      }
      expectGracefulFrontend(Mutated, "mutation " + std::to_string(I));
    }
  }
}

TEST(FrontendErrors, MalformedProgramsReturnDiagnostics) {
  // Targeted malformations: each must FAIL with a non-empty, located error.
  const char *Cases[] = {
      "",                                      // empty input
      "function",                              // EOF mid-declaration
      "function f(",                           // EOF in parameter list
      "function f() {",                        // unterminated body
      "function f() { var x = ; }",            // missing initializer
      "function f() { var x = 1 }",            // missing semicolon
      "function f() { x = (1 + ; }",           // broken expression
      "function f() { if (x { } }",            // unbalanced condition paren
      "function f() { while }",                // while without condition
      "function f() { return 1; } }",          // stray closing brace
      "function f() { var 1x = 2; }",          // identifier starts with digit
      "function f() { x = y[; }",              // unterminated index
      "function f(a, ) { return a; }",         // trailing comma in params
      "function f() { x = g(1, ; }",           // unterminated call args
      "garbage tokens outside any function",   // no declaration at all
      "function f() { \"unterminated",         // bad token (no string lit)
      "function f() { x = 99999999999999999999999999; }", // literal overflow
  };
  for (const char *Src : Cases) {
    ParseResult P = parseProgram(Src);
    EXPECT_FALSE(P.ok()) << "expected a parse error for: " << Src;
    EXPECT_FALSE(P.Error.empty());
  }
}

TEST(FrontendErrors, ReturnInsideLoopIsRejected) {
  // A return in a loop body leaves the loop without passing its head, and
  // the DAIG reads every loop exit from the fixed point at the head: such a
  // program must be a located parse error, not an unsound analysis.
  struct Case {
    const char *Src;
    const char *Line; ///< Where the diagnostic points: the 'return'.
  };
  const Case Rejected[] = {
      {"function f(n) {\n"
       "  var i = 0;\n"
       "  while (i < n) {\n"
       "    return i;\n"
       "  }\n"
       "  return 0;\n"
       "}\n",
       "line 4,"},
      {"function find(n) {\n"
       "  var i = 0;\n"
       "  while (i < n) {\n"
       "    if (i == 5) {\n"
       "      return i;\n"
       "    }\n"
       "    i = i + 1;\n"
       "  }\n"
       "  return 0 - 1;\n"
       "}\n",
       "line 5,"},
      {"function f(n) {\n"
       "  while (n > 0) {\n"
       "    while (n > 1) { n = n - 1; }\n"
       "    if (n == 1) { n = 0; } else { return n; }\n"
       "  }\n"
       "  return n;\n"
       "}\n",
       "line 4,"},
  };
  for (const Case &C : Rejected) {
    ParseResult P = parseProgram(C.Src);
    ASSERT_FALSE(P.ok()) << "expected a parse error for:\n" << C.Src;
    EXPECT_NE(P.Error.find(C.Line), std::string::npos) << P.Error;
    EXPECT_NE(P.Error.find("'return' inside a 'while' loop"),
              std::string::npos)
        << P.Error;
    EXPECT_FALSE(frontend(C.Src).ok());
  }
  // A return after the loop, or in a branch outside any loop, still parses.
  LowerResult After = frontend(R"(
    function f(n) {
      var i = 0;
      while (i < n) {
        i = i + 1;
      }
      if (i > 3) { return i; }
      return 0;
    })");
  EXPECT_TRUE(After.ok()) << After.Error;
}

TEST(FrontendErrors, LoweringRejectsDuplicateFunctions) {
  LowerResult R = frontend(R"(
    function f() { return 1; }
    function f() { return 2; }
  )");
  EXPECT_FALSE(R.ok());
  EXPECT_FALSE(R.Error.empty());
}

TEST(FrontendErrors, SnippetWrapperDiagnosesErrors) {
  ParseResult P = parseSnippet("var x = ;");
  EXPECT_FALSE(P.ok());
  EXPECT_FALSE(P.Error.empty());
  ParseResult Good = parseSnippet("var x = 1; return x;");
  EXPECT_TRUE(Good.ok()) << Good.Error;
}

TEST(FrontendErrors, DeepNestingIsBounded) {
  // Pathological nesting on every recursive-descent path must hit the
  // parser's depth ceiling and come back as a diagnostic — under ASan the
  // unguarded parser overflowed the stack on exactly these inputs.
  std::string Parens = "function f() { x = ";
  for (int I = 0; I < 2000; ++I)
    Parens += "(";
  Parens += "1";
  for (int I = 0; I < 2000; ++I)
    Parens += ")";
  Parens += "; }";
  // Unary chains recurse through parseUnary without touching parseExpr.
  std::string Unary =
      "function f() { x = " + std::string(5000, '-') + "1; }";
  // Nested if-blocks recurse through parseStmt/parseBlock.
  std::string Stmts = "function f() { ";
  for (int I = 0; I < 2000; ++I)
    Stmts += "if (x) { ";
  Stmts += "x = 1; ";
  for (int I = 0; I < 2000; ++I)
    Stmts += "} ";
  Stmts += "}";
  // else-if chains recurse through parseStmt without an enclosing block.
  std::string ElseIf = "function f() { if (x) { x = 1; } ";
  for (int I = 0; I < 2000; ++I)
    ElseIf += "else if (x) { x = 1; } ";
  ElseIf += "}";
  for (const std::string &Deep : {Parens, Unary, Stmts, ElseIf}) {
    ParseResult P = parseProgram(Deep);
    EXPECT_FALSE(P.ok()) << "depth limit should reject pathological nesting";
    EXPECT_NE(P.Error.find("depth"), std::string::npos) << P.Error;
  }
}

} // namespace
