//===-- examples/array_safety.cpp - Interprocedural bounds checking -------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Section 7.2 client as an application: context-sensitive
/// interprocedural interval analysis verifying array-bounds safety, showing
/// how the verdict depends on the context policy (k-call-strings) and how an
/// edit is re-verified incrementally.
///
/// Build & run:  ./build/example_array_safety
///
//===----------------------------------------------------------------------===//

#include "analysis/checker.h"
#include "cfg/lowering.h"
#include "domain/interval.h"
#include "interproc/engine.h"

#include <cstdio>

using namespace dai;

namespace {

/// Accesses checked and accesses verified.
struct Tally {
  unsigned Verified = 0, Total = 0;
  bool all() const { return Verified == Total; }
};

/// Checks every array access of every analyzed instance: an access is
/// verified when the checker answers SAFE (or UNREACHABLE) in its pre-state.
Tally verify(InterprocEngine<IntervalDomain> &Engine, const char *Label) {
  Engine.analyzeAllFromMain();
  unsigned Total = 0, Verified = 0;
  Engine.forEachInstance([&](const auto &Key, Daig<IntervalDomain> &G) {
    for (const Obligation &Ob : collectObligations(
             *Engine.cfgOf(Key.Fn), checkMask(CheckKind::ArrayBounds))) {
      if (!G.info().reachable(Ob.At))
        continue;
      IntervalState Pre = G.queryLocation(Ob.At);
      Verdict V = evaluateObligation<IntervalDomain>(Ob, Pre,
                                                     G.locationDegraded(Ob.At));
      ++Total;
      if (V == Verdict::Safe || V == Verdict::Unreachable)
        ++Verified;
      else
        std::printf("  UNPROVEN: %s in %s, pre-state %s\n", Ob.Text.c_str(),
                    Key.toString().c_str(),
                    IntervalDomain::toString(Pre).c_str());
    }
  });
  std::printf("%s: %u/%u accesses verified\n", Label, Verified, Total);
  return {Verified, Total};
}

} // namespace

int main() {
  // get's index is in bounds at each call of sumPrefix, on a 6-element and
  // on a 2-element array, but not for both arrays at once: only contexts
  // two calls deep (main → sumPrefix → get) keep the two apart.
  const char *Source = R"(
    function get(a, i) {
      return a[i];
    }
    function sumPrefix(a, n) {
      var i = 0;
      var s = 0;
      while (i < n) {
        var v = get(a, i);
        s = s + v;
        i = i + 1;
      }
      return s;
    }
    function main() {
      var data = [3, 1, 4, 1, 5, 9];
      var r = sumPrefix(data, 6);
      var q = sumPrefix([2, 7], 2);
      return r + q;
    }
  )";

  std::printf("== context-insensitive (k=0) ==\n");
  Tally K0;
  {
    LowerResult LR = frontend(Source);
    InterprocEngine<IntervalDomain> Engine(std::move(LR.Prog), "main", 0);
    K0 = verify(Engine, "k=0");
  }

  std::printf("\n== 1-call-site sensitive (k=1) ==\n");
  {
    LowerResult LR = frontend(Source);
    InterprocEngine<IntervalDomain> Engine(std::move(LR.Prog), "main", 1);
    verify(Engine, "k=1");
  }

  std::printf("\n== 2-call-site sensitive (k=2), then an incremental edit "
              "==\n");
  {
    LowerResult LR = frontend(Source);
    InterprocEngine<IntervalDomain> Engine(std::move(LR.Prog), "main", 2);
    Tally Before = verify(Engine, "k=2 before edit");

    // The developer changes the first prefix length to an out-of-bounds 7 —
    // the incremental re-verification must catch it.
    EdgeId CallEdge = InvalidEdgeId;
    for (const auto &[Id, E] : Engine.cfgOf("main")->edges())
      if (E.Label.Kind == StmtKind::Call && E.Label.Callee == "sumPrefix" &&
          E.Label.Args[0]->Kind == ExprKind::Var &&
          E.Label.Args[0]->Name == "data")
        CallEdge = Id;
    Engine.applyStatementEdit(
        "main", CallEdge,
        Stmt::mkCall("r", "sumPrefix",
                     {Expr::mkVar("data"), Expr::mkInt(7)}));
    std::printf("\nedit: sumPrefix(data, 6) -> sumPrefix(data, 7)\n");
    Tally AfterBadEdit = verify(Engine, "k=2 after bad edit");

    Engine.applyStatementEdit(
        "main", CallEdge,
        Stmt::mkCall("r", "sumPrefix",
                     {Expr::mkVar("data"), Expr::mkInt(5)}));
    std::printf("\nedit: sumPrefix(data, 7) -> sumPrefix(data, 5)\n");
    Tally AfterFix = verify(Engine, "k=2 after fix");

    if (Before.Verified <= K0.Verified) {
      std::fprintf(stderr, "expected k=2 to verify more accesses than k=0\n");
      return 1;
    }
    if (!Before.all() || AfterBadEdit.all() || !AfterFix.all()) {
      std::fprintf(stderr, "expected every access verified before the edit "
                           "and after the fix, and one unproven between\n");
      return 1;
    }
  }
  return 0;
}
