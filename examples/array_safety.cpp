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
/// Build & run:  ./build/examples/array_safety
///
//===----------------------------------------------------------------------===//

#include "cfg/lowering.h"
#include "domain/interval.h"
#include "interproc/engine.h"

#include <cstdio>

using namespace dai;

namespace {

/// Checks every array access of every analyzed instance.
void verify(InterprocEngine<IntervalDomain> &Engine, const char *Label) {
  Engine.analyzeAllFromMain();
  unsigned Total = 0, Verified = 0;
  Engine.forEachInstance([&](const auto &Key, Daig<IntervalDomain> &G) {
    const Cfg *C = Engine.cfgOf(Key.Fn);
    for (const auto &[Id, E] : C->edges()) {
      if (!G.info().reachable(E.Src))
        continue;
      IntervalState Pre = G.queryLocation(E.Src);
      ObligationSummary Sum = checkArrayObligations(Pre, E.Label);
      Total += Sum.Total;
      Verified += Sum.Verified;
      if (Sum.Verified < Sum.Total)
        std::printf("  UNPROVEN: %s in %s, pre-state %s\n",
                    E.Label.toString().c_str(), Key.toString().c_str(),
                    IntervalDomain::toString(Pre).c_str());
    }
  });
  std::printf("%s: %u/%u accesses verified\n", Label, Verified, Total);
}

} // namespace

int main() {
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
      return r;
    }
  )";

  std::printf("== context-insensitive (k=0) ==\n");
  {
    LowerResult LR = frontend(Source);
    InterprocEngine<IntervalDomain> Engine(std::move(LR.Prog), "main", 0);
    verify(Engine, "k=0");
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
    verify(Engine, "k=2 before edit");

    // The developer changes the prefix length to an out-of-bounds 7 — the
    // incremental re-verification must catch it.
    EdgeId CallEdge = InvalidEdgeId;
    for (const auto &[Id, E] : Engine.cfgOf("main")->edges())
      if (E.Label.Kind == StmtKind::Call && E.Label.Callee == "sumPrefix")
        CallEdge = Id;
    Engine.applyStatementEdit(
        "main", CallEdge,
        Stmt::mkCall("r", "sumPrefix",
                     {Expr::mkVar("data"), Expr::mkInt(7)}));
    std::printf("\nedit: sumPrefix(data, 6) -> sumPrefix(data, 7)\n");
    verify(Engine, "k=2 after bad edit");

    Engine.applyStatementEdit(
        "main", CallEdge,
        Stmt::mkCall("r", "sumPrefix",
                     {Expr::mkVar("data"), Expr::mkInt(5)}));
    std::printf("\nedit: sumPrefix(data, 7) -> sumPrefix(data, 5)\n");
    verify(Engine, "k=2 after fix");
  }
  return 0;
}
