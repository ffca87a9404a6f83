//===-- bench/micro_domain_ops.cpp - Micro benchmarks (M1) ----------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Micro benchmarks (google-benchmark) for the primitive costs underlying
/// every experiment: abstract-domain operations (transfer/join/widen per
/// domain) and DAIG machinery (name hashing, construction, query reuse,
/// dirtying). These calibrate the Fig. 10 reproduction: the paper's effect
/// requires domain operations to dominate graph bookkeeping.
///
//===----------------------------------------------------------------------===//

#include "cfg/lowering.h"
#include "daig/daig.h"
#include "domain/interval.h"
#include "domain/octagon.h"
#include "domain/shape.h"

#include <benchmark/benchmark.h>

using namespace dai;

namespace {

//===----------------------------------------------------------------------===//
// Domain operations
//===----------------------------------------------------------------------===//

/// Builds an octagon over \p N variables with a chain of relations.
Octagon chainOctagon(int N, int64_t Offset) {
  Octagon O;
  for (int I = 0; I < N; ++I)
    O.addVar("v" + std::to_string(I));
  for (int I = 0; I + 1 < N; ++I) {
    // v_{i+1} − v_i ≤ 1 + Offset and v_i − v_{i+1} ≤ 0.
    O.addConstraint(static_cast<size_t>(I + 1), true,
                    static_cast<size_t>(I), false, 1 + Offset);
    O.addConstraint(static_cast<size_t>(I), true,
                    static_cast<size_t>(I + 1), false, 0);
  }
  O.addConstraint(0, true, static_cast<size_t>(-1), true, 10 + Offset);
  O.addConstraint(0, false, static_cast<size_t>(-1), true, 0);
  O.close();
  return O;
}

void BM_OctagonClosure(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  for (auto _ : State) {
    State.PauseTiming();
    Octagon O = chainOctagon(N, 0);
    // A fresh value owns its copy-on-write buffer outright, so close()
    // below pays no un-sharing clone inside the timed region (the
    // incremental benchmark pays its clone in addConstraint, also un-timed).
    O.Closed = false; // force a re-closure
    State.ResumeTiming();
    O.close();
    benchmark::DoNotOptimize(O);
  }
}
BENCHMARK(BM_OctagonClosure)->Arg(4)->Arg(8)->Arg(12)->Arg(16)->Arg(24);

void BM_OctagonIncrementalClosure(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  Octagon Base = chainOctagon(N, 0);
  for (auto _ : State) {
    State.PauseTiming();
    Octagon O = Base;
    O.addConstraint(0, true, 1, false, 2); // v0 − v1 ≤ 2 on a closed value
    State.ResumeTiming();
    O.closeIncremental(0, 1);
    benchmark::DoNotOptimize(O);
  }
}
BENCHMARK(BM_OctagonIncrementalClosure)->Arg(4)->Arg(8)->Arg(12)->Arg(16)->Arg(24);

void BM_OctagonTransferAssign(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  Octagon O = chainOctagon(N, 0);
  Stmt S = Stmt::mkAssign("v0", Expr::mkBinary(BinaryOp::Add,
                                               Expr::mkVar("v1"),
                                               Expr::mkInt(3)));
  for (auto _ : State)
    benchmark::DoNotOptimize(OctagonDomain::transfer(S, O));
}
BENCHMARK(BM_OctagonTransferAssign)->Arg(8)->Arg(12)->Arg(16);

void BM_OctagonJoin(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  Octagon A = chainOctagon(N, 0), B = chainOctagon(N, 5);
  for (auto _ : State)
    benchmark::DoNotOptimize(OctagonDomain::join(A, B));
}
BENCHMARK(BM_OctagonJoin)->Arg(8)->Arg(12)->Arg(16);

void BM_OctagonWiden(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  Octagon A = chainOctagon(N, 0), B = chainOctagon(N, 5);
  for (auto _ : State)
    benchmark::DoNotOptimize(OctagonDomain::widen(A, B));
}
BENCHMARK(BM_OctagonWiden)->Arg(8)->Arg(12)->Arg(16);

void BM_OctagonHash(benchmark::State &State) {
  Octagon A = chainOctagon(static_cast<int>(State.range(0)), 0);
  // A plain copy shares A's buffer, and with it the hash cached there by an
  // earlier hash. The (no-op) join kernel un-shares each copy outside the
  // timed region, so every timed hash starts from an empty cache. Copies
  // are prepared a batch at a time to amortize pausing the timer.
  constexpr int Batch = 64;
  std::vector<Octagon> Copies(Batch);
  while (State.KeepRunningBatch(Batch)) {
    State.PauseTiming();
    for (Octagon &C : Copies) {
      C = A;
      C.elementwiseMax(A);
    }
    State.ResumeTiming();
    for (const Octagon &C : Copies)
      benchmark::DoNotOptimize(OctagonDomain::hash(C));
  }
}
BENCHMARK(BM_OctagonHash)->Arg(8)->Arg(16);

/// The loop-counter step x := x + c on a closed value.
void BM_OctagonSelfAssign(benchmark::State &State) {
  Octagon O = chainOctagon(static_cast<int>(State.range(0)), 0);
  Stmt S = Stmt::mkAssign("v0", Expr::mkBinary(BinaryOp::Add,
                                               Expr::mkVar("v0"),
                                               Expr::mkInt(3)));
  for (auto _ : State)
    benchmark::DoNotOptimize(OctagonDomain::transfer(S, O));
}
BENCHMARK(BM_OctagonSelfAssign)->Arg(8)->Arg(16);

/// x := −x + c, which also swaps x's two doubled indices.
void BM_OctagonNegSelfAssign(benchmark::State &State) {
  Octagon O = chainOctagon(static_cast<int>(State.range(0)), 0);
  Stmt S = Stmt::mkAssign("v0", Expr::mkBinary(BinaryOp::Sub, Expr::mkInt(3),
                                               Expr::mkVar("v0")));
  for (auto _ : State)
    benchmark::DoNotOptimize(OctagonDomain::transfer(S, O));
}
BENCHMARK(BM_OctagonNegSelfAssign)->Arg(8)->Arg(16);

/// A one-parameter call entry f(v1 + 1): bind, project, rename.
void BM_OctagonEnterCall(benchmark::State &State) {
  Octagon O = chainOctagon(static_cast<int>(State.range(0)), 0);
  Stmt Call = Stmt::mkCall(
      "r", "f",
      {Expr::mkBinary(BinaryOp::Add, Expr::mkVar("v1"), Expr::mkInt(1))});
  std::vector<std::string> Params = {"p"};
  for (auto _ : State)
    benchmark::DoNotOptimize(OctagonDomain::enterCall(O, Call, Params));
}
BENCHMARK(BM_OctagonEnterCall)->Arg(8)->Arg(16);

void BM_IntervalTransfer(benchmark::State &State) {
  IntervalState S;
  for (int I = 0; I < 10; ++I)
    S.set("v" + std::to_string(I),
          VarAbs::numeric(Interval::range(-I, I * I)));
  Stmt Assign = Stmt::mkAssign(
      "v0", Expr::mkBinary(BinaryOp::Mul, Expr::mkVar("v1"),
                           Expr::mkVar("v2")));
  for (auto _ : State)
    benchmark::DoNotOptimize(IntervalDomain::transfer(Assign, S));
}
BENCHMARK(BM_IntervalTransfer);

void BM_ShapeMaterializingTransfer(benchmark::State &State) {
  ShapeState S = ShapeDomain::initialEntry({"p"});
  S = ShapeDomain::transfer(
      Stmt::mkAssume(Expr::mkBinary(BinaryOp::Ne, Expr::mkVar("p"),
                                    Expr::mkNull())),
      S);
  Stmt Deref = Stmt::mkAssign("x", Expr::mkField(Expr::mkVar("p"), "next"));
  for (auto _ : State)
    benchmark::DoNotOptimize(ShapeDomain::transfer(Deref, S));
}
BENCHMARK(BM_ShapeMaterializingTransfer);

//===----------------------------------------------------------------------===//
// DAIG machinery
//===----------------------------------------------------------------------===//

Function sampleFunction(int Loops) {
  std::string Src = "function main(n) {\n  var a = 0;\n  var b = 1;\n";
  for (int I = 0; I < Loops; ++I)
    Src += "  while (a < n) { a = a + " + std::to_string(I + 1) + "; }\n";
  Src += "  return a + b;\n}\n";
  LowerResult LR = frontend(Src);
  assert(LR.ok());
  return std::move(*LR.Prog.find("main"));
}

void BM_NameConstruction(benchmark::State &State) {
  // The key shapes queries and unrollings build — a pre-join cell inside a
  // loop and a loop iterate — each probed in the DAIG's index.
  LowerResult LR = frontend("function main(n) {\n  var a = 0;\n"
                            "  while (a < n) {\n    if (a < 5) { a = a + 1; }"
                            " else { a = a + 2; }\n  }\n  return a;\n}\n");
  assert(LR.ok());
  Function F = std::move(*LR.Prog.find("main"));
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  const CfgInfo &Info = G.info();
  Loc Head = InvalidLoc, Join = InvalidLoc;
  for (Loc L : Info.Rpo) {
    if (Head == InvalidLoc && Info.isLoopHead(L))
      Head = L;
    if (Join == InvalidLoc && !Info.isLoopHead(L) &&
        Info.fwdEdgesTo(L).size() >= 2)
      Join = L;
  }
  const std::vector<uint32_t> Ctx = {0};
  for (auto _ : State) {
    CellKey PreJoin = CellKey::state(Join, Ctx).preJoin(2);
    CellKey Iterate = CellKey::state(Head).iterate(1);
    benchmark::DoNotOptimize(G.hasCell(PreJoin) && G.hasCell(Iterate));
  }
}
BENCHMARK(BM_NameConstruction);

void BM_DaigConstruction(benchmark::State &State) {
  Function F = sampleFunction(static_cast<int>(State.range(0)));
  for (auto _ : State) {
    Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
    benchmark::DoNotOptimize(G.cellCount());
  }
}
BENCHMARK(BM_DaigConstruction)->Arg(1)->Arg(4)->Arg(8);

void BM_DaigQueryColdVsWarm(benchmark::State &State) {
  Function F = sampleFunction(3);
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  (void)G.queryLocation(F.Body.exit()); // warm all cells
  for (auto _ : State)
    benchmark::DoNotOptimize(G.queryLocation(F.Body.exit()));
}
BENCHMARK(BM_DaigQueryColdVsWarm);

void BM_DaigStatementEditAndRequery(benchmark::State &State) {
  Function F = sampleFunction(3);
  Daig<IntervalDomain> G(&F.Body, IntervalDomain::initialEntry(F.Params));
  EdgeId InitEdge = InvalidEdgeId;
  for (const auto &[Id, E] : F.Body.edges())
    if (E.Label.toString() == "a = 0")
      InitEdge = Id;
  int64_t K = 0;
  for (auto _ : State) {
    G.applyStatementEdit(InitEdge, Stmt::mkAssign("a", Expr::mkInt(K++ % 7)));
    benchmark::DoNotOptimize(G.queryLocation(F.Body.exit()));
  }
}
BENCHMARK(BM_DaigStatementEditAndRequery);

} // namespace

BENCHMARK_MAIN();
