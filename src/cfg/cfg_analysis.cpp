//===-- cfg/cfg_analysis.cpp - Dominators, loops, reducibility ------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cfg/cfg_analysis.h"

#include <algorithm>

using namespace dai;

bool CfgInfo::dominates(Loc A, Loc B) const {
  if (!reachable(A) || !reachable(B))
    return false;
  // Walk B's dominator-tree path upward. Every step lowers the RPO
  // position, so the walk meets A or passes below it.
  uint32_t PA = RpoIndex[A], PB = RpoIndex[B];
  while (PB > PA)
    PB = IdomIndex[PB];
  return PB == PA;
}

unsigned CfgInfo::fwdIndexOf(const Cfg &G, EdgeId Id) const {
  const CfgEdge *E = G.findEdge(Id);
  if (!E || isBackEdge(Id))
    return 0;
  std::span<const EdgeId> Ids = fwdEdgesTo(E->Dst);
  auto Pos = std::find(Ids.begin(), Ids.end(), Id);
  return Pos == Ids.end() ? 0 : static_cast<unsigned>(Pos - Ids.begin()) + 1;
}

namespace {

/// Fills \p Out with \p Keys lists from the (key, item) pairs \p Emit
/// yields, keeping each key's items in emission order. \p Emit runs twice,
/// once to count and once to place, and must yield the same pairs both
/// times.
template <typename T, typename EmitFn>
void buildLists(CfgInfo::Lists<T> &Out, uint32_t Keys, EmitFn Emit) {
  std::vector<uint32_t> &Start = Out.Start;
  Start.assign(Keys + 1, 0);
  Emit([&](uint32_t K, T) { ++Start[K + 1]; });
  for (uint32_t K = 0; K < Keys; ++K)
    Start[K + 1] += Start[K];
  Out.Items.resize(Start[Keys]);
  // Start[K] serves as key K's cursor; afterwards each cursor sits where
  // the next key's list begins, so shifting them by one restores Start.
  Emit([&](uint32_t K, T V) { Out.Items[Start[K]++] = V; });
  std::copy_backward(Start.begin(), Start.end() - 1, Start.end());
  Start[0] = 0;
}

} // namespace

CfgInfo dai::analyzeCfg(const Cfg &G) {
  CfgInfo Info;
  const uint32_t N = G.numLocs();
  const EdgeId M = G.numEdgeIds();

  // 1. Adjacency: endpoints per EdgeId, out- and in-edge lists per location.
  std::vector<Loc> EdgeDst(M, InvalidLoc);
  Info.EdgeSrc.assign(M, InvalidLoc);
  for (const auto &[Id, E] : G.edges()) {
    Info.EdgeSrc[Id] = E.Src;
    EdgeDst[Id] = E.Dst;
  }
  buildLists(Info.Succ, N, [&](auto Yield) {
    for (EdgeId Id = 0; Id < M; ++Id)
      if (Info.EdgeSrc[Id] != InvalidLoc)
        Yield(Info.EdgeSrc[Id], Id);
  });
  buildLists(Info.Pred, N, [&](auto Yield) {
    for (EdgeId Id = 0; Id < M; ++Id)
      if (EdgeDst[Id] != InvalidLoc)
        Yield(EdgeDst[Id], Id);
  });

  // 2. Reverse postorder: iterative DFS from the entry, successors in
  //    EdgeId order. RpoIndex marks discovery before it numbers positions.
  Info.RpoIndex.assign(N, CfgInfo::NoIndex);
  {
    std::vector<std::pair<Loc, uint32_t>> Stack; // (location, next Succ item)
    Stack.reserve(N);
    Info.Rpo.reserve(N);
    Stack.emplace_back(G.entry(), Info.Succ.Start[G.entry()]);
    Info.RpoIndex[G.entry()] = 0;
    while (!Stack.empty()) {
      auto &[L, Next] = Stack.back();
      if (Next < Info.Succ.Start[L + 1]) {
        Loc To = EdgeDst[Info.Succ.Items[Next++]];
        if (Info.RpoIndex[To] == CfgInfo::NoIndex) {
          Info.RpoIndex[To] = 0;
          Stack.emplace_back(To, Info.Succ.Start[To]);
        }
        continue;
      }
      Info.Rpo.push_back(L); // postorder for now
      Stack.pop_back();
    }
    std::reverse(Info.Rpo.begin(), Info.Rpo.end());
    for (uint32_t I = 0; I < Info.Rpo.size(); ++I)
      Info.RpoIndex[Info.Rpo[I]] = I;
  }

  // 3. Dominators: Cooper–Harvey–Kennedy, iterated over RPO positions.
  const uint32_t R = static_cast<uint32_t>(Info.Rpo.size());
  std::vector<uint32_t> &Idom = Info.IdomIndex;
  Idom.assign(R, CfgInfo::NoIndex);
  Idom[0] = 0;
  auto intersect = [&](uint32_t A, uint32_t B) {
    while (A != B) {
      while (A > B)
        A = Idom[A];
      while (B > A)
        B = Idom[B];
    }
    return A;
  };
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (uint32_t I = 1; I < R; ++I) {
      uint32_t New = CfgInfo::NoIndex;
      for (EdgeId Id : Info.Pred[Info.Rpo[I]]) {
        uint32_t P = Info.RpoIndex[Info.EdgeSrc[Id]];
        if (P == CfgInfo::NoIndex || Idom[P] == CfgInfo::NoIndex)
          continue;
        New = New == CfgInfo::NoIndex ? P : intersect(New, P);
      }
      if (New != CfgInfo::NoIndex && New != Idom[I]) {
        Idom[I] = New;
        Changed = true;
      }
    }
  }

  // 4. Back edges and reducibility. Only a retreating edge (Dst no later
  //    than Src in RPO) can be a back edge. It is one iff Dst dominates Src;
  //    any other retreating edge closes a cycle with two entries. A second
  //    back edge into one head is reported first: the paper (footnote 7)
  //    assumes one per head, which structured lowering guarantees.
  Info.BackEdge.assign(M, false);
  Info.HeadBackEdge.assign(N, InvalidEdgeId);
  bool Irreducible = false;
  for (EdgeId Id = 0; Id < M; ++Id) {
    Loc Src = Info.EdgeSrc[Id], Dst = EdgeDst[Id];
    if (!Info.reachable(Src) || Info.RpoIndex[Dst] > Info.RpoIndex[Src])
      continue;
    if (!Info.dominates(Dst, Src)) {
      Irreducible = true;
      continue;
    }
    if (Info.HeadBackEdge[Dst] != InvalidEdgeId) {
      Info.Error = "multiple back edges into location l" +
                   std::to_string(Dst) +
                   " (unsupported; merge them with a structured loop)";
      return Info;
    }
    Info.HeadBackEdge[Dst] = Id;
    Info.BackEdge[Id] = true;
  }
  if (Irreducible) {
    Info.Error = "irreducible control flow: a cycle remains after removing "
                 "back edges";
    return Info;
  }

  // 5. Natural loops: the body of back edge Src→Head is {Head} ∪ every
  //    reachable location that reaches Src without passing through Head.
  //    Seen[L] == Head marks L as already in Head's body.
  {
    std::vector<Loc> Seen(N, InvalidLoc), Work;
    std::vector<Loc> &Items = Info.Body.Items;
    Info.Body.Start.assign(N + 1, 0);
    for (Loc H = 0; H < N; ++H) {
      if (Info.HeadBackEdge[H] != InvalidEdgeId) {
        Info.Heads.push_back(H);
        size_t Begin = Items.size();
        auto Add = [&](Loc L) {
          Seen[L] = H;
          Items.push_back(L);
          Work.push_back(L);
        };
        Seen[H] = H;
        Items.push_back(H);
        Loc Latch = Info.EdgeSrc[Info.HeadBackEdge[H]];
        if (Latch != H)
          Add(Latch);
        while (!Work.empty()) {
          Loc L = Work.back();
          Work.pop_back();
          for (EdgeId Id : Info.Pred[L]) {
            Loc P = Info.EdgeSrc[Id];
            if (Info.reachable(P) && Seen[P] != H)
              Add(P);
          }
        }
        std::sort(Items.begin() + Begin, Items.end());
      }
      Info.Body.Start[H + 1] = static_cast<uint32_t>(Items.size());
    }
  }

  // 6. Loop nests, outermost first. Natural loops of a reducible graph are
  //    nested or disjoint, so placing heads by decreasing body size (then
  //    id) lists every location's enclosing heads outermost first.
  {
    std::vector<Loc> Outer = Info.Heads;
    auto Size = [&](Loc H) { return Info.loopBody(H).size(); };
    std::sort(Outer.begin(), Outer.end(), [&](Loc A, Loc B) {
      return Size(A) != Size(B) ? Size(A) > Size(B) : A < B;
    });
    buildLists(Info.Nest, N, [&](auto Yield) {
      for (Loc H : Outer)
        for (Loc L : Info.loopBody(H))
          Yield(L, H);
    });
  }

  // 7. Forward in-edges: reachable source, not a back edge, EdgeId order.
  buildLists(Info.Fwd, N, [&](auto Yield) {
    for (EdgeId Id = 0; Id < M; ++Id)
      if (Info.reachable(Info.EdgeSrc[Id]) && !Info.BackEdge[Id])
        Yield(EdgeDst[Id], Id);
  });

  return Info;
}

//===----------------------------------------------------------------------===//
// Cached structural facts (Cfg::info)
//===----------------------------------------------------------------------===//

// Defined here rather than in cfg.cpp because they need CfgInfo complete.
// The cache key is structuralVersion(): statement-only edits (replaceStmt)
// keep it, so between two structural edits every consumer — DAIG
// construction across all engine instances, edits.cpp's splice-point probe,
// the workload generator's reachability sampling — shares ONE derivation of
// dominators, loops, and RPO instead of each re-running analyzeCfg.

std::shared_ptr<const CfgInfo> Cfg::infoShared() const {
  if (!InfoCache || InfoCacheVersion != StructVersion) {
    InfoCache = std::make_shared<const CfgInfo>(analyzeCfg(*this));
    InfoCacheVersion = StructVersion;
  }
  return InfoCache;
}

const CfgInfo &Cfg::info() const { return *infoShared(); }
