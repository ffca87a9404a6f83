//===-- cfg/cfg_analysis.h - Dominators, loops, reducibility ----*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural analysis of a CFG: dominators, back edges, natural loops, loop
/// nesting, forward-edge indexing, and join points — all the ingredients of
/// DAIG construction (Definition A.2 of the paper) and of the paper's
/// well-formedness requirement that programs be reducible flow graphs.
///
/// Definitions follow Appendix A: edges partition into forward edges E_f and
/// back edges E_b (Dst dominates Src); each back edge determines a natural
/// loop; join points are locations with *forward* in-degree ≥ 2 (a loop head
/// with a single non-loop predecessor is not a join).
///
/// Storage: every fact is a dense array indexed by location, by EdgeId or by
/// reverse-postorder position, or a list family in CSR form (one flat item
/// array plus per-location start offsets). A snapshot is the same fixed set
/// of arrays whatever the graph's size, rather than a heap node per fact,
/// and reading a fact is an array load, never a tree probe. Per-EdgeId
/// arrays span the graph's whole id space (Cfg::numEdgeIds(), removed ids
/// included), so every id the graph ever issued indexes them. Lists are
/// views into the snapshot and live as long as it does.
///
/// analyzeCfg derives all of it in one linear pass: CSR adjacency, an
/// iterative DFS to reverse postorder, Cooper–Harvey–Kennedy dominators over
/// that order, and a dominance check on the retreating edges (RPO position
/// of Dst ≤ Src) alone. A retreating edge whose Dst dominates its Src is a
/// back edge; any other makes the graph irreducible (Hecht–Ullman: a flow
/// graph is reducible iff every retreating edge of a DFS is a back edge).
/// Natural-loop bodies, loop nests and forward in-edges follow from those.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_CFG_CFG_ANALYSIS_H
#define DAI_CFG_CFG_ANALYSIS_H

#include "cfg/cfg.h"

#include <span>
#include <string>
#include <vector>

namespace dai {

/// Immutable structural facts about one CFG snapshot.
///
/// Produced by analyzeCfg; check valid() before use. An invalid CfgInfo
/// carries a diagnostic in Error (irreducible control flow, or multiple back
/// edges into one header), matching the paper's well-formedness
/// preconditions rather than silently misanalyzing; only reachability,
/// Rpo, dominance and the adjacency lists are meaningful then.
///
/// Every accessor takes any location or EdgeId: one the snapshot does not
/// know reads as unreachable, edge-free and outside every loop.
class CfgInfo {
public:
  /// A family of lists keyed by dense ids: list K is
  /// Items[Start[K], Start[K+1]). Keys past the end have empty lists.
  template <typename T> struct Lists {
    std::vector<uint32_t> Start;
    std::vector<T> Items;

    std::span<const T> operator[](uint32_t K) const {
      if (size_t(K) + 1 >= Start.size())
        return {};
      return {Items.data() + Start[K], Items.data() + Start[K + 1]};
    }
  };

  std::string Error;    ///< Empty iff the CFG is well-formed.
  /// Reachable locations in reverse postorder of a DFS from the entry that
  /// visits successors in EdgeId order.
  std::vector<Loc> Rpo;

  bool valid() const { return Error.empty(); }

  /// Number of locations the snapshot covers (those of its graph).
  uint32_t numLocs() const { return static_cast<uint32_t>(RpoIndex.size()); }
  bool reachable(Loc L) const {
    return L < RpoIndex.size() && RpoIndex[L] != NoIndex;
  }
  /// True when every path from the entry to \p B passes through \p A
  /// (both reachable; a location dominates itself).
  bool dominates(Loc A, Loc B) const;

  /// Live out-edges / in-edges of \p L, in EdgeId order.
  std::span<const EdgeId> succEdges(Loc L) const { return Succ[L]; }
  std::span<const EdgeId> predEdges(Loc L) const { return Pred[L]; }
  /// Source of edge \p Id in this snapshot (InvalidLoc for removed ids).
  /// Edits re-source edges in place, so a DAIG reconciling against a newer
  /// snapshot reads its pre-edit sources here.
  Loc edgeSrc(EdgeId Id) const {
    return Id < EdgeSrc.size() ? EdgeSrc[Id] : InvalidLoc;
  }

  /// Forward in-edges of \p L (reachable source, not a back edge), in
  /// EdgeId order; the 1-based position in this list is the paper's
  /// fwd-edges-to index.
  std::span<const EdgeId> fwdEdgesTo(Loc L) const { return Fwd[L]; }
  /// 1-based fwd-edges-to index of edge \p Id into its destination in
  /// \p G, or 0 if \p Id is a back edge or not a forward in-edge there.
  unsigned fwdIndexOf(const Cfg &G, EdgeId Id) const;
  /// L⊔: forward in-degree ≥ 2.
  bool isJoin(Loc L) const { return fwdEdgesTo(L).size() >= 2; }

  /// E_b membership: \p Id's Dst dominates its Src.
  bool isBackEdge(EdgeId Id) const {
    return Id < BackEdge.size() && BackEdge[Id];
  }
  /// The unique back edge into loop head \p H, or InvalidEdgeId.
  EdgeId backEdgeOf(Loc H) const {
    return H < HeadBackEdge.size() ? HeadBackEdge[H] : InvalidEdgeId;
  }
  bool isLoopHead(Loc L) const { return backEdgeOf(L) != InvalidEdgeId; }
  /// Every loop head, ascending.
  std::span<const Loc> loopHeads() const { return Heads; }
  /// Natural loop of head \p H, the head included, ascending (empty when
  /// \p H heads no loop).
  std::span<const Loc> loopBody(Loc H) const { return Body[H]; }
  /// Heads of the loops enclosing \p L, outermost first (by body size, then
  /// id). A loop head's own loop is included (last element).
  std::span<const Loc> loopNest(Loc L) const { return Nest[L]; }
  /// True when \p L lies in the natural loop headed at \p H.
  bool inLoop(Loc H, Loc L) const {
    for (Loc X : loopNest(L))
      if (X == H)
        return true;
    return false;
  }
  bool inAnyLoop(Loc L) const { return !loopNest(L).empty(); }
  /// Nesting depth (number of enclosing loops, counting a head's own loop).
  size_t loopDepth(Loc L) const { return loopNest(L).size(); }

private:
  friend CfgInfo analyzeCfg(const Cfg &G);

  static constexpr uint32_t NoIndex = ~0u;

  std::vector<uint32_t> RpoIndex; ///< Loc → position in Rpo, or NoIndex.
  /// Rpo position → Rpo position of the immediate dominator (the entry,
  /// position 0, maps to itself). Dominators precede what they dominate.
  std::vector<uint32_t> IdomIndex;
  std::vector<Loc> EdgeSrc;        ///< EdgeId → Src (InvalidLoc if removed).
  std::vector<bool> BackEdge;      ///< EdgeId → member of E_b.
  std::vector<EdgeId> HeadBackEdge; ///< Loc → its back edge, or InvalidEdgeId.
  std::vector<Loc> Heads;          ///< Loop heads, ascending.
  Lists<EdgeId> Succ, Pred, Fwd;   ///< Keyed by location.
  Lists<Loc> Body, Nest;           ///< Keyed by location.
};

/// Computes structural facts for \p G. Never fails hard: inspect valid().
CfgInfo analyzeCfg(const Cfg &G);

} // namespace dai

#endif // DAI_CFG_CFG_ANALYSIS_H
