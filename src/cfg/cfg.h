//===-- cfg/cfg.h - Control-flow graphs -------------------------*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Control-flow graphs per Fig. 5 of the paper: a program is ⟨L, E, ℓ0⟩ — a
/// set of locations, statement-labelled directed edges, and an initial
/// location. We additionally carry a distinguished exit location (procedure
/// return point), which the paper's examples use implicitly (ℓret).
///
/// Edges carry stable unique identities (EdgeId) so that program edits can
/// address "the statement on edge #k" across CFG mutations, and so that join
/// input indices (fwd-edges-to) are deterministic.
///
/// Storage: edges live in a dense vector indexed by EdgeId (ids are
/// allocated 0, 1, 2, … and never reused), so findEdge — the single hottest
/// CFG query in the Fig. 10 profile, called per statement-cell naming and
/// per DAIG construction edge — is one bounds check plus one array load
/// instead of a red-black-tree probe. removeEdge tombstones its slot
/// (Id == InvalidEdgeId); edges() is a skipping view over live slots that
/// still iterates in ascending-EdgeId order and yields the same
/// (id, edge) structured bindings the old map did. Tombstones are bounded by
/// deletions, and the structured-edit API only ever adds edges, so the
/// vector stays effectively dense in practice.
///
/// Structural facts (adjacency, dominators, loops, RPO — see
/// cfg/cfg_analysis.h) are flat arrays derived in one linear pass and cached
/// on the graph keyed by structuralVersion(), which statement-only edits do
/// NOT bump: replaceStmt changes a label, never the shape, so every consumer
/// between two structural edits shares one derivation (the generator's
/// location sampling, edits.cpp's splice-point probe, every per-instance
/// DAIG). Per-location edge lists live there too, in EdgeId order; the
/// graph itself only stores edges by id. Arrays indexed by EdgeId span
/// numEdgeIds(), removed ids included.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_CFG_CFG_H
#define DAI_CFG_CFG_H

#include "lang/stmt.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dai {

/// A program location (ℓ ∈ Loc). Dense small integers, unique per Cfg.
using Loc = uint32_t;
inline constexpr Loc InvalidLoc = ~0u;

/// Stable identity of a control-flow edge across edits.
using EdgeId = uint32_t;
inline constexpr EdgeId InvalidEdgeId = ~0u;

/// A statement-labelled control-flow edge ℓ —[s]→ ℓ'.
struct CfgEdge {
  EdgeId Id = InvalidEdgeId;
  Loc Src = InvalidLoc;
  Loc Dst = InvalidLoc;
  Stmt Label;
};

class CfgInfo; // cfg/cfg_analysis.h

/// A mutable control-flow graph with stable location and edge identities.
///
/// Invariants maintained by the mutation API:
///   - Entry and Exit are allocated locations.
///   - Edge endpoints are allocated locations.
/// Well-formedness beyond that (reachability, reducibility) is checked by
/// CfgInfo (cfg/cfg_analysis.h), since arbitrary edit sequences are validated
/// rather than prevented.
class Cfg {
public:
  /// Read-only view over the live edges, in ascending-EdgeId order. Yields
  /// (EdgeId, const CfgEdge &) pairs so range-for destructuring matches the
  /// old map interface; size() is the live-edge count (tombstones excluded).
  class EdgeRange {
  public:
    class iterator {
    public:
      using value_type = std::pair<EdgeId, const CfgEdge &>;

      iterator(const std::vector<CfgEdge> *Vec, size_t I) : Vec(Vec), I(I) {
        skipDead();
      }
      value_type operator*() const { return {(*Vec)[I].Id, (*Vec)[I]}; }
      iterator &operator++() {
        ++I;
        skipDead();
        return *this;
      }
      bool operator==(const iterator &O) const { return I == O.I; }
      bool operator!=(const iterator &O) const { return I != O.I; }

    private:
      void skipDead() {
        while (I < Vec->size() && (*Vec)[I].Id == InvalidEdgeId)
          ++I;
      }
      const std::vector<CfgEdge> *Vec;
      size_t I;
    };

    EdgeRange(const std::vector<CfgEdge> *Vec, size_t Live)
        : Vec(Vec), Live(Live) {}
    iterator begin() const { return iterator(Vec, 0); }
    iterator end() const { return iterator(Vec, Vec->size()); }
    size_t size() const { return Live; }
    bool empty() const { return Live == 0; }

  private:
    const std::vector<CfgEdge> *Vec;
    size_t Live;
  };

  Cfg();

  Loc entry() const { return Entry; }
  Loc exit() const { return Exit; }

  /// Allocates a fresh location.
  Loc addLoc();

  /// Adds an edge Src —[Label]→ Dst and returns its stable id.
  EdgeId addEdge(Loc Src, Loc Dst, Stmt Label);

  /// Replaces the statement labelling edge \p Id. Returns false if no such
  /// edge exists. A statement-only edit: bumps version() but NOT
  /// structuralVersion(), so the cached CfgInfo survives.
  bool replaceStmt(EdgeId Id, Stmt NewLabel);

  /// Redirects the source of edge \p Id to \p NewSrc (used by structured
  /// statement insertion, which splices a fresh location into a path).
  bool redirectSrc(EdgeId Id, Loc NewSrc);

  /// Redirects the destination of edge \p Id to \p NewDst (used when
  /// splicing a hammock *before* a loop header).
  bool redirectDst(EdgeId Id, Loc NewDst);

  /// Removes edge \p Id entirely. Returns false if no such edge exists.
  bool removeEdge(EdgeId Id);

  /// O(1): one bounds check plus one dense array load (the ROADMAP's top
  /// non-closure cost was this as a map probe).
  const CfgEdge *findEdge(EdgeId Id) const {
    if (Id >= EdgesById.size() || EdgesById[Id].Id == InvalidEdgeId)
      return nullptr;
    return &EdgesById[Id];
  }

  /// All live edges, ordered by EdgeId (deterministic).
  EdgeRange edges() const { return EdgeRange(&EdgesById, LiveEdges); }

  /// Number of allocated locations (locations are 0..numLocs()-1).
  uint32_t numLocs() const { return NextLoc; }

  /// Size of the EdgeId space: every id issued so far, removed ones
  /// included, is below it.
  EdgeId numEdgeIds() const { return NextEdge; }

  /// Monotonically increasing counter bumped on every mutation; lets cached
  /// analyses detect staleness.
  uint64_t version() const { return Version; }

  /// Like version(), but bumped only by mutations that change the graph
  /// SHAPE (locations, edges, endpoints) — statement replacement keeps it.
  /// Structural facts (CfgInfo) depend only on the shape, so this is the
  /// cache key for info().
  uint64_t structuralVersion() const { return StructVersion; }

  /// Structural facts for the current shape, computed at most once per
  /// structuralVersion() and shared by every consumer (DAIG construction,
  /// splice-point probes, workload sampling). The reference is valid until
  /// the next structural mutation + info() call; use infoShared() to hold
  /// the snapshot across further edits.
  const CfgInfo &info() const;

  /// Shared-ownership form of info(): keeps this snapshot alive even after
  /// the graph mutates and recomputes (the DAIG pins its pre-edit facts
  /// this way until it explicitly refreshes).
  std::shared_ptr<const CfgInfo> infoShared() const;

  /// Renders the CFG as readable text (one edge per line).
  std::string toString() const;

private:
  Loc Entry;
  Loc Exit;
  uint32_t NextLoc = 0;
  EdgeId NextEdge = 0;
  uint64_t Version = 0;
  uint64_t StructVersion = 0;
  /// Dense by EdgeId; removed edges are tombstoned (Id == InvalidEdgeId).
  std::vector<CfgEdge> EdgesById;
  size_t LiveEdges = 0;

  /// Lazily computed structural facts for StructVersion (see info()).
  /// shared_ptr so copies of the graph share the snapshot until either side
  /// mutates, and so consumers can pin a snapshot across recomputation.
  mutable std::shared_ptr<const CfgInfo> InfoCache;
  mutable uint64_t InfoCacheVersion = ~0ull;

  CfgEdge *liveEdge(EdgeId Id) {
    if (Id >= EdgesById.size() || EdgesById[Id].Id == InvalidEdgeId)
      return nullptr;
    return &EdgesById[Id];
  }
};

} // namespace dai

#endif // DAI_CFG_CFG_H
