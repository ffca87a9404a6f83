//===-- domain/octagon.h - Octagon abstract domain --------------*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The octagon abstract domain (Miné 2006): relational invariants of the
/// form ±x ± y ≤ c, represented as a difference-bound matrix (DBM) over the
/// doubled variable set {+v, −v} with strong closure as the canonical form.
/// This is the domain the paper uses for its scalability study (Section 7.3,
/// Fig. 10), there provided by APRON; here implemented from scratch (see
/// docs/architecture.md, "Substitutions"). Its deliberately expensive O(n³)
/// closure makes domain operations dominate analysis latency, as in the
/// paper.
///
/// Representation notes (coherent half-matrix + interned symbols):
///  - Logical DBM entry (i, j) bounds V_j − V_i ≤ M[i][j], where V_{2k} = +v_k
///    and V_{2k+1} = −v_k; kPosInf encodes +∞. Writing ī for i^1 (the sign
///    flip of a doubled index), every octagon DBM is *coherent*:
///    m[i][j] = m[j̄][ī] — the same constraint read through both sign
///    orientations. A dense (2n)² matrix therefore stores every constraint
///    twice.
///  - Storage keeps exactly one representative per coherence orbit: the
///    entries with j ≤ (i|1) (APRON's triangular layout), 2n²+2n cells for n
///    variables instead of 4n². Row i holds columns 0..(i|1), so
///      matPos(i, j)  = j + (i+1)²/2            (valid when j ≤ (i|1))
///      matPos2(i, j) = j > i ? matPos(j̄, ī) : matPos(i, j)
///    canonicalizes any logical index pair onto its stored representative.
///    The only j > i stored case is the self-coherent cell (i, i^1) for even
///    i, which matPos2 maps onto itself. Coherence is structural: a write
///    through set()/at() can never desynchronize the two orientations,
///    because they are the same cell.
///  - All closure kernels sweep stored cells only and run Miné's *pair*
///    pivot step (both doubled indices 2k, 2k+1 of a variable per step, with
///    the four path candidates i→k→j, i→k̄→j, i→k→k̄→j, i→k̄→k→j): on a
///    coherent half-matrix a single-index Floyd–Warshall sweep would apply
///    each pivot to only one orientation of each stored cell, so the pair
///    step is what makes the triangular sweep equal the dense closure
///    entrywise.
///  - Dimensions are interned SymbolIds (domain/symbol.h), kept sorted by
///    id: varIndex is an integer binary search, variable-set comparisons are
///    integer compares, and the copy-on-write variable list is a vector of
///    trivially-copyable ids (copying an octagon never touches a string).
///    String-based entry points intern (mutators) or probe without
///    interning (readers) at the boundary.
///  - The variable set is dynamic: join/widen/leq unify to the common
///    variable set (absent variables are unconstrained).
///  - One matrix per variable-set change. Every change of the variable set
///    (adding, dropping, renaming dimensions) is one `resizeFor`: it maps
///    each new doubled index to its old one once, then gathers every new
///    row straight from the old row. Only a renaming that reorders
///    dimensions can place a cell above the old row's stored range; those
///    cells are read through the coherence involution. `addVars` adds
///    several dimensions at once, and `restrictAndRename` projects and
///    renames at once (enterCall binds actuals to formals that way).
///  - `x := ±x + c` runs IN PLACE (`assignShifted`): the assignment is an
///    invertible change of coordinates, so on a closed value it only swaps
///    x's two doubled indices (for −x) and shifts x's rows and columns by
///    ±c. The result is closed as it stands (unless a bound saturates); no
///    dimension is added and no closure runs.
///  - A normalized value is marked all-constrained (see `normalize`):
///    every dimension carries a constraint, so its normalized hash is the
///    plain linear `hash()`. The mark lives in the shared buffer with the
///    other derived caches and is cleared with them.
///
/// Closure discipline (who closes, who may observe unclosed values):
///  - Strong closure (pairwise path closure + unary strengthening +
///    emptiness check) is the canonical form; `Closed` tracks whether the
///    matrix is in it. All OctagonDomain operations RETURN closed values,
///    with one deliberate exception: `widen` results must stay unclosed to
///    guarantee convergence (the classic octagon widening caveat), so the
///    only unclosed values flowing through an analysis are widening iterates.
///  - `addConstraint` clears `Closed` when it lowers a cell (it keeps the
///    flag when the constraint was already implied by the stored bound) and
///    performs no propagation itself.
///    A caller that held a *closed* value re-establishes closure in O(n²)
///    with `closeIncremental(x, y)` — sound because every DBM edge the
///    constraint tightened is incident to the doubled indices of x (and y),
///    so running the pair pivot step for just those variables restores exact
///    shortest paths (Miné 2006, §4.3). Full O(n³) `close()` is reserved
///    for values of unknown provenance: widening iterates entering
///    transfer/join/leq, and batches of constraints over many variables.
///  - `set()` is the raw escape hatch and must stay honest about the flag:
///    any write that changes an entry clears `Closed` (a no-op write keeps
///    it). Both directions break the canonical form — raising an entry
///    leaves it looser than the shortest path the rest of the matrix
///    implies, and tightening one leaves the rest of the matrix
///    unpropagated, which can even hide ⊥ — so `Closed` survives only
///    writes that change nothing.
///  - Structural edits preserve closure: `addVars` adds unconstrained
///    (hence neutral) dimensions, `restrictAndRename`/`forgetAndRemove`
///    close first and then drop rows/columns of a closed matrix, and
///    `assignShifted` is a change of coordinates. `projectRawTo` is the
///    widening-only escape hatch that drops dimensions WITHOUT closing
///    (closing the previous iterate would defeat convergence).
///  - Readers that need tight entries (`boundsOf`, `entailsEntrywise` on
///    the left argument, `hashNormalized`, `toString`) require a closed
///    receiver; `isClosed()` is the cheap query, and `close()` on an
///    already-closed value is a counted no-op (see ClosureCounters in
///    support/statistics.h).
///  - An unclosed value caches its closed form on first demand
///    (`closedView`): a widening iterate is typically consumed by several
///    readers (convergence check, hash, every successor transfer), and the
///    cache — shared across copies, invalidated by any mutation — collapses
///    those repeated O(n³) closures into one. Single-threaded by design.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_DOMAIN_OCTAGON_H
#define DAI_DOMAIN_OCTAGON_H

#include "domain/abstract_domain.h"
#include "domain/interval.h"
#include "support/statistics.h"
#include "support/symbol.h"

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace dai {

/// An octagon abstract value: ⊥, or a coherent half-matrix DBM over a
/// variable list sorted by SymbolId.
///
/// \invariant COHERENCE INVOLUTION: logically m[i][j] = m[j̄][ī] (writing
///   ī for i^1, the sign flip of a doubled index) — the same ±x±y
///   constraint read through both sign orientations. Storage keeps exactly
///   one representative per coherence orbit (the cells with j ≤ i|1), so
///   coherence is STRUCTURAL: no write through set()/at() can ever
///   desynchronize the two orientations, because they are one stored cell.
///   matPos2 is the canonicalizing index map.
/// \invariant CLOSURE FLAG HONESTY: `Closed` is true only when the matrix
///   is strongly closed (pairwise path closure + unary strengthening +
///   emptiness check). Every value-changing write clears it; see the
///   closure-discipline notes above for who may re-establish it and how.
/// \invariant COPY-ON-WRITE: the matrix buffer (with its derived caches —
///   cached closure, normalized hash, all-constrained mark) is shared
///   across copies until a mutation un-shares it; the first sharer to
///   close, normalize or hash fills the cache for every other sharer.
class Octagon {
public:
  static constexpr int64_t kPosInf = INT64_MAX;

  /// Constructs ⊤ over the empty variable set.
  Octagon() = default;

  static Octagon top() { return Octagon(); }
  static Octagon bottomValue() {
    Octagon O;
    O.Bottom = true;
    return O;
  }

  bool isBottom() const { return Bottom; }

  /// The tracked dimensions, sorted ascending by SymbolId.
  const std::vector<SymbolId> &vars() const { return varList(); }

  /// Number of tracked variables.
  size_t numVars() const { return varList().size(); }

  /// Index of \p Sym in vars(), or npos.
  size_t varIndex(SymbolId Sym) const;
  /// String convenience: probes the intern table WITHOUT interning (a name
  /// never interned is certainly absent from every octagon).
  size_t varIndex(const std::string &Var) const;

  /// Adds an unconstrained dimension for every symbol of \p Syms that is
  /// absent, in one resize.
  void addVars(std::span<const SymbolId> Syms);
  void addVar(SymbolId Sym) { addVars({&Sym, 1}); }
  void addVar(const std::string &Var) { addVar(internSymbol(Var)); }

  /// Removes every constraint involving \p Sym and drops its dimension.
  void forgetAndRemove(SymbolId Sym);
  void forgetAndRemove(const std::string &Var);

  /// Removes every constraint involving dimension \p Idx IN PLACE (the
  /// dimension stays, unconstrained) — the cheap form of forget-then-re-add
  /// used by assignments. Closes first for precision; clearing the rows and
  /// columns of a closed matrix preserves closure, so no re-closure is
  /// needed afterwards.
  void forgetInPlace(size_t Idx);

  /// Projects onto \p Keep (every other dimension is dropped), closing
  /// first for precision. No-op when nothing would be dropped.
  void restrictTo(const std::vector<SymbolId> &Keep) {
    restrictAndRename(Keep, Keep);
  }

  /// Projects onto the present dimensions among \p From and renames each
  /// From[i] to To[i], in one resize. Closes first when a dimension is
  /// dropped, as restrictTo does. The targets of present sources must be
  /// distinct. No-op when nothing is dropped or renamed.
  void restrictAndRename(const std::vector<SymbolId> &From,
                         const std::vector<SymbolId> &To);

  /// Projects onto \p Keep WITHOUT closing first (sound only where
  /// imprecision is acceptable — widening, which must not close its left
  /// argument). Preserves the Closed flag as-is.
  void projectRawTo(const std::vector<SymbolId> &Keep);

  /// Half-matrix index algebra. matPos addresses a stored cell and requires
  /// J ≤ (I|1); matPos2 canonicalizes an arbitrary logical pair onto its
  /// stored representative via the coherence involution (i,j) ↦ (j̄,ī).
  static constexpr size_t matPos(size_t I, size_t J) {
    return J + ((I + 1) * (I + 1)) / 2;
  }
  static constexpr size_t matPos2(size_t I, size_t J) {
    return J > I ? matPos(J ^ 1, I ^ 1) : matPos(I, J);
  }
  /// Stored cells for a doubled dimension: Dim·(Dim+2)/2 = 2n²+2n.
  static constexpr size_t matSize(size_t Dim) { return Dim * (Dim + 2) / 2; }

  /// Logical matrix read; I, J < 2*numVars(). Coherent by construction:
  /// at(I, J) == at(J^1, I^1) address the same stored cell.
  int64_t at(size_t I, size_t J) const { return mat()[matPos2(I, J)]; }

  /// Logical matrix write, mirrored through coherence (one stored cell
  /// backs both orientations). Clears `Closed` iff the entry changes; see
  /// the closure-discipline notes above.
  void set(size_t I, size_t J, int64_t V);

  /// Tightens with constraint  ±x ± y ≤ C  (PosX: +x else −x; likewise
  /// PosY). Pass YIdx == npos for the unary constraint ±x ≤ C. Returns
  /// whether the constraint lowered a cell; one that lowers none leaves the
  /// matrix, `Closed` and the derived caches alone, as a no-op set() does.
  bool addConstraint(size_t XIdx, bool PosX, size_t YIdx, bool PosY,
                     int64_t C);

  /// The invertible assignment  x := ±x + C  on dimension \p Idx, in place
  /// (Negate selects −x): swaps x's two doubled indices for −x, then shifts
  /// x's rows and columns by ±C. A closed value stays closed, because the
  /// map is a change of coordinates. A shifted bound that leaves int64
  /// saturates the way closure sums do (dropped to +∞ above, clamped
  /// below) and clears `Closed`.
  /// \pre |C| < kPosInf / 2, so that ±2C is representable.
  void assignShifted(size_t Idx, bool Negate, int64_t C);

  /// this[i][j] := max(this[i][j], O[i][j]) over identical variable sets —
  /// the join kernel. One copy-on-write un-share for the whole sweep
  /// (per-cell set() would pay it once per cell). Leaves Closed untouched;
  /// the caller asserts closedness of the result (max of closed is closed).
  void elementwiseMax(const Octagon &O);

  /// Classic octagon widening kernel over identical variable sets: entries
  /// where \p O exceeds this go to +∞, the diagonal is pinned to 0, and the
  /// result is marked unclosed.
  void widenWith(const Octagon &O);

  /// Strong closure (pairwise Floyd–Warshall + unary strengthening);
  /// detects emptiness and collapses to ⊥. Idempotent. O(n³).
  /// \post isClosed() or isBottom(): every entry is the tightest bound the
  ///       constraint system implies, so readers see exact values.
  void close();

  /// Incremental strong closure after addConstraint on a value that was
  /// strongly closed beforehand: restores closure in O(n²) by running the
  /// pair pivot step only for \p XIdx (and \p YIdx when not npos — pass the
  /// same variable indices that were passed to addConstraint). Produces a
  /// matrix entrywise-identical to full close(), including ⊥ detection.
  /// Precondition: the receiver was closed before the constraint(s) on
  /// {XIdx, YIdx} were added.
  void closeIncremental(size_t XIdx, size_t YIdx = static_cast<size_t>(-1));

  /// k-pivot batch form of closeIncremental: restores strong closure after
  /// constraints touching the variables in \p Idxs were added to a value
  /// that was strongly closed beforehand, in ONE pass — a pair-pivot step
  /// per touched variable plus a single strengthening sweep, O(k·n²) for k
  /// touched variables instead of k separate O(n²) re-closures each paying
  /// its own strengthening and, worse, re-pivoting over already-tight rows.
  /// Exact for the same reason the single-constraint form is: every
  /// tightened edge is incident to the doubled indices of Idxs, so improved
  /// paths decompose into old shortest-path segments joined at those
  /// vertices, and one Floyd–Warshall pass over exactly that vertex set (any
  /// order) restores all-pairs shortest paths. Entrywise-identical to full
  /// close(), including ⊥ detection (randomized-tested).
  /// Duplicate indices are tolerated (deduplicated internally).
  void closeIncrementalMulti(const std::vector<size_t> &Idxs);

  bool isClosed() const { return Closed; }

  /// Closes, then drops every unconstrained dimension, so that structurally
  /// distinct but equal values share a representation (memo reuse;
  /// equality itself is semantic). Marks the result all-constrained, so
  /// that hashNormalized() of it is the linear hash().
  void normalize();

  /// Read-only access to the strongly closed form of this value: returns
  /// *this when already closed (or ⊥), otherwise a closure computed at most
  /// once and cached — copies of this value share the cache, so a widening
  /// iterate consumed by many readers is fully closed only once. The
  /// returned reference is invalidated by any mutation of this value.
  const Octagon &closedView() const;

  /// Interval of variable \p Sym implied by this octagon.
  /// \pre !isBottom() and isClosed() (use closedView() first otherwise) —
  ///      unclosed receivers return bounds looser than the stored
  ///      constraints imply.
  Interval boundsOf(SymbolId Sym) const;
  Interval boundsOf(const std::string &Var) const;

  /// Interval of the SUM x + y implied by this octagon — the ±x±y query the
  /// zone tier cannot answer relationally (domain/staged.h escalates to this
  /// reader). Reads the two sum cells directly: x + y ≤ at(2j+1, 2i) and
  /// −x − y ≤ at(2j, 2i+1). Untracked operands contribute ⊤; X == Y returns
  /// the doubled unary bound 2x.
  /// \pre !isBottom() and isClosed().
  Interval sumBounds(SymbolId X, SymbolId Y) const;

  /// Interval of the DIFFERENCE x − y implied by this octagon; the octagon
  /// analogue of composing Zone::constraintOn(Y, X) with its mirror.
  /// \pre !isBottom() and isClosed().
  Interval diffBounds(SymbolId X, SymbolId Y) const;

  /// Structural helpers used by the domain policy.
  bool entailsEntrywise(const Octagon &O) const;
  uint64_t hash() const;

  /// Hash of the normalized form (unconstrained dimensions ignored) without
  /// materializing the restriction — equals hash() of the normalize()d
  /// value. Requires a closed (or ⊥) receiver. A value marked
  /// all-constrained hashes linearly; any other pays one constrained-
  /// dimension sweep first. Cached in the shared buffer.
  uint64_t hashNormalized() const;

  std::string toString() const;

  bool Bottom = false;
  bool Closed = true; ///< The empty DBM is trivially closed.

private:
  /// Sorted variable list, shared copy-on-write: copying an Octagon (every
  /// transfer does) must not reallocate the list. Null encodes the empty
  /// list; all mutations go through setVars().
  std::shared_ptr<const std::vector<SymbolId>> VarsPtr;

  /// The shared matrix buffer: the half-matrix DBM (see matPos) plus
  /// everything derived from it (cached closure, cached normalized hash).
  /// Octagon values are copied far more often than they are mutated (DAIG
  /// cell reads, memo stores, closed views), so the buffer is copy-on-write
  /// — and because the derived caches live INSIDE the shared buffer, the
  /// first consumer to close or hash any copy fills the cache for every
  /// other sharer, including the persistent cell value it was copied from.
  struct MatBuf {
    std::vector<int64_t> M;
    /// Closed form of M (see closedView()); itself closed, so its own
    /// buffer carries no further cache (no recursion).
    std::shared_ptr<const Octagon> ClosedCache;
    uint64_t NormHash = 0; ///< Cached hashNormalized() of a closed M.
    bool NormHashValid = false;
    /// Every dimension of the closed M carries a constraint: normalize()
    /// would drop nothing. Set by normalize() and hashNormalized().
    bool AllConstrained = false;
  };
  /// Null encodes the empty (zero-variable) matrix.
  std::shared_ptr<MatBuf> MPtr;

  const std::vector<SymbolId> &varList() const {
    static const std::vector<SymbolId> Empty;
    return VarsPtr ? *VarsPtr : Empty;
  }
  void setVars(std::vector<SymbolId> V) {
    VarsPtr = std::make_shared<const std::vector<SymbolId>>(std::move(V));
  }

  const std::vector<int64_t> &mat() const {
    static const std::vector<int64_t> Empty;
    return MPtr ? MPtr->M : Empty;
  }
  /// Mutable buffer access with copy-on-write: clones the matrix iff the
  /// buffer is shared with another value; the clone starts with empty
  /// caches, and the sharers keep theirs.
  MatBuf &bufMut() {
    if (!MPtr) {
      MPtr = std::make_shared<MatBuf>();
    } else if (MPtr.use_count() > 1) {
      auto Fresh = std::make_shared<MatBuf>();
      Fresh->M = MPtr->M;
      recordDbmAlloc(Fresh->M.size());
      MPtr = std::move(Fresh);
    }
    return *MPtr;
  }
  std::vector<int64_t> &matMut() { return bufMut().M; }
  void setMat(std::vector<int64_t> V);

  /// Prepares this value's buffer for mutation: un-shares it and drops the
  /// caches derived from the old matrix contents.
  void invalidateDerived() {
    if (!MPtr)
      return;
    MatBuf &B = bufMut();
    B.ClosedCache.reset();
    B.NormHashValid = false;
    B.AllConstrained = false;
  }

  /// Installs \p NewVars with a fresh matrix: new dimension K is old
  /// dimension OldIndexOfNew[K] (npos: a fresh, unconstrained one). The one
  /// matrix allocation behind every variable-set change.
  void resizeFor(std::vector<SymbolId> NewVars,
                 const std::vector<size_t> &OldIndexOfNew);

  /// Sets Mark[K] for every dimension K with at least one constraint and
  /// returns how many there are. Reads the stored array: every unary cell
  /// first, then, for each dimension still unmarked, its binary cells up to
  /// the first finite one; stops once every dimension is marked.
  size_t markConstrained(std::vector<uint8_t> &Mark) const;

  /// One pairwise Floyd–Warshall pivot step on the doubled indices
  /// (2·\p Var, 2·\p Var+1), sweeping all stored cells. Shared by close()
  /// and closeIncremental().
  void pairPivot(size_t Var, uint64_t &CellsTouched);

  /// Unary strengthening + emptiness check shared by close() and
  /// closeIncremental(). Returns false when the octagon collapsed to ⊥.
  bool strengthenAndCheckEmpty(uint64_t &CellsTouched);
};

/// The octagon abstract domain policy (satisfies AbstractDomain).
struct OctagonDomain {
  using Elem = Octagon;

  static Elem bottom() { return Octagon::bottomValue(); }
  static Elem initialEntry(const std::vector<std::string> &Params);
  static Elem transfer(const Stmt &S, const Elem &In);
  static Elem join(const Elem &A, const Elem &B);
  static Elem widen(const Elem &Prev, const Elem &Next);
  static bool leq(const Elem &A, const Elem &B);
  static bool equal(const Elem &A, const Elem &B);
  static uint64_t hash(const Elem &A);
  static std::string toString(const Elem &A);
  static const char *name() { return "octagon"; }
  static bool isBottom(const Elem &A);

  static Elem enterCall(const Elem &Caller, const Stmt &CallSite,
                        const std::vector<std::string> &CalleeParams);
  static Elem exitCall(const Elem &Caller, const Elem &CalleeExit,
                       const Stmt &CallSite);

  /// Refines \p In under the assumption \p Cond (octagonal atoms are
  /// tightened exactly; others fall back to interval reasoning).
  static Elem assume(const Elem &In, const ExprPtr &Cond);
};

} // namespace dai

#endif // DAI_DOMAIN_OCTAGON_H
