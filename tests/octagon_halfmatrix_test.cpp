//===-- tests/octagon_halfmatrix_test.cpp - Half-matrix DBM tests ---------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The safety net for the coherent half-matrix representation: a dense
/// (2n)² reference implementation of the octagon kernels (the pre-refactor
/// algorithms, verbatim in spirit) is driven through long random sequences
/// of mutating operations — addConstraint / close / closeIncremental /
/// elementwiseMax (join kernel) / widenWith / addVar / addVars /
/// forgetInPlace / forgetAndRemove / restrictAndRename (order-preserving
/// projections, renamings, and enterCall's fused project-and-rename) /
/// in-place x := ±x + c — in lockstep with the half-matrix Octagon,
/// asserting after every step that (a) all logical entries agree entrywise
/// and (b) the logical matrix is coherent: at(i,j) == at(j̄,ī). The
/// reference runs x := ±x + c the way the domain once did, through a
/// temporary dimension, so the in-place form is pinned to it.
///
/// Also the regression tests for the soundness fixes that shipped with the
/// representation change:
///  - an assignment whose RHS interval is EMPTY collapses to ⊥ (it used to
///    havoc the target like a ⊤ RHS),
///  - raw set() clears the Closed flag whenever the entry changes,
///  - x := ±x + c leaves a program variable named "__oct_tmp" (the name of
///    the temporary dimension it once used) alone.
///
//===----------------------------------------------------------------------===//

#include "domain/octagon.h"

#include "lang/stmt.h"
#include "support/rng.h"
#include "support/statistics.h"

#include <algorithm>
#include <gtest/gtest.h>

using namespace dai;

namespace {

constexpr int64_t Inf = Octagon::kPosInf;
constexpr size_t npos = static_cast<size_t>(-1);

int64_t refAdd(int64_t A, int64_t B) {
  if (A == Inf || B == Inf)
    return Inf;
  int64_t R;
  if (__builtin_add_overflow(A, B, &R))
    return (A > 0) ? Inf : INT64_MIN / 4;
  return R;
}

int64_t refDiv2(int64_t A) {
  if (A == Inf)
    return Inf;
  return A >= 0 ? A / 2 : (A - 1) / 2;
}

/// Dense (2n)² reference octagon: the pre-half-matrix algorithms, kept as
/// the oracle. Dimensions are SymbolIds sorted ascending, exactly like the
/// production representation, so logical indices line up one-to-one.
struct DenseOct {
  bool Bottom = false;
  std::vector<SymbolId> Vars;
  std::vector<int64_t> M;

  size_t n() const { return Vars.size(); }
  size_t dim() const { return 2 * Vars.size(); }
  int64_t at(size_t I, size_t J) const { return M[I * dim() + J]; }

  size_t varIndex(SymbolId S) const {
    auto It = std::lower_bound(Vars.begin(), Vars.end(), S);
    if (It == Vars.end() || *It != S)
      return npos;
    return static_cast<size_t>(It - Vars.begin());
  }

  void resizeFor(const std::vector<SymbolId> &NewVars,
                 const std::vector<size_t> &OldIdx) {
    size_t NewN = NewVars.size();
    size_t NewDim = 2 * NewN;
    size_t OldDim = dim();
    std::vector<int64_t> NewM(NewDim * NewDim, Inf);
    for (size_t I = 0; I < NewDim; ++I)
      NewM[I * NewDim + I] = 0;
    for (size_t A = 0; A < NewN; ++A) {
      if (OldIdx[A] == npos)
        continue;
      for (size_t B = 0; B < NewN; ++B) {
        if (OldIdx[B] == npos)
          continue;
        for (int SA = 0; SA < 2; ++SA)
          for (int SB = 0; SB < 2; ++SB)
            NewM[(2 * A + SA) * NewDim + (2 * B + SB)] =
                M[(2 * OldIdx[A] + SA) * OldDim + (2 * OldIdx[B] + SB)];
      }
    }
    Vars = NewVars;
    M = std::move(NewM);
  }

  void addVar(SymbolId S) {
    if (varIndex(S) != npos)
      return;
    std::vector<SymbolId> NewVars = Vars;
    NewVars.insert(std::lower_bound(NewVars.begin(), NewVars.end(), S), S);
    std::vector<size_t> OldIdx(NewVars.size());
    for (size_t K = 0; K < NewVars.size(); ++K)
      OldIdx[K] = (NewVars[K] == S) ? npos : varIndex(NewVars[K]);
    resizeFor(NewVars, OldIdx);
  }

  void addConstraint(size_t XIdx, bool PosX, size_t YIdx, bool PosY,
                     int64_t C) {
    size_t Dim = dim();
    auto tighten = [&](size_t I, size_t J, int64_t Bound) {
      int64_t &Slot = M[I * Dim + J];
      if (Bound < Slot)
        Slot = Bound;
    };
    if (YIdx == npos) {
      size_t Pos = 2 * XIdx, Neg = 2 * XIdx + 1;
      if (C >= Inf / 2)
        return;
      if (PosX)
        tighten(Neg, Pos, 2 * C);
      else
        tighten(Pos, Neg, 2 * C);
      return;
    }
    size_t A = 2 * XIdx + (PosX ? 0 : 1);
    size_t B = 2 * YIdx + (PosY ? 1 : 0);
    tighten(B, A, C);
    tighten(A ^ 1, B ^ 1, C); // coherence, written out explicitly
  }

  /// The original dense strong closure: single-pivot Floyd–Warshall over
  /// all doubled indices, then unary strengthening, then emptiness.
  void close() {
    if (Bottom)
      return;
    size_t Dim = dim();
    for (size_t K = 0; K < Dim; ++K)
      for (size_t I = 0; I < Dim; ++I) {
        int64_t IK = M[I * Dim + K];
        if (IK == Inf)
          continue;
        for (size_t J = 0; J < Dim; ++J) {
          int64_t Cand = refAdd(IK, M[K * Dim + J]);
          if (Cand < M[I * Dim + J])
            M[I * Dim + J] = Cand;
        }
      }
    for (size_t I = 0; I < Dim; ++I)
      for (size_t J = 0; J < Dim; ++J) {
        int64_t Cand =
            refAdd(refDiv2(M[I * Dim + (I ^ 1)]), refDiv2(M[(J ^ 1) * Dim + J]));
        if (Cand < M[I * Dim + J])
          M[I * Dim + J] = Cand;
      }
    for (size_t I = 0; I < Dim; ++I) {
      if (M[I * Dim + I] < 0) {
        Bottom = true;
        Vars.clear();
        M.clear();
        return;
      }
      M[I * Dim + I] = 0;
    }
  }

  void forgetInPlace(size_t Idx) {
    close();
    if (Bottom)
      return;
    size_t Dim = dim();
    for (int S = 0; S < 2; ++S) {
      size_t I = 2 * Idx + S;
      for (size_t J = 0; J < Dim; ++J) {
        M[I * Dim + J] = Inf;
        M[J * Dim + I] = Inf;
      }
      M[I * Dim + I] = 0;
    }
  }

  void forgetAndRemove(SymbolId S) {
    size_t Idx = varIndex(S);
    if (Idx == npos)
      return;
    close();
    if (Bottom)
      return;
    std::vector<SymbolId> NewVars;
    std::vector<size_t> OldIdx;
    for (size_t K = 0; K < n(); ++K) {
      if (K == Idx)
        continue;
      NewVars.push_back(Vars[K]);
      OldIdx.push_back(K);
    }
    resizeFor(NewVars, OldIdx);
  }

  void rename(SymbolId From, SymbolId To) {
    size_t FromIdx = varIndex(From);
    std::vector<SymbolId> NewVars = Vars;
    NewVars[FromIdx] = To;
    std::sort(NewVars.begin(), NewVars.end());
    std::vector<size_t> OldIdx(NewVars.size());
    for (size_t K = 0; K < NewVars.size(); ++K)
      OldIdx[K] = (NewVars[K] == To) ? FromIdx : varIndex(NewVars[K]);
    resizeFor(NewVars, OldIdx);
  }

  /// Projection onto the present sources, closing first when a dimension
  /// is dropped, then one rename per source (targets are fresh or equal to
  /// their source, so the renames cannot collide).
  void restrictAndRename(const std::vector<SymbolId> &From,
                         const std::vector<SymbolId> &To) {
    std::vector<SymbolId> NewVars;
    std::vector<size_t> OldIdx;
    for (size_t K = 0; K < n(); ++K)
      if (std::find(From.begin(), From.end(), Vars[K]) != From.end()) {
        NewVars.push_back(Vars[K]);
        OldIdx.push_back(K);
      }
    if (NewVars.size() != n()) {
      close();
      if (Bottom)
        return;
      resizeFor(NewVars, OldIdx);
    }
    for (size_t K = 0; K < From.size(); ++K)
      if (From[K] != To[K] && varIndex(From[K]) != npos)
        rename(From[K], To[K]);
  }

  /// x := ±x + c through a temporary dimension: bind Tmp = ±x + c, close,
  /// forget x, rename Tmp to x.
  void assignShifted(size_t Idx, bool Negate, int64_t C, SymbolId Tmp) {
    SymbolId X = Vars[Idx];
    addVar(Tmp);
    size_t TI = varIndex(Tmp), XI = varIndex(X);
    addConstraint(TI, true, XI, Negate, C);
    addConstraint(TI, false, XI, !Negate, -C);
    close();
    forgetAndRemove(X);
    rename(Tmp, X);
  }

  void elementwiseMax(const DenseOct &O) {
    for (size_t I = 0; I < M.size(); ++I)
      if (O.M[I] > M[I])
        M[I] = O.M[I];
  }

  void widenWith(const DenseOct &O) {
    size_t Dim = dim();
    for (size_t I = 0; I < Dim; ++I)
      for (size_t J = 0; J < Dim; ++J) {
        int64_t &Slot = M[I * Dim + J];
        if (I == J)
          Slot = 0;
        else if (O.M[I * Dim + J] > Slot)
          Slot = Inf;
      }
  }
};

/// Entrywise + coherence comparison; empty string means agreement.
std::string diffAgainstDense(const Octagon &Oct, const DenseOct &Ref) {
  if (Oct.isBottom() != Ref.Bottom)
    return std::string("bottom mismatch: half=") +
           (Oct.isBottom() ? "bot" : "nonbot") +
           " dense=" + (Ref.Bottom ? "bot" : "nonbot");
  if (Oct.isBottom())
    return "";
  if (Oct.vars() != Ref.Vars)
    return "variable-set mismatch";
  size_t Dim = 2 * Oct.numVars();
  for (size_t I = 0; I < Dim; ++I)
    for (size_t J = 0; J < Dim; ++J) {
      if (Oct.at(I, J) != Oct.at(J ^ 1, I ^ 1))
        return "coherence violation at (" + std::to_string(I) + "," +
               std::to_string(J) + ")";
      if (Oct.at(I, J) != Ref.at(I, J))
        return "entry (" + std::to_string(I) + "," + std::to_string(J) +
               "): half=" + std::to_string(Oct.at(I, J)) +
               " dense=" + std::to_string(Ref.at(I, J));
    }
  return "";
}

SymbolId testSym(const std::string &Base, unsigned K) {
  return internSymbol("hm_" + Base + std::to_string(K));
}

void freshPair(unsigned NumVars, unsigned &VarCounter, Octagon &Oct,
               DenseOct &Ref) {
  Oct = Octagon();
  Ref = DenseOct();
  for (unsigned I = 0; I < NumVars; ++I) {
    SymbolId S = testSym("v", VarCounter++);
    Oct.addVar(S);
    Ref.addVar(S);
  }
  Oct.close();
  Ref.close();
}

TEST(OctagonHalfMatrix, IndexAlgebra) {
  // Storage size: 2n² + 2n cells for n variables — half of dense + O(n).
  static_assert(Octagon::matSize(2) == 4);
  static_assert(Octagon::matSize(8) == 40);   // n=4: dense would be 64
  static_assert(Octagon::matSize(96) == 4704); // n=48: dense would be 9216
  // matPos2 respects the coherence involution and lands inside storage.
  // Off-diagonal, the two orientations are literally the same slot; the
  // diagonal's mirror (i,i) ↦ (ī,ī) is a distinct slot whose coherence is
  // semantic (both pinned to 0 by closure), exactly as in the dense layout.
  for (size_t I = 0; I < 96; ++I)
    for (size_t J = 0; J < 96; ++J) {
      if (I != J) {
        ASSERT_EQ(Octagon::matPos2(I, J), Octagon::matPos2(J ^ 1, I ^ 1))
            << I << "," << J;
      }
      ASSERT_LT(Octagon::matPos2(I, J), Octagon::matSize(96));
    }
  // Stored cells (j ≤ i|1) are addressed directly and bijectively.
  std::vector<bool> Seen(Octagon::matSize(96), false);
  for (size_t I = 0; I < 96; ++I)
    for (size_t J = 0; J <= (I | 1); ++J) {
      size_t P = Octagon::matPos(I, J);
      ASSERT_EQ(P, Octagon::matPos2(I, J));
      ASSERT_FALSE(Seen[P]) << "slot aliasing at (" << I << "," << J << ")";
      Seen[P] = true;
    }
  ASSERT_TRUE(std::all_of(Seen.begin(), Seen.end(), [](bool B) { return B; }));
}

/// The core property: long random chains of every mutating operation keep
/// the half-matrix entrywise equal to the dense reference and coherent.
TEST(OctagonHalfMatrix, RandomOpChainsMatchDenseReference) {
  unsigned VarCounter = 0;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    Rng R(Seed);
    unsigned NumVars = 2 + static_cast<unsigned>(R.below(5)); // 2..6
    Octagon Oct;
    DenseOct Ref;
    freshPair(NumVars, VarCounter, Oct, Ref);
    for (unsigned Step = 0; Step < 100; ++Step) {
      unsigned Op = static_cast<unsigned>(R.below(100));
      size_t N = Oct.numVars();
      if (Op < 40 && N >= 1) {
        // addConstraint + re-closure (incremental and full paths).
        size_t X = R.below(N);
        size_t Y = npos;
        bool PosX = R.percent(50), PosY = R.percent(50);
        if (N >= 2 && R.percent(67))
          do {
            Y = R.below(N);
          } while (Y == X);
        int64_t C = R.range(-12, 25);
        Oct.addConstraint(X, PosX, Y, PosY, C);
        Ref.addConstraint(X, PosX, Y, PosY, C);
        if (R.percent(50))
          Oct.closeIncremental(X, Y);
        else
          Oct.close();
        Ref.close();
      } else if (Op < 50) {
        SymbolId S = testSym("v", VarCounter++);
        Oct.addVar(S);
        Ref.addVar(S);
      } else if (Op < 60 && N >= 1) {
        size_t Idx = R.below(N);
        Oct.forgetInPlace(Idx);
        Ref.forgetInPlace(Idx);
      } else if (Op < 70 && N >= 2) {
        SymbolId S = Oct.vars()[R.below(N)];
        Oct.forgetAndRemove(S);
        Ref.forgetAndRemove(S);
      } else if (Op < 80 && N >= 1) {
        // One resize over a random subset of the variables (in random
        // order), each kept one renamed to a fresh symbol or left as is:
        // order-preserving projections, renamings that reorder, and the
        // fused project-and-rename of enterCall.
        std::vector<SymbolId> From, To;
        for (SymbolId V : Oct.vars())
          if (R.percent(75))
            From.push_back(V);
        for (size_t K = From.size(); K > 1; --K)
          std::swap(From[K - 1], From[R.below(K)]);
        bool Rename = R.percent(67);
        for (SymbolId V : From)
          To.push_back(Rename && R.percent(60) ? testSym("r", VarCounter++)
                                               : V);
        Oct.restrictAndRename(From, To);
        Ref.restrictAndRename(From, To);
      } else if (Op < 88 && N >= 1) {
        // In-place x := ±x + c.
        size_t Idx = R.below(N);
        bool Negate = R.percent(50);
        int64_t C = R.range(-12, 25);
        Oct.assignShifted(Idx, Negate, C);
        Ref.assignShifted(Idx, Negate, C, testSym("t", 0));
      } else if (Op < 92) {
        // Several dimensions in one resize (duplicates and present ones
        // included).
        std::vector<SymbolId> Add;
        for (unsigned K = 0, E = 1 + static_cast<unsigned>(R.below(3)); K < E;
             ++K)
          Add.push_back(testSym("v", VarCounter++));
        if (N >= 1 && R.percent(50))
          Add.push_back(Oct.vars()[R.below(N)]);
        Add.push_back(Add.front());
        Oct.addVars(Add);
        for (SymbolId S : Add)
          Ref.addVar(S);
      } else if (N >= 1) {
        // Join / widen kernels against a perturbed copy over the same vars.
        Octagon OctB = Oct;
        DenseOct RefB = Ref;
        for (unsigned K = 0, E = 1 + static_cast<unsigned>(R.below(3)); K < E;
             ++K) {
          size_t X = R.below(N);
          bool PosX = R.percent(50);
          int64_t C = R.range(-8, 20);
          OctB.addConstraint(X, PosX, npos, true, C);
          RefB.addConstraint(X, PosX, npos, true, C);
        }
        OctB.close();
        RefB.close();
        if (OctB.isBottom() || RefB.Bottom) {
          ASSERT_EQ(OctB.isBottom(), RefB.Bottom) << "seed " << Seed;
        } else if (R.percent(50)) {
          Oct.elementwiseMax(OctB);
          Oct.Closed = true; // max of closed is closed (as join asserts)
          Ref.elementwiseMax(RefB);
        } else {
          Oct.widenWith(OctB);
          Ref.widenWith(RefB);
          std::string WDiff = diffAgainstDense(Oct, Ref);
          ASSERT_EQ(WDiff, "") << "widen, seed " << Seed << " step " << Step;
          Oct.close(); // compare the closures of the widened iterate too
          Ref.close();
        }
      }
      std::string Diff = diffAgainstDense(Oct, Ref);
      ASSERT_EQ(Diff, "") << "seed " << Seed << " step " << Step << ": "
                          << Diff;
      if (Oct.isBottom())
        freshPair(NumVars, VarCounter, Oct, Ref);
    }
  }
}

/// hashNormalized() of a closed value equals hash() of its explicitly
/// normalized copy, with and without unconstrained dimensions; on a
/// normalized value it is the plain hash(); and a mutation clears the
/// all-constrained mark along with the cached hash.
TEST(OctagonHalfMatrix, HashNormalizedEqualsHashOfNormalizedCopy) {
  auto normalizedHash = [](const Octagon &V) {
    Octagon C = V;
    C.normalize();
    return C.hash();
  };
  unsigned VarCounter = 0, WithUnconstrained = 0, AllConstrained = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    Rng R(Seed);
    size_t N = 1 + R.below(7);
    Octagon O;
    for (size_t I = 0; I < N; ++I)
      O.addVar(testSym("h", VarCounter++));
    O.close();
    // Constrain a random slice of the variables; the rest stay ⊤.
    for (size_t K = 0, E = R.below(2 * N + 1); K < E; ++K) {
      size_t X = R.below(N), Y = npos;
      if (N >= 2 && R.percent(50))
        do {
          Y = R.below(N);
        } while (Y == X);
      O.addConstraint(X, R.percent(50), Y, R.percent(50), R.range(-5, 30));
    }
    O.close();
    if (O.isBottom())
      continue;
    Octagon Copy = O; // shares the buffer, and so the hash cache
    uint64_t Expected = normalizedHash(O);
    ASSERT_EQ(O.hashNormalized(), Expected) << "seed " << Seed;
    ASSERT_EQ(Copy.hashNormalized(), Expected) << "seed " << Seed;
    // normalize() keeps exactly the dimensions with a non-⊤ off-diagonal
    // entry, read here through the logical matrix (coherence puts every
    // entry of columns 2k and 2k+1 in rows 2k+1 and 2k as well).
    std::vector<SymbolId> Constrained;
    for (size_t K = 0; K < N; ++K) {
      bool Any = false;
      for (size_t J = 0; J < 2 * N; ++J)
        Any |= (J != 2 * K && O.at(2 * K, J) != Inf) ||
               (J != 2 * K + 1 && O.at(2 * K + 1, J) != Inf);
      if (Any)
        Constrained.push_back(O.vars()[K]);
    }
    Octagon Norm = O;
    Norm.normalize();
    ASSERT_EQ(Norm.vars(), Constrained) << "seed " << Seed;
    (Norm.numVars() == N ? AllConstrained : WithUnconstrained) += 1;
    ASSERT_EQ(Norm.hashNormalized(), Norm.hash()) << "seed " << Seed;
    ASSERT_EQ(Norm.hash(), Expected) << "seed " << Seed;
    if (Norm.numVars() == 0)
      continue;
    // Forgetting a dimension in place leaves it unconstrained. Run it on a
    // private buffer that carries the mark and a cached hash, so that the
    // mutation itself (not a copy-on-write clone) must drop both.
    Octagon Forgot = Norm;
    Forgot.elementwiseMax(Norm); // un-shares the buffer, contents unchanged
    Forgot.normalize();
    ASSERT_EQ(Forgot.hashNormalized(), Expected) << "seed " << Seed;
    Forgot.forgetInPlace(R.below(Norm.numVars()));
    ASSERT_EQ(Forgot.hashNormalized(), normalizedHash(Forgot))
        << "seed " << Seed;
    ASSERT_NE(Forgot.hashNormalized(), Forgot.hash()) << "seed " << Seed;
  }
  EXPECT_GT(WithUnconstrained, 20u);
  EXPECT_GT(AllConstrained, 20u);
}

//===----------------------------------------------------------------------===//
// Regression tests for the soundness fixes
//===----------------------------------------------------------------------===//

TEST(OctagonBugfix, EmptyRhsIntervalCollapsesToBottom) {
  // `0 % 0` has no defined value: its interval is ⊥, not ⊤. The assignment
  // therefore cannot execute — the state must collapse to ⊥, not havoc x
  // and march on with y=5.
  Octagon O;
  Octagon A = OctagonDomain::transfer(Stmt::mkAssign("y", Expr::mkInt(5)), O);
  ASSERT_FALSE(OctagonDomain::isBottom(A));
  Stmt S = Stmt::mkAssign(
      "x", Expr::mkBinary(BinaryOp::Mod, Expr::mkInt(0), Expr::mkInt(0)));
  Octagon B = OctagonDomain::transfer(S, A);
  EXPECT_TRUE(OctagonDomain::isBottom(B));
}

TEST(OctagonBugfix, TopRhsStillHavocsNotBottom) {
  // The ⊤ half of the old merged branch must keep its behavior: havoc.
  Octagon O;
  Octagon A = OctagonDomain::transfer(Stmt::mkAssign("y", Expr::mkInt(5)), O);
  Stmt S = Stmt::mkAssign(
      "x", Expr::mkBinary(BinaryOp::Div, Expr::mkInt(1), Expr::mkInt(0)));
  Octagon B = OctagonDomain::transfer(S, A); // 1/0 over-approximates to ⊤
  ASSERT_FALSE(OctagonDomain::isBottom(B));
  EXPECT_TRUE(B.closedView().boundsOf(std::string("x")).isTop());
  EXPECT_EQ(B.closedView().boundsOf(std::string("y")), Interval::constant(5));
}

TEST(OctagonBugfix, RawSetClearsClosedFlag) {
  Octagon O;
  O.addVar(std::string("bf_v0"));
  O.addVar(std::string("bf_v1"));
  O.close();
  size_t I0 = O.varIndex(std::string("bf_v0"));
  size_t I1 = O.varIndex(std::string("bf_v1"));
  O.addConstraint(I0, true, npos, true, 2);  // v0 ≤ 2
  O.closeIncremental(I0);
  O.addConstraint(I1, true, I0, false, 3); // v1 − v0 ≤ 3
  O.closeIncremental(I1, I0);
  ASSERT_TRUE(O.isClosed());
  ASSERT_EQ(O.boundsOf(std::string("bf_v1")).hi(), 5);

  // Raising v0's upper bound (2·v0 ≤ 20) must drop the Closed flag: the
  // matrix is no longer its own closure, and readers must not trust it. A
  // no-op write must keep the flag.
  int64_t Raised = 20;
  O.set(2 * I0 + 1, 2 * I0, Raised);
  EXPECT_FALSE(O.isClosed());
  // Re-closure consumes the raise on v0 itself (v1's already-derived bound
  // legitimately survives: raising one entry doesn't undo its consequences).
  EXPECT_EQ(O.closedView().boundsOf(std::string("bf_v0")).hi(), 10);
  EXPECT_EQ(O.closedView().boundsOf(std::string("bf_v1")).hi(), 5);

  Octagon C = O.closedView();
  ASSERT_TRUE(C.isClosed());
  C.set(2 * I0 + 1, 2 * I0, C.at(2 * I0 + 1, 2 * I0)); // no-op write
  EXPECT_TRUE(C.isClosed());

  // A tightening write is NOT exempt: it is unpropagated and can even hide
  // ⊥ (here 2·v0 ≤ −1 with −2·v0 ≤ −... contradiction via v0 ≥ 0).
  Octagon T;
  T.addVar(std::string("bf_t"));
  T.close();
  size_t TI = T.varIndex(std::string("bf_t"));
  T.addConstraint(TI, false, npos, true, 0); // v ≥ 0
  T.closeIncremental(TI);
  ASSERT_TRUE(T.isClosed());
  T.set(2 * TI + 1, 2 * TI, -1); // 2v ≤ −1: tightens, contradicts v ≥ 0
  EXPECT_FALSE(T.isClosed());
  EXPECT_TRUE(OctagonDomain::isBottom(T));
}

TEST(OctagonBugfix, ProgramVariableNamedOctTmpSurvivesSelfAssign) {
  // `x := ±x + c` once went through a temporary dimension named
  // "__oct_tmp", and a program variable of that name was silently renamed
  // away in release builds. It now runs in place; a variable of that name
  // must still be left alone, and must be assignable itself.
  Octagon O;
  Octagon A =
      OctagonDomain::transfer(Stmt::mkAssign("__oct_tmp", Expr::mkInt(7)), O);
  Octagon B = OctagonDomain::transfer(Stmt::mkAssign("x", Expr::mkInt(3)), A);
  Stmt Inc = Stmt::mkAssign(
      "x", Expr::mkBinary(BinaryOp::Add, Expr::mkVar("x"), Expr::mkInt(1)));
  Octagon C = OctagonDomain::transfer(Inc, B);
  ASSERT_FALSE(OctagonDomain::isBottom(C));
  EXPECT_EQ(C.closedView().boundsOf(std::string("x")), Interval::constant(4));
  EXPECT_EQ(C.closedView().boundsOf(std::string("__oct_tmp")),
            Interval::constant(7));
  // And the self-assignment of that variable itself (which once forced a
  // second-generation temporary).
  Stmt IncTmp = Stmt::mkAssign(
      "__oct_tmp",
      Expr::mkBinary(BinaryOp::Add, Expr::mkVar("__oct_tmp"), Expr::mkInt(1)));
  Octagon D = OctagonDomain::transfer(IncTmp, C);
  ASSERT_FALSE(OctagonDomain::isBottom(D));
  EXPECT_EQ(D.closedView().boundsOf(std::string("__oct_tmp")),
            Interval::constant(8));
  EXPECT_EQ(D.closedView().boundsOf(std::string("x")), Interval::constant(4));
}

TEST(OctagonBugfix, SelfAssignOnUntrackedVariableStaysTop) {
  // `x := x + 1` where x carries no constraints (initial ⊤ state, or after
  // normalize() dropped its dimension) must leave x unconstrained. The old
  // temporary-dimension path once leaked npos into addConstraint, where it
  // read as a UNARY constraint on the temporary and unsoundly pinned x to
  // the constant.
  Octagon O;
  Stmt Inc = Stmt::mkAssign(
      "x", Expr::mkBinary(BinaryOp::Add, Expr::mkVar("x"), Expr::mkInt(1)));
  Octagon A = OctagonDomain::transfer(Inc, O);
  ASSERT_FALSE(OctagonDomain::isBottom(A));
  EXPECT_TRUE(A.closedView().boundsOf(std::string("x")).isTop());
}

TEST(OctagonBugfix, ProgramVariableNamedArg0SurvivesEnterCall) {
  // enterCall binds actuals to temporaries inside the caller state; those
  // temporaries must not clobber a program variable named "__arg0" that a
  // later actual still reads.
  Octagon O;
  Octagon A =
      OctagonDomain::transfer(Stmt::mkAssign("__arg0", Expr::mkInt(5)), O);
  Stmt Call =
      Stmt::mkCall("r", "f", {Expr::mkInt(1), Expr::mkVar("__arg0")});
  Octagon Entry = OctagonDomain::enterCall(A, Call, {"p0", "p1"});
  ASSERT_FALSE(OctagonDomain::isBottom(Entry));
  EXPECT_EQ(Entry.closedView().boundsOf(std::string("p0")),
            Interval::constant(1));
  EXPECT_EQ(Entry.closedView().boundsOf(std::string("p1")),
            Interval::constant(5));
}

TEST(OctagonBugfix, RawNegativeDiagonalSurvivesResize) {
  // A raw-set negative self-loop is pending ⊥ evidence; a dimension resize
  // (addVar) in between must not silently reset it to 0.
  Octagon O;
  O.addVar(std::string("rd_a"));
  O.addVar(std::string("rd_b"));
  O.close();
  O.set(0, 0, -1);
  EXPECT_FALSE(O.isClosed());
  O.addVar(std::string("rd_c"));
  EXPECT_TRUE(OctagonDomain::isBottom(O));
}

TEST(OctagonHalfMatrix, StorageCountersTrackHalfMatrix) {
  ClosureCounters Before = closureCounters();
  Octagon O;
  for (unsigned I = 0; I < 4; ++I)
    O.addVar(std::string("sc_v") + std::to_string(I));
  ClosureCounters Delta = closureCounters() - Before;
  // The final allocation holds matSize(8) = 40 cells — under the dense 64 —
  // and the peak gauge saw at least that many bytes.
  EXPECT_GE(Delta.CellsStored, Octagon::matSize(8));
  EXPECT_GE(closureCounters().PeakDbmBytes,
            Octagon::matSize(8) * sizeof(int64_t));
}

} // namespace
