//===-- workload/generator.h - Synthetic edit workloads ---------*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The synthetic workload of the paper's scalability study (Section 7.3):
/// random edits to an initially-empty program, where an edit inserts a
/// randomly generated statement (85%), if-then-else conditional (10%), or
/// while loop (5%) at a randomly sampled program location, with statements
/// and expressions generated probabilistically from their grammars; five
/// randomly sampled query locations between edits. Programs are drawn from
/// the same JavaScript subset: assignment, arrays, conditional branching,
/// while loops, and non-recursive first-order calls `x = f(y)`.
///
/// Everything is driven by the deterministic Rng (support/rng.h), so a fixed
/// seed reproduces the identical edit/query sequence across configurations —
/// exactly how the paper compares its four configurations.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_WORKLOAD_GENERATOR_H
#define DAI_WORKLOAD_GENERATOR_H

#include "cfg/cfg_analysis.h"
#include "cfg/edits.h"
#include "cfg/program.h"
#include "support/rng.h"

#include <string>
#include <vector>

namespace dai {

/// Tunables for workload generation (defaults follow Section 7.3).
struct WorkloadOptions {
  uint64_t Seed = 1;
  unsigned NumVars = 8;        ///< Variable pool size.
  unsigned PctStmt = 85;       ///< Statement-insertion probability.
  unsigned PctIf = 10;         ///< If-insertion probability.
  unsigned PctWhile = 5;       ///< While-insertion probability (remainder).
  unsigned PctCallStmt = 8;    ///< Within statements: x = f(y) probability.
  unsigned PctArrayStmt = 10;  ///< Within statements: array ops probability.
  unsigned PctAssertStmt = 0;  ///< Within statements: assert(c) probability.
                               ///< Default 0 keeps the historical Section
                               ///< 7.3 edit sequences bit-identical; the
                               ///< checker workloads opt in.
  unsigned QueriesPerEdit = 5; ///< Random queries between edits.
  unsigned HelperCount = 3;    ///< Callable helper functions.
};

/// Kinds of edits the generator produces (Section 7.3's mix).
enum class EditKind : uint8_t { InsertStmt, InsertIf, InsertWhile };

/// A record of one applied edit, for logging, replay, and the DAIG's
/// statement splice (statement insertions carry the CFG splice description).
struct EditRecord {
  EditKind Kind;
  Loc At = InvalidLoc;
  InsertResult Splice;
};

/// Deterministic random program/edit/query generator.
class WorkloadGenerator {
public:
  explicit WorkloadGenerator(WorkloadOptions Opts);

  /// Builds the initial program: an (empty) `main` plus HelperCount callable
  /// helpers with simple bodies.
  Program makeInitialProgram();

  /// Applies one random edit to `main` of \p P (insertion of a statement,
  /// conditional, or loop at a random location). Structural by construction,
  /// mirroring the paper's workload.
  EditRecord applyRandomEdit(Program &P);

  /// Samples \p N random reachable query locations in `main`.
  std::vector<Loc> sampleQueryLocations(const Program &P, unsigned N);

  /// Random statement / condition from the grammar (exposed for tests).
  Stmt randomStmt();
  ExprPtr randomCondition();

  Rng &rng() { return R; }

  /// The variable pool the generator draws from ("v0" … "vN−1") — exposed
  /// so benches and tests can issue queries over the same names (e.g. the
  /// staged domain's sum-constraint query set).
  const std::vector<std::string> &varPool() const { return Vars; }

private:
  WorkloadOptions Opts;
  Rng R;
  std::vector<std::string> Vars;
  std::vector<std::string> Helpers;

  const std::string &randomVar();
  ExprPtr randomArithExpr(unsigned Depth);
  Loc sampleEditLocation(const Cfg &G);
};

} // namespace dai

#endif // DAI_WORKLOAD_GENERATOR_H
