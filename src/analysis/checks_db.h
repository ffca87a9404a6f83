//===-- analysis/checks_db.h - Alarm database -------------------*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The alarm database filled by the checker pass (analysis/checker.h): one
/// CheckResult per evaluated obligation, keyed by program location, with
/// per-check provenance (which check, which edge, which domain answered, and
/// whether the answering pre-state carried degraded budget provenance).
///
/// The degraded-provenance rule lives here as defense in depth: a result
/// whose pre-state was ⊤-substituted by a resource budget (support/budget.h)
/// can never be recorded as SAFE — the proof may hold only of the coarsened
/// state, so add() clamps it to WARNING even if a caller forgot to.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_ANALYSIS_CHECKS_DB_H
#define DAI_ANALYSIS_CHECKS_DB_H

#include "cfg/cfg.h"
#include "support/statistics.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dai {

/// Property-check families the checker pass knows how to derive.
enum class CheckKind : uint8_t {
  UserAssertion, ///< `assert(e)` statements.
  DivByZero,     ///< Divisor of every `/` and `%` is nonzero.
  ArrayBounds,   ///< Every `a[i]` read/write has 0 <= i < a.length.
  Overflow,      ///< Every `+`/`-`/`*` stays within 32-bit signed range.
};

const char *checkKindName(CheckKind K);

/// Bit masks selecting check families (checker collection is maskable so a
/// corpus phase can, e.g., skip the noisy overflow battery).
inline constexpr uint32_t checkMask(CheckKind K) {
  return 1u << static_cast<uint32_t>(K);
}
inline constexpr uint32_t kAllChecks =
    checkMask(CheckKind::UserAssertion) | checkMask(CheckKind::DivByZero) |
    checkMask(CheckKind::ArrayBounds) | checkMask(CheckKind::Overflow);

/// The verdict lattice. Ordered by "alarm severity" for reporting; the
/// checker's evaluation rules are:
///  - Unreachable: the queried pre-state is ⊥ — no execution reaches the
///    check, so it holds vacuously (and is not an alarm).
///  - Safe: the pre-state entails the property (meet with its negation is ⊥).
///  - Error: the pre-state refutes the property (meet with the property
///    itself is ⊥) — every state that reaches the check violates it.
///  - Warning: neither provable nor refutable at this precision (includes
///    every would-be Safe whose pre-state carries degraded provenance).
enum class Verdict : uint8_t { Safe, Warning, Error, Unreachable };

const char *verdictName(Verdict V);

/// One evaluated check obligation with its provenance.
struct CheckResult {
  CheckKind Kind = CheckKind::UserAssertion;
  Verdict V = Verdict::Warning;
  EdgeId Edge = InvalidEdgeId; ///< The CFG edge carrying the obligation.
  Loc At = InvalidLoc;         ///< The edge source (the checked pre-state).
  uint32_t SubIndex = 0;       ///< Obligation ordinal within the edge.
  std::string Text;            ///< Human-readable property, e.g. "i < a.length".
  std::string DomainName;      ///< Domain that answered (D::name()).
  bool DegradedPre = false;    ///< Pre-state carried degraded provenance.
};

/// Aggregate verdict tallies (the batch bench's summary unit).
struct VerdictCounts {
  uint64_t Safe = 0;
  uint64_t Warning = 0;
  uint64_t Error = 0;
  uint64_t Unreachable = 0;

  uint64_t total() const { return Safe + Warning + Error + Unreachable; }
  uint64_t alarms() const { return Warning + Error; }

  /// The tally of verdict \p V.
  uint64_t &of(Verdict V) {
    switch (V) {
    case Verdict::Safe: return Safe;
    case Verdict::Warning: return Warning;
    case Verdict::Error: return Error;
    case Verdict::Unreachable: return Unreachable;
    }
    return Unreachable;
  }

  VerdictCounts &operator+=(const VerdictCounts &O) {
    Safe += O.Safe;
    Warning += O.Warning;
    Error += O.Error;
    Unreachable += O.Unreachable;
    return *this;
  }
  bool operator==(const VerdictCounts &O) const {
    return Safe == O.Safe && Warning == O.Warning && Error == O.Error &&
           Unreachable == O.Unreachable;
  }
};

/// Location-keyed alarm database. Deterministic: iteration is by (Loc,
/// insertion order). runChecks adds in (EdgeId, SubIndex) order, and
/// replaceEdge keeps each location's rows in that order, so an incrementally
/// maintained database reads exactly like one filled from scratch.
class ChecksDb {
public:
  /// Records \p R, clamping Safe to Warning when the pre-state was degraded
  /// (a ⊤-substituted cell can prove nothing). Bumps \p Stats — per-verdict
  /// counts plus AlarmsRaised for post-clamp Warning/Error — when non-null.
  void add(CheckResult R, Statistics *Stats = nullptr);

  /// Replaces, in place, the rows of edge \p Edge recorded at \p OldAt
  /// (InvalidLoc when the edge has none) with \p Rows: one location's rows
  /// in SubIndex order, or none to remove the edge. Applies add()'s clamp.
  /// Each location's rows must already be in (EdgeId, SubIndex) order, and
  /// stay so; a location left without rows is dropped. Bumps no statistics
  /// (IncrementalChecker counts AlarmsRaised once per pass).
  void replaceEdge(EdgeId Edge, Loc OldAt, std::vector<CheckResult> Rows);

  void clear();

  size_t size() const { return Total.total(); }
  bool empty() const { return size() == 0; }
  const VerdictCounts &counts() const { return Total; }
  bool hasAlarms() const { return Total.alarms() != 0; }

  /// Results recorded at location \p L (empty if none).
  const std::vector<CheckResult> &at(Loc L) const;

  /// All locations holding at least one result, ascending.
  std::vector<Loc> locations() const;

  /// Worst verdict recorded at \p L: Error > Warning > Safe > Unreachable.
  /// Returns Unreachable when no result is recorded at \p L.
  Verdict worstAt(Loc L) const;

  /// Multi-line text report: one line per result, grouped by location, plus
  /// a summary tally line. Stable across runs on identical inputs.
  std::string report() const;

private:
  std::map<Loc, std::vector<CheckResult>> ByLoc;
  VerdictCounts Total;
};

} // namespace dai

#endif // DAI_ANALYSIS_CHECKS_DB_H
