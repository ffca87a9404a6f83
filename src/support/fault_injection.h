//===-- support/fault_injection.h - Deterministic fault injection -*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection for robustness tests: trigger points at the
/// cell-evaluation, closure-kernel, and memo-table boundaries fire a planned
/// fault on every Nth trigger (stride + seed-derived offset), letting tests
/// prove that a cancellation or allocation failure at ANY analysis boundary
/// leaves the DAIG audit-clean and re-demandable.
///
/// Two fault kinds:
///  - Cancel: requests the plan's CancellationToken; the next budget
///    checkpoint honors it (the cooperative path users actually hit).
///  - AllocFail: throws SimulatedAllocFailure (a std::bad_alloc) directly at
///    the trigger point — the hard path. Trigger points sit at kernel ENTRY,
///    before any mutation of shared copy-on-write state, so the unwind
///    cannot leave a half-closed DBM or half-inserted memo entry behind.
///
/// Always compiled in: a disarmed trigger is one thread_local load and
/// compare, off the measured counter paths.
///
/// Everything is deterministic: the Nth-trigger schedule depends only on
/// (Stride, Offset) and the analysis's own evaluation order — no clocks, no
/// randomness — so a failing seed/stride pair replays exactly.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_SUPPORT_FAULT_INJECTION_H
#define DAI_SUPPORT_FAULT_INJECTION_H

#include "support/budget.h"

#include <cstdint>
#include <new>

namespace dai::fi {

/// Instrumented analysis boundaries (bit positions for Plan::SiteMask).
enum class Site : uint8_t {
  CellEval = 0, ///< Daig::queryState demand-miss entry.
  Fix = 1,      ///< Daig::queryFix iteration entry.
  Closure = 2,  ///< Octagon/zone closure-kernel entries.
  Memo = 3,     ///< MemoTable lookup/store entries.
};

enum class Kind : uint8_t { Cancel, AllocFail };

/// Thrown by an armed AllocFail trigger. Derives from std::bad_alloc so
/// code paths treating allocation failure generically are exercised.
class SimulatedAllocFailure : public std::bad_alloc {
public:
  const char *what() const noexcept override {
    return "simulated allocation failure (fault injection)";
  }
};

/// One deterministic fault schedule: fire Kind on every Stride-th trigger
/// (counted across all unmasked sites), phase-shifted by Offset.
struct Plan {
  Kind FaultKind = Kind::Cancel;
  uint64_t Stride = 0; ///< 0 = disarmed.
  uint64_t Offset = 0; ///< Seed-derived phase: varies WHICH trigger fires.
  uint32_t SiteMask = ~0u;          ///< Participating sites (1 << Site).
  CancellationToken *Token = nullptr; ///< Cancel target; not owned.
  uint64_t Count = 0;               ///< Triggers observed (mutable state).
  uint64_t Fired = 0;               ///< Faults delivered.
};

inline Plan &plan() {
  static thread_local Plan P;
  return P;
}

inline void arm(const Plan &P) { plan() = P; }
inline void disarm() { plan().Stride = 0; }

inline void triggerPoint(Site S) {
  Plan &P = plan();
  if (P.Stride == 0)
    return;
  if (!(P.SiteMask & (1u << static_cast<unsigned>(S))))
    return;
  uint64_t N = ++P.Count;
  if ((N + P.Offset) % P.Stride != 0)
    return;
  ++P.Fired;
  if (P.FaultKind == Kind::Cancel) {
    if (P.Token)
      P.Token->requestCancel(); // honored at the next budget checkpoint
    return;
  }
  throw SimulatedAllocFailure();
}

} // namespace dai::fi

#define DAI_FAULT_POINT(site) ::dai::fi::triggerPoint(::dai::fi::Site::site)

#endif // DAI_SUPPORT_FAULT_INJECTION_H
