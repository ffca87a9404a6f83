//===-- bench/e2e/timed_domain.h - Per-operation domain timing --*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TimedDomain<D> forwards every AbstractDomain operation to D and adds the
/// time and call count of each one to the calling thread's DomainClock. The
/// traced benchmark run instantiates the engine over TimedDomain<D> instead
/// of D, so the domain-kernel layer is measured from outside the library,
/// without its internal trace hooks.
///
/// Clocks are per thread and single-writer; their fields are relaxed
/// atomics, so a thread summing every clock (the parallel re-analysis op,
/// whose domain work runs on pool workers) reads them without a data race.
/// A clock outlives its thread: sums stay correct after pool threads exit.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_BENCH_E2E_TIMED_DOMAIN_H
#define DAI_BENCH_E2E_TIMED_DOMAIN_H

#include "domain/abstract_domain.h"
#include "domain/symbol.h"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace dai::bench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum class DomOp : uint8_t {
  Transfer,
  Join,
  Widen,
  Leq,
  Equal,
  IsBottom,
  Hash,
  EnterCall,
  ExitCall,
  Bottom,
  InitialEntry,
  ToString,
};
constexpr size_t kNumDomOps = 12;

/// Time (ns) and calls per operation, summed over some set of threads.
struct DomainTotals {
  std::array<uint64_t, kNumDomOps> Ns{};
  std::array<uint64_t, kNumDomOps> Calls{};

  uint64_t ns(DomOp Op) const { return Ns[static_cast<size_t>(Op)]; }
  uint64_t calls(DomOp Op) const { return Calls[static_cast<size_t>(Op)]; }
  uint64_t totalNs() const {
    uint64_t S = 0;
    for (uint64_t V : Ns)
      S += V;
    return S;
  }
  uint64_t totalCalls() const {
    uint64_t S = 0;
    for (uint64_t V : Calls)
      S += V;
    return S;
  }
  DomainTotals &operator+=(const DomainTotals &O) {
    for (size_t I = 0; I < kNumDomOps; ++I) {
      Ns[I] += O.Ns[I];
      Calls[I] += O.Calls[I];
    }
    return *this;
  }
  DomainTotals operator-(const DomainTotals &O) const {
    DomainTotals R;
    for (size_t I = 0; I < kNumDomOps; ++I) {
      R.Ns[I] = Ns[I] - O.Ns[I];
      R.Calls[I] = Calls[I] - O.Calls[I];
    }
    return R;
  }
};

/// One thread's accumulators. Only the owning thread writes.
struct DomainClock {
  std::array<std::atomic<uint64_t>, kNumDomOps> Ns{};
  std::array<std::atomic<uint64_t>, kNumDomOps> Calls{};

  void add(DomOp Op, uint64_t DeltaNs) {
    size_t I = static_cast<size_t>(Op);
    Ns[I].store(Ns[I].load(std::memory_order_relaxed) + DeltaNs,
                std::memory_order_relaxed);
    Calls[I].store(Calls[I].load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  }
  DomainTotals read() const {
    DomainTotals T;
    for (size_t I = 0; I < kNumDomOps; ++I) {
      T.Ns[I] = Ns[I].load(std::memory_order_relaxed);
      T.Calls[I] = Calls[I].load(std::memory_order_relaxed);
    }
    return T;
  }
};

namespace detail {
struct ClockRegistry {
  std::mutex M;
  std::deque<DomainClock> Clocks; ///< Guarded by M; deque keeps addresses.
};
inline ClockRegistry &clockRegistry() {
  static ClockRegistry *R = new ClockRegistry; // immortal: outlives threads
  return *R;
}
} // namespace detail

/// The calling thread's clock, registered on first use.
inline DomainClock &threadDomainClock() {
  thread_local DomainClock *C = [] {
    detail::ClockRegistry &R = detail::clockRegistry();
    std::lock_guard<std::mutex> G(R.M);
    return &R.Clocks.emplace_back();
  }();
  return *C;
}

inline DomainTotals domainTotalsThisThread() {
  return threadDomainClock().read();
}

inline DomainTotals domainTotalsAllThreads() {
  detail::ClockRegistry &R = detail::clockRegistry();
  std::lock_guard<std::mutex> G(R.M);
  DomainTotals T;
  for (const DomainClock &C : R.Clocks)
    T += C.read();
  return T;
}

/// Adds the lifetime of the scope to the thread's clock under \p Op.
class DomTimer {
public:
  explicit DomTimer(DomOp Op) : Op(Op), Start(nowNs()) {}
  ~DomTimer() { threadDomainClock().add(Op, nowNs() - Start); }
  DomTimer(const DomTimer &) = delete;
  DomTimer &operator=(const DomTimer &) = delete;

private:
  DomOp Op;
  uint64_t Start;
};

/// \p D with every operation timed. Elem is D's, so answers compare
/// directly against an untimed engine over D.
template <typename D>
  requires AbstractDomain<D>
struct TimedDomain {
  using Elem = typename D::Elem;

  static Elem bottom() {
    DomTimer T(DomOp::Bottom);
    return D::bottom();
  }
  static Elem initialEntry(const std::vector<std::string> &Params) {
    DomTimer T(DomOp::InitialEntry);
    return D::initialEntry(Params);
  }
  static Elem initialEntryFor(SymbolId Fn,
                              const std::vector<std::string> &Params)
    requires requires(SymbolId F, const std::vector<std::string> &P) {
      D::initialEntryFor(F, P);
    }
  {
    DomTimer T(DomOp::InitialEntry);
    return D::initialEntryFor(Fn, Params);
  }
  static Elem transfer(const Stmt &S, const Elem &In) {
    DomTimer T(DomOp::Transfer);
    return D::transfer(S, In);
  }
  static Elem join(const Elem &A, const Elem &B) {
    DomTimer T(DomOp::Join);
    return D::join(A, B);
  }
  static Elem widen(const Elem &A, const Elem &B) {
    DomTimer T(DomOp::Widen);
    return D::widen(A, B);
  }
  static bool leq(const Elem &A, const Elem &B) {
    DomTimer T(DomOp::Leq);
    return D::leq(A, B);
  }
  static bool equal(const Elem &A, const Elem &B) {
    DomTimer T(DomOp::Equal);
    return D::equal(A, B);
  }
  static uint64_t hash(const Elem &A) {
    DomTimer T(DomOp::Hash);
    return D::hash(A);
  }
  static std::string toString(const Elem &A) {
    DomTimer T(DomOp::ToString);
    return D::toString(A);
  }
  static const char *name() { return D::name(); }
  static bool isBottom(const Elem &A) {
    DomTimer T(DomOp::IsBottom);
    return D::isBottom(A);
  }
  static Elem enterCall(const Elem &Caller, const Stmt &CallSite,
                        const std::vector<std::string> &CalleeParams) {
    DomTimer T(DomOp::EnterCall);
    return D::enterCall(Caller, CallSite, CalleeParams);
  }
  static Elem exitCall(const Elem &Caller, const Elem &CalleeExit,
                       const Stmt &CallSite) {
    DomTimer T(DomOp::ExitCall);
    return D::exitCall(Caller, CalleeExit, CallSite);
  }
};

} // namespace dai::bench

#endif // DAI_BENCH_E2E_TIMED_DOMAIN_H
