//===-- bench/e2e/ledger.h - Benchmark spans and layer ledger ---*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's per-layer ledger, recorded from outside the library.
/// Every timed operation opens an Op; each call the benchmark makes into a
/// library layer inside it opens a Span named after that layer. Domain time
/// inside a span (read from the TimedDomain clocks) is charged to the
/// domain layer, the rest of the span to the span's layer, and the part of
/// the op no span covers to the benchmark itself (reported as coverage).
///
/// Recording is per thread: a pool worker running ops writes only its own
/// Recorder. totals() and writeChromeTrace() read every Recorder and must
/// run when no op is in flight (after the pool that ran them is joined).
///
//===----------------------------------------------------------------------===//

#ifndef DAI_BENCH_E2E_LEDGER_H
#define DAI_BENCH_E2E_LEDGER_H

#include "timed_domain.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace dai::bench {

/// Library layers the benchmark calls into, named after their src/ modules.
enum class Layer : uint8_t {
  DaigEdit,         ///< Daig / InterprocEngine edit application.
  InterprocQuery,   ///< InterprocEngine::queryMain.
  Checker,          ///< IncrementalChecker::recheck, collect + runChecks.
  LangFrontend,     ///< frontend(): lex, parse, lower.
  InterprocAnalyze, ///< Engine construction, analyzeAllFromMain, teardown.
};
constexpr size_t kNumLayers = 5;

inline const char *layerName(Layer L) {
  switch (L) {
  case Layer::DaigEdit: return "daig.edit";
  case Layer::InterprocQuery: return "interproc.query";
  case Layer::Checker: return "checker";
  case Layer::LangFrontend: return "lang.frontend";
  case Layer::InterprocAnalyze: return "interproc.analyze";
  }
  return "?";
}

struct LedgerTotals {
  uint64_t Ops = 0;
  uint64_t OpNs = 0;
  uint64_t ChildNs = 0; ///< Op time covered by layer spans.
  std::array<uint64_t, kNumLayers> LayerNs{};
  std::array<uint64_t, kNumLayers> LayerDomainNs{};
  DomainTotals Domain; ///< Domain time and calls inside ops.

  uint64_t layerSelfNs(Layer L) const {
    size_t I = static_cast<size_t>(L);
    return LayerNs[I] > LayerDomainNs[I] ? LayerNs[I] - LayerDomainNs[I] : 0;
  }

  LedgerTotals &operator+=(const LedgerTotals &O) {
    Ops += O.Ops;
    OpNs += O.OpNs;
    ChildNs += O.ChildNs;
    for (size_t I = 0; I < kNumLayers; ++I) {
      LayerNs[I] += O.LayerNs[I];
      LayerDomainNs[I] += O.LayerDomainNs[I];
    }
    Domain += O.Domain;
    return *this;
  }
};

class Ledger {
  struct Recorder;

public:
  /// \p PerThreadDomain charges an op only the domain time of its own
  /// thread (ops running side by side on a pool); otherwise an op is
  /// charged every thread's domain time (an op that fans out to workers).
  /// The first \p ExportOps ops of each thread are kept for the Chrome
  /// trace.
  Ledger(bool PerThreadDomain, uint64_t ExportOps)
      : PerThreadDomain(PerThreadDomain), ExportOps(ExportOps),
        Origin(nowNs()) {}
  Ledger(const Ledger &) = delete;
  Ledger &operator=(const Ledger &) = delete;

  /// One timed operation. A null ledger records nothing.
  class Op {
  public:
    Op(Ledger *L, uint64_t Id) : R(L ? &L->local() : nullptr), L(L) {
      if (!R)
        return;
      R->OpId = Id;
      R->OpChildNs = 0;
      R->OpDomain = L->readDomain();
      R->OpEvent = R->Exporting() ? R->nextId() : 0;
      R->OpStart = nowNs();
    }
    ~Op() {
      if (!R)
        return;
      uint64_t End = nowNs();
      uint64_t Dur = End - R->OpStart;
      LedgerTotals &T = R->T;
      ++T.Ops;
      T.OpNs += Dur;
      T.ChildNs += R->OpChildNs;
      T.Domain += L->readDomain() - R->OpDomain;
      if (R->Exporting())
        R->Events.push_back({"op", R->OpStart, Dur, R->OpId, 0, R->OpEvent,
                             -1});
      ++R->OpsSeen;
      R->OpEvent = 0;
    }
    Op(const Op &) = delete;
    Op &operator=(const Op &) = delete;

  private:
    Recorder *R;
    Ledger *L;
  };

  /// One call into layer \p Ly inside the current Op.
  class Span {
  public:
    Span(Ledger *L, Layer Ly) : R(L ? &L->local() : nullptr), L(L), Ly(Ly) {
      if (!R)
        return;
      DomainStart = L->readDomainNs();
      Start = nowNs();
    }
    ~Span() {
      if (!R)
        return;
      uint64_t Dur = nowNs() - Start;
      uint64_t Dom = L->readDomainNs() - DomainStart;
      size_t I = static_cast<size_t>(Ly);
      R->T.LayerNs[I] += Dur;
      R->T.LayerDomainNs[I] += Dom;
      R->OpChildNs += Dur;
      if (R->Exporting())
        R->Events.push_back({layerName(Ly), Start, Dur, R->OpId, Dom,
                             R->nextId(), static_cast<int64_t>(R->OpEvent)});
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Recorder *R;
    Ledger *L;
    Layer Ly;
    uint64_t Start = 0;
    uint64_t DomainStart = 0;
  };

  LedgerTotals totals() const {
    std::lock_guard<std::mutex> G(M);
    LedgerTotals T;
    for (const Recorder &R : Recorders)
      T += R.T;
    return T;
  }

  /// Writes the kept spans as Chrome trace_event JSON, one event per line,
  /// ts ascending per tid (the shape scripts/check_trace_json.sh checks).
  bool writeChromeTrace(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fputs("{\"traceEvents\": [\n", F);
    bool First = true;
    std::lock_guard<std::mutex> G(M);
    for (const Recorder &R : Recorders) {
      std::vector<Event> Evs = R.Events;
      // Ops before their first child when both start on the same ns.
      std::stable_sort(Evs.begin(), Evs.end(),
                       [](const Event &A, const Event &B) {
                         if (A.StartNs != B.StartNs)
                           return A.StartNs < B.StartNs;
                         return A.Parent < B.Parent;
                       });
      for (const Event &E : Evs) {
        if (!First)
          std::fputs(",\n", F);
        First = false;
        std::fprintf(F,
                     "{\"name\": \"%s\", \"cat\": \"bench\", \"ph\": \"X\", "
                     "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                     "\"args\": {\"id\": %llu, \"parent\": %lld, "
                     "\"op\": %llu, \"domain_us\": %.3f}}",
                     E.Name, double(E.StartNs - Origin) / 1000.0,
                     double(E.DurNs) / 1000.0, R.Tid,
                     static_cast<unsigned long long>(E.Id),
                     static_cast<long long>(E.Parent),
                     static_cast<unsigned long long>(E.OpId),
                     double(E.DomainNs) / 1000.0);
      }
    }
    std::fputs("\n]}\n", F);
    return std::fclose(F) == 0;
  }

private:
  struct Event {
    const char *Name;
    uint64_t StartNs;
    uint64_t DurNs;
    uint64_t OpId;
    uint64_t DomainNs;
    uint64_t Id;
    int64_t Parent; ///< Id of the enclosing op event, -1 for ops.
  };

  struct Recorder {
    uint32_t Tid = 0;
    uint64_t ExportOps = 0;
    LedgerTotals T;
    uint64_t OpsSeen = 0;
    uint64_t OpId = 0;
    uint64_t OpStart = 0;
    uint64_t OpChildNs = 0;
    uint64_t OpEvent = 0;
    uint64_t NextEvent = 0;
    DomainTotals OpDomain;
    std::vector<Event> Events;

    bool Exporting() const { return OpsSeen < ExportOps; }
    /// Ids are unique across threads: tid in the high half.
    uint64_t nextId() {
      return (static_cast<uint64_t>(Tid) << 32) | ++NextEvent;
    }
  };

  Recorder &local() {
    thread_local const Ledger *Owner = nullptr;
    thread_local Recorder *Mine = nullptr;
    if (Owner != this) {
      std::lock_guard<std::mutex> G(M);
      Recorder &R = Recorders.emplace_back();
      R.Tid = static_cast<uint32_t>(Recorders.size());
      R.ExportOps = ExportOps;
      Owner = this;
      Mine = &R;
    }
    return *Mine;
  }

  DomainTotals readDomain() const {
    return PerThreadDomain ? domainTotalsThisThread()
                           : domainTotalsAllThreads();
  }
  uint64_t readDomainNs() const { return readDomain().totalNs(); }

  bool PerThreadDomain;
  uint64_t ExportOps;
  uint64_t Origin;
  mutable std::mutex M;
  std::deque<Recorder> Recorders; ///< Guarded by M; deque keeps addresses.
};

} // namespace dai::bench

#endif // DAI_BENCH_E2E_LEDGER_H
