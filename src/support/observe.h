//===-- support/observe.h - Tracing & provenance ----------------*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer: structured tracing and its exporters. Counters
/// are not here: every counter is a row of the counter table in
/// support/statistics.h, and each family leaves a process through its
/// forEachCounter walk (benches write them as bench/rows.h rows under their
/// table names).
///
/// Tracing. Every interesting boundary of the stack — DAIG cell evaluation
/// and fix iterations, memo hit/miss/eviction, octagon/zone closure
/// kernels, staged escalations, budget checkpoints and degradations,
/// checker obligation evaluation, interprocedural quiescence passes, and
/// TaskPool task execution — carries a hook (RAII TraceSpan for regions,
/// traceInstant for points). Hooks record into a lock-free per-thread ring:
/// the owning thread is the ONLY writer (plain slot store, then a release
/// publish of the head index); exporters acquire the head and read only
/// published slots, so enabled runs are schedule-safe and clean under the
/// tsan lane. A full ring DROPS further events (counted in traceStats())
/// rather than wrapping — overwriting a slot a concurrent exporter may be
/// reading would be a race. Rings have process lifetime (like the
/// SymbolTable), so events recorded by TaskPool workers survive thread exit.
///
/// Overhead contract: with tracing disabled every hook costs one
/// thread_local pointer load + branch plus a relaxed load of the ring's
/// owner-local enable flag — no clock read, no slot write, no counter
/// update. The bench regression gate enforces this observably: the
/// *_trace_* overhead counters emitted by the benches must be zero in
/// un-traced gate runs, and all gate counter families are bit-identical to
/// the pre-observability baselines.
///
/// Export: Chrome trace_event JSON (load in Perfetto / chrome://tracing)
/// via writeChromeTrace() or the DAI_TRACE=<file> environment variable
/// (flushed at process exit; DAI_TRACE_FOLDED=<file> additionally writes
/// the collapsed-stack form), and collapsed-stack text for flame graphs
/// via writeCollapsedStack(). Events are sorted by timestamp per thread at
/// export, so ts is monotone per tid (scripts/check_trace_json.sh checks
/// this plus the required-key schema).
///
/// Demand provenance lives in daig/daig.h (Daig::explainQuery), built on
/// the same disabled-means-one-branch discipline: a per-DAIG recorder
/// pointer is null except inside explainQuery.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_SUPPORT_OBSERVE_H
#define DAI_SUPPORT_OBSERVE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace dai {

//===----------------------------------------------------------------------===//
// Structured tracing
//===----------------------------------------------------------------------===//

/// One recorded event. Nm must be a string literal (static duration): the
/// ring stores the pointer, never a copy.
struct TraceEvent {
  const char *Nm = nullptr;
  uint64_t TsNs = 0;  ///< Start time, ns since the process trace origin.
  uint64_t DurNs = 0; ///< Span duration; 0 for instants.
  uint64_t A0 = 0, A1 = 0; ///< Small numeric payloads (NameId, iteration..).
  uint32_t Depth = 0;      ///< Span nesting depth at record time.
  uint8_t Ph = 0;          ///< 0 = complete span ("X"), 1 = instant ("i").
};

/// The per-thread event ring. Single-writer (the owning thread), multi-
/// reader (exporters): slots below the published Head are immutable once
/// the release store of Head makes them visible. Registered globally on
/// first use and never freed (process lifetime).
class TraceRing {
public:
  /// Events per ring. 64Ki events ≈ 3 MiB, allocated lazily on the first
  /// enabled record — a never-traced thread pays one cache line.
  static constexpr uint32_t kCapacity = 1u << 16;

  /// The owner-side enable check: relaxed load of a flag only
  /// setTracingEnabled writes.
  bool on() const { return On.load(std::memory_order_relaxed); }

  /// Owner thread only. Records \p E (with the ring's current depth
  /// already filled in by the caller) or counts a drop when full.
  void record(const TraceEvent &E);

  /// Owner thread only: span nesting depth bookkeeping.
  uint32_t enterSpan() { return Depth++; }
  uint32_t exitSpan() { return --Depth; }

  uint32_t tid() const { return Tid; }

private:
  friend class TraceRegistryAccess;
  std::atomic<bool> On{false};
  std::atomic<uint32_t> Head{0};
  std::atomic<TraceEvent *> Buf{nullptr};
  uint32_t Depth = 0; ///< Owner-only; recorded into events, never shared.
  uint32_t Tid = 0;   ///< Dense, assigned at registration (1-based).
};

namespace observe_detail {
/// The hook-side cache. Null until the thread's first hook fires.
inline thread_local TraceRing *TlsRing = nullptr;
/// Creates + registers this thread's ring (seeding its enable flag from
/// the global tracing state) and caches it in TlsRing.
TraceRing *initThreadRing();
} // namespace observe_detail

/// The per-hook gate: one thread_local load + branch (plus a relaxed load
/// of the owner-local enable flag). Returns the thread's ring when tracing
/// is enabled, else nullptr.
inline TraceRing *traceActive() {
  TraceRing *R = observe_detail::TlsRing;
  if (R == nullptr)
    R = observe_detail::initThreadRing();
  return R->on() ? R : nullptr;
}

/// Monotonic ns since the process trace origin (first use).
uint64_t traceNowNs();

/// RAII region marker. Construct at the top of the instrumented scope;
/// the event is recorded at scope exit (with start + duration), so a
/// disabled run never touches the clock.
class TraceSpan {
public:
  explicit TraceSpan(const char *Nm, uint64_t A0 = 0, uint64_t A1 = 0)
      : R(traceActive()) {
    if (!R)
      return;
    this->Nm = Nm;
    this->A0 = A0;
    this->A1 = A1;
    Start = traceNowNs();
    Depth = R->enterSpan();
  }
  ~TraceSpan() {
    if (!R)
      return;
    R->exitSpan();
    R->record({Nm, Start, traceNowNs() - Start, A0, A1, Depth, /*Ph=*/0});
  }
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

private:
  TraceRing *R;
  const char *Nm = nullptr;
  uint64_t Start = 0, A0 = 0, A1 = 0;
  uint32_t Depth = 0;
};

/// Point event (memo hit, budget checkpoint, ...).
inline void traceInstant(const char *Nm, uint64_t A0 = 0, uint64_t A1 = 0) {
  if (TraceRing *R = traceActive()) {
    TraceEvent E{Nm, traceNowNs(), 0, A0, A1, 0, /*Ph=*/1};
    E.Depth = R->enterSpan(); // read current depth...
    R->exitSpan();            // ...without changing it
    R->record(E);
  }
}

/// Flips tracing for every registered ring (and seeds rings created
/// later). Call from quiescent points only — i.e. not while another
/// thread is mid-workload — which every in-tree caller (tests, examples,
/// env-var init, TaskPool barriers) satisfies.
void setTracingEnabled(bool Enable);

/// Drops all recorded events and zeroes traceStats(). Quiescent points
/// only (same contract as setTracingEnabled).
void resetTrace();

/// Process-global tracing overhead counters. The benches emit these as
/// dai_trace_events_recorded / dai_trace_events_dropped; the bench gate
/// asserts both are zero in un-traced runs.
struct TraceStats {
  uint64_t EventsRecorded = 0;
  uint64_t EventsDropped = 0;
};
TraceStats traceStats();

/// A published event together with its thread id (for tests/exporters).
struct TaggedTraceEvent {
  TraceEvent E;
  uint32_t Tid = 0;
};

/// Snapshot of every published event across all rings, sorted by
/// (Tid, TsNs, Depth) — the exact order the exporters emit.
std::vector<TaggedTraceEvent> collectTrace();

/// Writes the Chrome trace_event JSON ({"traceEvents": [...]}, one event
/// per line, ts monotone per tid). Returns false when the file cannot be
/// opened.
bool writeChromeTrace(const std::string &Path);

/// Writes collapsed-stack lines ("outer;inner <self-time-ns>") suitable
/// for flamegraph.pl. Deterministically sorted. Returns false when the
/// file cannot be opened.
bool writeCollapsedStack(const std::string &Path);

} // namespace dai

#endif // DAI_SUPPORT_OBSERVE_H
