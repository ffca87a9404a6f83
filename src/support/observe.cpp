//===-- support/observe.cpp - Tracing & provenance ------------------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/observe.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

namespace dai {

//===----------------------------------------------------------------------===//
// Ring registry
//===----------------------------------------------------------------------===//

namespace {

/// Process-global tracing state. Rings are heap-allocated, registered
/// once, and never freed: a TaskPool worker's events stay exportable after
/// the worker exits (the thread_local cache dies with the thread; the ring
/// does not).
struct TraceGlobals {
  std::mutex M;
  std::vector<TraceRing *> Rings; // guarded by M
  std::atomic<bool> Enabled{false};
  std::atomic<uint64_t> Recorded{0};
  std::atomic<uint64_t> Dropped{0};
};

TraceGlobals &traceGlobals() {
  // Immortal: never destroyed, so Rings keeps every registered ring
  // reachable through process exit — a plain function-local static would
  // run ~vector at exit and strand the intentionally-unfreed rings,
  // tripping leak checkers depending on teardown order.
  static TraceGlobals *G = new TraceGlobals();
  return *G;
}

} // namespace

/// Exporter-side access to TraceRing internals (friend of TraceRing).
class TraceRegistryAccess {
public:
  static void setOn(TraceRing &R, bool On) {
    R.On.store(On, std::memory_order_relaxed);
  }
  static void resetHead(TraceRing &R) {
    R.Head.store(0, std::memory_order_release);
  }
  static void assignTid(TraceRing &R, uint32_t Tid) { R.Tid = Tid; }
  /// Appends every published event of \p R to \p Out, tagged with its tid.
  static void collect(const TraceRing &R, std::vector<TaggedTraceEvent> &Out) {
    uint32_t H = R.Head.load(std::memory_order_acquire);
    const TraceEvent *B = R.Buf.load(std::memory_order_acquire);
    if (!B || H == 0)
      return;
    if (H > TraceRing::kCapacity)
      H = TraceRing::kCapacity;
    for (uint32_t I = 0; I < H; ++I)
      Out.push_back({B[I], R.Tid});
  }
};

void TraceRing::record(const TraceEvent &E) {
  TraceGlobals &G = traceGlobals();
  TraceEvent *B = Buf.load(std::memory_order_relaxed);
  if (!B) {
    // Owner-thread lazy allocation, release-published so a concurrent
    // exporter that acquires Head also sees the buffer pointer.
    B = new TraceEvent[kCapacity];
    Buf.store(B, std::memory_order_release);
  }
  uint32_t H = Head.load(std::memory_order_relaxed);
  if (H >= kCapacity) {
    // Drop-on-full: wrapping would overwrite slots a concurrent exporter
    // may be reading. The drop is counted, never silent.
    G.Dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  B[H] = E;
  Head.store(H + 1, std::memory_order_release);
  G.Recorded.fetch_add(1, std::memory_order_relaxed);
}

namespace observe_detail {

TraceRing *initThreadRing() {
  TraceGlobals &G = traceGlobals();
  TraceRing *R = new TraceRing();
  {
    std::lock_guard<std::mutex> L(G.M);
    TraceRegistryAccess::assignTid(*R, uint32_t(G.Rings.size()) + 1);
    TraceRegistryAccess::setOn(*R,
                               G.Enabled.load(std::memory_order_relaxed));
    G.Rings.push_back(R);
  }
  TlsRing = R;
  return R;
}

} // namespace observe_detail

uint64_t traceNowNs() {
  static const std::chrono::steady_clock::time_point Origin =
      std::chrono::steady_clock::now();
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - Origin)
                      .count());
}

void setTracingEnabled(bool Enable) {
  TraceGlobals &G = traceGlobals();
  std::lock_guard<std::mutex> L(G.M);
  G.Enabled.store(Enable, std::memory_order_relaxed);
  for (TraceRing *R : G.Rings)
    TraceRegistryAccess::setOn(*R, Enable);
}

void resetTrace() {
  TraceGlobals &G = traceGlobals();
  std::lock_guard<std::mutex> L(G.M);
  for (TraceRing *R : G.Rings)
    TraceRegistryAccess::resetHead(*R);
  G.Recorded.store(0, std::memory_order_relaxed);
  G.Dropped.store(0, std::memory_order_relaxed);
}

TraceStats traceStats() {
  TraceGlobals &G = traceGlobals();
  return {G.Recorded.load(std::memory_order_relaxed),
          G.Dropped.load(std::memory_order_relaxed)};
}

std::vector<TaggedTraceEvent> collectTrace() {
  TraceGlobals &G = traceGlobals();
  std::vector<TaggedTraceEvent> Out;
  {
    std::lock_guard<std::mutex> L(G.M);
    for (const TraceRing *R : G.Rings)
      TraceRegistryAccess::collect(*R, Out);
  }
  // Rings record spans at END time, so raw order is not start order. Sort
  // by (tid, start, depth): ts becomes monotone per tid and a parent span
  // precedes children that share its start timestamp.
  std::stable_sort(Out.begin(), Out.end(),
                   [](const TaggedTraceEvent &A, const TaggedTraceEvent &B) {
                     if (A.Tid != B.Tid)
                       return A.Tid < B.Tid;
                     if (A.E.TsNs != B.E.TsNs)
                       return A.E.TsNs < B.E.TsNs;
                     return A.E.Depth < B.E.Depth;
                   });
  return Out;
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

bool writeChromeTrace(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::vector<TaggedTraceEvent> Evs = collectTrace();
  std::fputs("{\"traceEvents\": [\n", F);
  bool First = true;
  for (const TaggedTraceEvent &T : Evs) {
    const TraceEvent &E = T.E;
    if (!First)
      std::fputs(",\n", F);
    First = false;
    // ts/dur are microseconds in the trace_event format; emit at ns
    // precision so the per-tid sort order survives the unit change.
    if (E.Ph == 0)
      std::fprintf(F,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                   "\"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                   "\"args\": {\"a0\": %llu, \"a1\": %llu}}",
                   E.Nm, double(E.TsNs) / 1000.0, double(E.DurNs) / 1000.0,
                   T.Tid, (unsigned long long)E.A0, (unsigned long long)E.A1);
    else
      std::fprintf(F,
                   "{\"name\": \"%s\", \"ph\": \"i\", \"s\": \"t\", "
                   "\"ts\": %.3f, \"pid\": 1, \"tid\": %u, "
                   "\"args\": {\"a0\": %llu, \"a1\": %llu}}",
                   E.Nm, double(E.TsNs) / 1000.0, T.Tid,
                   (unsigned long long)E.A0, (unsigned long long)E.A1);
  }
  std::fputs("\n]}\n", F);
  std::fclose(F);
  return true;
}

bool writeCollapsedStack(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::vector<TaggedTraceEvent> Evs = collectTrace();
  // Per tid, sweep spans in start order keeping the open-span stack;
  // attribute each span's SELF time (duration minus enclosed children) to
  // its semicolon-joined stack. Instants are skipped (no duration).
  std::map<std::string, uint64_t> Folded;
  size_t I = 0;
  while (I < Evs.size()) {
    uint32_t Tid = Evs[I].Tid;
    struct Open {
      const char *Nm;
      uint64_t EndNs;
      uint64_t DurNs;
      uint64_t ChildNs;
      std::string Stack;
    };
    std::vector<Open> Opens;
    auto close = [&](uint64_t UpToTs) {
      while (!Opens.empty() && UpToTs >= Opens.back().EndNs) {
        Open Top = Opens.back();
        Opens.pop_back();
        uint64_t Self =
            Top.DurNs >= Top.ChildNs ? Top.DurNs - Top.ChildNs : 0;
        Folded[Top.Stack] += Self;
        if (!Opens.empty())
          Opens.back().ChildNs += Top.DurNs;
      }
    };
    for (; I < Evs.size() && Evs[I].Tid == Tid; ++I) {
      const TraceEvent &E = Evs[I].E;
      if (E.Ph != 0)
        continue;
      close(E.TsNs);
      std::string Stk =
          Opens.empty() ? std::string(E.Nm) : Opens.back().Stack + ";" + E.Nm;
      Opens.push_back({E.Nm, E.TsNs + E.DurNs, E.DurNs, 0, std::move(Stk)});
    }
    close(~uint64_t(0));
  }
  for (const auto &[Stk, Ns] : Folded)
    std::fprintf(F, "%s %llu\n", Stk.c_str(), (unsigned long long)Ns);
  std::fclose(F);
  return true;
}

//===----------------------------------------------------------------------===//
// DAI_TRACE environment hook
//===----------------------------------------------------------------------===//

namespace {

std::string &envTracePath() {
  static std::string P;
  return P;
}
std::string &envFoldedPath() {
  static std::string P;
  return P;
}

extern "C" void daiFlushEnvTrace() {
  if (!envTracePath().empty())
    writeChromeTrace(envTracePath());
  if (!envFoldedPath().empty())
    writeCollapsedStack(envFoldedPath());
}

/// Reads DAI_TRACE / DAI_TRACE_FOLDED once at static init: either enables
/// tracing for the whole process and flushes the files at exit.
struct EnvTraceInit {
  EnvTraceInit() {
    const char *Chrome = std::getenv("DAI_TRACE");
    const char *Folded = std::getenv("DAI_TRACE_FOLDED");
    if (!Chrome && !Folded)
      return;
    if (Chrome)
      envTracePath() = Chrome;
    if (Folded)
      envFoldedPath() = Folded;
    setTracingEnabled(true);
    std::atexit(daiFlushEnvTrace);
  }
};
EnvTraceInit EnvTraceInitInstance;

} // namespace

} // namespace dai
