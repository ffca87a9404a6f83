//===-- support/symbol.h - Interned variable symbols ------------*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-global intern table mapping variable names to dense integer
/// SymbolIds. Interning makes symbol equality an integer compare, lets the
/// domain states key their environments by integers (domain/symbol_map.h),
/// and lets copy-on-write variable lists hold trivially-copyable ids.
///
/// The table fills with the program's vocabulary at construction: every
/// `Expr::mkVar` and every `Stmt` factory with a target interns its name
/// once and stores the id in the node (`Expr::Sym`, `Stmt::LhsSym`), so
/// transfers, evaluation and refinement read ids and never probe the table
/// by a variable name. What still probes it per operation is named: the
/// call hooks (callee parameters, the return variable), freshSymbol's
/// temporaries, the arr_* functor domains (which build their rewritten
/// statements on every transfer), and the string overloads that tests and
/// examples use. Each probe counts as one `symbol_probes` in the calling
/// thread's NameTableCounters (support/statistics.h).
///
/// Ids are dense (0, 1, 2, …) in first-intern order, so they double as
/// vector indices. The table only grows — analyses run over a fixed program
/// vocabulary plus a bounded set of internal temporaries, so unbounded
/// growth would indicate a bug upstream (e.g., gensym'd names leaking into
/// states; see freshSymbol's contract in octagon.cpp).
///
/// Thread-safety: the table accepts CONCURRENT interning. The dedup side is
/// sharded by string hash — a per-shard mutex guards that shard's map and
/// spelling storage, and equal strings always land in the same shard, so
/// each distinct spelling gets exactly one id (drawn from a global atomic
/// counter, keeping ids dense).
/// The id → spelling direction is a chunked array of atomic pointers,
/// release-published and never relocated, so name() is lock-free. lookup()
/// still never interns: a probe for a never-assigned variable takes the
/// shard lock but does not grow the table.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_SUPPORT_SYMBOL_H
#define DAI_SUPPORT_SYMBOL_H

#include <array>
#include <atomic>
#include "support/statistics.h"

#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace dai {

/// A dense id for an interned variable name. Ordering of ids follows
/// first-intern order, not lexicographic order of the names; all that the
/// domain layer requires is that the order is total and consistent across
/// every value in the process.
using SymbolId = uint32_t;

constexpr SymbolId kNoSymbol = static_cast<SymbolId>(-1);

/// The global string → SymbolId intern table (see the file header for the
/// concurrency contract).
class SymbolTable {
public:
  /// Dedup-index shards, selected by the high bits of the string hash.
  static constexpr unsigned kNumShards = 16;
  /// id → spelling chunk geometry: 4Ki-entry chunks, 4Ki chunk pointers
  /// (16.7M symbols — far beyond any program vocabulary; the analysis
  /// asserts before overflow).
  static constexpr unsigned kChunkShift = 12;
  static constexpr size_t kChunkSize = size_t(1) << kChunkShift;
  static constexpr size_t kChunkMask = kChunkSize - 1;
  static constexpr size_t kMaxChunks = size_t(1) << 12;

  static SymbolTable &global() {
    static SymbolTable Table;
    return Table;
  }

  /// Returns the id of \p Name, interning it on first sight. Safe to call
  /// concurrently: equal spellings serialize on their shard's mutex.
  SymbolId intern(std::string_view Name) {
    ++nameTableCounters().SymbolProbes;
    Shard &S = shardFor(Name);
    std::lock_guard<std::mutex> G(S.M);
    auto It = S.Map.find(Name);
    if (It != S.Map.end())
      return It->second;
    SymbolId Id = NextId.fetch_add(1, std::memory_order_relaxed);
    // Deque storage never relocates, so the string_view key in Map and the
    // pointer published for name() stay valid as the shard grows.
    S.Names.emplace_back(Name);
    const std::string &Stored = S.Names.back();
    publish(Id, &Stored);
    S.Map.emplace(Stored, Id);
    return Id;
  }

  /// Returns the id of \p Name if it has been interned, else kNoSymbol.
  /// Lookups on behalf of absent-means-top reads must NOT intern: a query
  /// for a never-assigned variable should not grow the table.
  SymbolId lookup(std::string_view Name) const {
    ++nameTableCounters().SymbolProbes;
    const Shard &S = shardFor(Name);
    std::lock_guard<std::mutex> G(S.M);
    auto It = S.Map.find(Name);
    return It == S.Map.end() ? kNoSymbol : It->second;
  }

  /// The interned spelling of \p Id. Valid for the process lifetime.
  /// Lock-free: the chunk pointer and entry are acquire loads, published
  /// with release order by intern(), so the string is fully constructed
  /// before any reader can reach it.
  const std::string &name(SymbolId Id) const {
    const Slot *Chunk =
        ById[Id >> kChunkShift].load(std::memory_order_acquire);
    const std::string *P = Chunk[Id & kChunkMask].load(
        std::memory_order_acquire);
    return *P;
  }

  /// Number of ids handed out so far (monotone; under concurrent interning
  /// some of the newest ids may still be mid-publication on other threads —
  /// use this as a count, not as an iteration bound).
  size_t size() const { return NextId.load(std::memory_order_acquire); }

private:
  // Heterogeneous lookup so intern/lookup accept string_view without an
  // allocation on the hit path.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>{}(S);
    }
  };
  struct Eq {
    using is_transparent = void;
    bool operator()(std::string_view A, std::string_view B) const {
      return A == B;
    }
  };

  struct Shard {
    mutable std::mutex M;
    /// Stable storage for the spellings: deque never relocates elements.
    std::deque<std::string> Names;
    std::unordered_map<std::string_view, SymbolId, Hash, Eq> Map;
  };

  using Slot = std::atomic<const std::string *>;

  SymbolTable() : ById(new std::atomic<Slot *>[kMaxChunks]()) {}
  ~SymbolTable() {
    for (size_t I = 0; I < kMaxChunks; ++I)
      delete[] ById[I].load(std::memory_order_acquire);
  }

  Shard &shardFor(std::string_view Name) {
    return Shards[(Hash{}(Name) >> 60) & (kNumShards - 1)];
  }
  const Shard &shardFor(std::string_view Name) const {
    return Shards[(Hash{}(Name) >> 60) & (kNumShards - 1)];
  }

  /// Makes name(Id) return \p P: CAS-publishes the chunk on first use
  /// (the losing allocator frees its copy), then release-stores the entry.
  void publish(SymbolId Id, const std::string *P) {
    size_t CI = Id >> kChunkShift;
    assert(CI < kMaxChunks && "symbol table overflow");
    std::atomic<Slot *> &CSlot = ById[CI];
    Slot *Chunk = CSlot.load(std::memory_order_acquire);
    if (!Chunk) {
      Slot *Fresh = new Slot[kChunkSize]();
      Slot *Expected = nullptr;
      if (CSlot.compare_exchange_strong(Expected, Fresh,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire))
        Chunk = Fresh;
      else {
        delete[] Fresh;
        Chunk = Expected;
      }
    }
    Chunk[Id & kChunkMask].store(P, std::memory_order_release);
  }

  std::array<Shard, kNumShards> Shards;
  std::atomic<SymbolId> NextId{0};
  /// id → spelling: chunked atomic pointer array (see publish()).
  std::unique_ptr<std::atomic<Slot *>[]> ById;
};

inline SymbolId internSymbol(std::string_view Name) {
  return SymbolTable::global().intern(Name);
}

inline SymbolId lookupSymbol(std::string_view Name) {
  return SymbolTable::global().lookup(Name);
}

inline const std::string &symbolName(SymbolId Id) {
  return SymbolTable::global().name(Id);
}

} // namespace dai

#endif // DAI_SUPPORT_SYMBOL_H
