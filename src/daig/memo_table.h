//===-- daig/memo_table.h - Auxiliary memoization table ---------*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The auxiliary memo table M of the Fig. 8 operational semantics: a finite
/// map from names of the form f·(v1···vk) to abstract states, enabling reuse
/// of analysis computations *independent of program location* (the paper
/// realizes this with adapton.ocaml; see docs/architecture.md,
/// "Substitutions"). Entries are keyed by the function symbol and hashes of
/// the input values — as the paper puts it, names are "hashes, essentially".
///
/// Names are hash-consed (daig/name.h), so the table keys on the dense
/// 32-bit NameId directly: probing hashes one integer instead of a name
/// tree, and the LRU recency list holds plain ids — no back-pointers into
/// the map's key storage to keep alive across rehashes.
///
/// Dropping entries is always sound (Section 2.2): eviction trades reuse for
/// memory, so the table exposes a size cap with LRU eviction — lookups
/// refresh recency, so hot transfer/join results survive long edit sessions
/// that a FIFO policy would churn through.
///
/// Hit/miss/eviction counts are reported through an attached Statistics
/// (attachStatistics). Attachment is the table OWNER's responsibility —
/// the sink must outlive the table — so InterprocEngine attaches its own
/// Statistics, and standalone users (benches, tests) attach explicitly;
/// the Daig never attaches on its callers' behalf.
///
//===----------------------------------------------------------------------===//

#ifndef DAI_DAIG_MEMO_TABLE_H
#define DAI_DAIG_MEMO_TABLE_H

#include "daig/name.h"
#include "domain/abstract_domain.h"
#include "support/fault_injection.h"
#include "support/observe.h"
#include "support/statistics.h"

#include <list>
#include <optional>
#include <unordered_map>

namespace dai {

/// Location-independent memoization of analysis function applications.
template <typename D>
  requires AbstractDomain<D>
class MemoTable {
public:
  using Elem = typename D::Elem;

  explicit MemoTable(size_t MaxEntries = 1u << 20) : MaxEntries(MaxEntries) {}

  /// Routes hit/miss/eviction counts into \p S (MemoHits, MemoMisses,
  /// MemoEvictions). Pass nullptr to detach. With several sinks attaching
  /// to a shared table, the last attach wins.
  void attachStatistics(Statistics *S) { Stats = S; }

  /// Detaches \p S if it is the current sink (no-op otherwise) — callers
  /// whose Statistics dies before a shared table MUST call this, or the
  /// table would keep counting into freed memory.
  void detachStatistics(Statistics *S) {
    if (Stats == S)
      Stats = nullptr;
  }

  /// Returns the memoized result for \p Key, if present, marking the entry
  /// most-recently-used.
  std::optional<Elem> lookup(Name Key) {
    DAI_FAULT_POINT(Memo); // at entry: an aborted lookup mutates nothing
    auto It = Table.find(Key.id());
    if (It == Table.end()) {
      if (Stats)
        ++Stats->MemoMisses;
      traceInstant("memo.miss", Key.id());
      return std::nullopt;
    }
    touch(It->second.LruIt);
    if (Stats)
      ++Stats->MemoHits;
    traceInstant("memo.hit", Key.id());
    return It->second.Value;
  }

  /// Records \p Key ↦ \p Value, evicting least-recently-used entries beyond
  /// the cap.
  void store(Name Key, Elem Value) {
    DAI_FAULT_POINT(Memo); // at entry: an aborted store leaves the LRU and
                           // table untouched (entries are pure, keyed by
                           // value hashes, so skipping a store is sound)
    // Find-then-assign: emplace may consume the moved argument even when
    // insertion fails, which would overwrite with a moved-from value.
    auto It = Table.find(Key.id());
    if (It != Table.end()) {
      It->second.Value = std::move(Value);
      touch(It->second.LruIt);
      return;
    }
    It = Table.emplace(Key.id(), Entry{std::move(Value), {}}).first;
    Lru.push_front(Key.id());
    It->second.LruIt = Lru.begin();
    while (Table.size() > MaxEntries && !Lru.empty()) {
      traceInstant("memo.evict", Lru.back());
      Table.erase(Lru.back());
      Lru.pop_back();
      if (Stats)
        ++Stats->MemoEvictions;
    }
  }

  void clear() {
    Table.clear();
    Lru.clear();
  }

  size_t size() const { return Table.size(); }

private:
  struct Entry {
    Elem Value;
    std::list<NameId>::iterator LruIt;
  };

  /// Spreads the dense, low-entropy ids across buckets (ids are sequential
  /// intern order; identity hashing would cluster the hot tail).
  struct IdHash {
    size_t operator()(NameId Id) const {
      uint64_t X = Id;
      X *= 0x9e3779b97f4a7c15ULL;
      X ^= X >> 32;
      return static_cast<size_t>(X);
    }
  };

  /// Moves an entry's recency node to the front (most recently used).
  void touch(std::list<NameId>::iterator It) {
    Lru.splice(Lru.begin(), Lru, It);
  }

  size_t MaxEntries;
  Statistics *Stats = nullptr;
  std::unordered_map<NameId, Entry, IdHash> Table;
  std::list<NameId> Lru; ///< Front = most recent; back is evicted.
};

} // namespace dai

#endif // DAI_DAIG_MEMO_TABLE_H
