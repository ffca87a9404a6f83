//===-- daig/memo_table.h - Auxiliary memoization table ---------*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The auxiliary memo table M of the Fig. 8 operational semantics: a finite
/// map from keys f·(v1···vk) to abstract states, enabling reuse of analysis
/// computations *independent of program location* (the paper realizes this
/// with adapton.ocaml; see docs/architecture.md, "Substitutions"). As the
/// paper puts it, such keys are "hashes, essentially".
///
/// A MemoKey is that tuple by value: the function symbol and the exact
/// input hashes in order. Keys compare field by field, so two keys alias
/// one entry exactly when their tuples are equal, and the table owns its
/// keys: evicting an entry or destroying the table frees them. Nothing is
/// interned, and no value becomes a cell key (daig/cell_key.h): a DAIG's
/// keys track program shape, not the number of distinct values seen.
///
/// Entries hold their results by shared handle (ElemPtr, a
/// shared_ptr<const Elem>). A value is built once, by the domain operation
/// that computed it; storing it and every later hit hand out that one
/// immutable object, so Q-Match costs a lookup and a reference-count bump,
/// never a copy of the abstract state. The DAIG cells the result fills
/// share the same object, and evicting an entry drops only the table's
/// reference.
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

#include "daig/cell_key.h"
#include "domain/abstract_domain.h"
#include "support/fault_injection.h"
#include "support/hashing.h"
#include "support/observe.h"
#include "support/statistics.h"

#include <cassert>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

namespace dai {

/// A memo key f·(h1···hk). The inputs, in order, are
///  - transfer: the statement hash, then the input-state hash;
///  - join: one hash per input (the arity varies);
///  - widen: the previous iterate's hash, then the next one's.
struct MemoKey {
  FnKind F = FnKind::Transfer;
  std::vector<uint64_t> Ins;

  bool operator==(const MemoKey &) const = default;

  /// Buckets the key and labels its trace instants. Equality never reads
  /// it: distinct tuples stay distinct keys even when their hashes collide.
  uint64_t hash() const {
    uint64_t H = static_cast<uint64_t>(F);
    for (uint64_t In : Ins)
      H = hashCombine(H, In);
    return H;
  }
};

/// Location-independent memoization of analysis function applications,
/// keyed by value and holding shared results.
template <typename D>
  requires AbstractDomain<D>
class MemoTable {
public:
  using Elem = typename D::Elem;
  /// A computed value as the table and DAIG cells hold it: immutable, and
  /// shared by every entry and cell that holds the same result.
  using ElemPtr = std::shared_ptr<const Elem>;

  explicit MemoTable(size_t MaxEntries = 1u << 20) : MaxEntries(MaxEntries) {}

  /// Routes hit/miss/eviction counts into \p S (MemoHits, MemoMisses,
  /// MemoEvictions). Pass nullptr to detach. With several sinks attaching
  /// to a shared table, the last attach wins.
  void attachStatistics(Statistics *S) { Stats = S; }

  /// Returns the memoized result for \p Key — the stored object itself —
  /// marking the entry most-recently-used; null when absent.
  ElemPtr lookup(const MemoKey &Key) {
    DAI_FAULT_POINT(Memo); // at entry: an aborted lookup mutates nothing
    auto It = Table.find(Key);
    if (It == Table.end()) {
      if (Stats)
        ++Stats->MemoMisses;
      traceInstant("memo.miss", Key.hash());
      return nullptr;
    }
    touch(It->second.LruIt);
    if (Stats)
      ++Stats->MemoHits;
    traceInstant("memo.hit", Key.hash());
    return It->second.Value;
  }

  /// Records \p Key ↦ \p Value (non-null), evicting least-recently-used
  /// entries beyond the cap.
  void store(MemoKey Key, ElemPtr Value) {
    assert(Value && "memoizing an empty handle");
    DAI_FAULT_POINT(Memo); // at entry: an aborted store leaves the LRU and
                           // table untouched (entries are pure, keyed by
                           // value hashes, so skipping a store is sound)
    // Find-then-assign: emplace may consume the moved argument even when
    // insertion fails, which would overwrite with a moved-from value.
    auto It = Table.find(Key);
    if (It != Table.end()) {
      It->second.Value = std::move(Value);
      touch(It->second.LruIt);
      return;
    }
    It = Table.emplace(std::move(Key), Entry{std::move(Value), {}}).first;
    Lru.push_front(&It->first);
    It->second.LruIt = Lru.begin();
    while (Table.size() > MaxEntries && !Lru.empty()) {
      auto Victim = Table.find(*Lru.back());
      traceInstant("memo.evict", Victim->first.hash());
      Lru.pop_back();
      Table.erase(Victim);
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
  /// The recency list points at the keys the table's nodes own; a node
  /// never moves, rehashing included, so the pointers stay valid until
  /// their entry is erased.
  using LruList = std::list<const MemoKey *>;

  struct Entry {
    ElemPtr Value;
    LruList::iterator LruIt;
  };

  struct KeyHash {
    size_t operator()(const MemoKey &K) const { return K.hash(); }
  };

  /// Moves an entry's recency node to the front (most recently used).
  void touch(LruList::iterator It) {
    Lru.splice(Lru.begin(), Lru, It);
  }

  size_t MaxEntries;
  Statistics *Stats = nullptr;
  std::unordered_map<MemoKey, Entry, KeyHash> Table;
  LruList Lru; ///< Front = most recent; back is evicted.
};

} // namespace dai

#endif // DAI_DAIG_MEMO_TABLE_H
