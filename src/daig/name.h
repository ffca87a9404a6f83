//===-- daig/name.h - DAIG name algebra -------------------------*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The name algebra of Fig. 6, restricted to the names of DAIG reference
/// cells, which identify cells for reuse across edits and queries:
///
///   n ::= ℓ | i | n1·n2 | n^(i)
///
/// i.e. locations, integers, products, and iteration-primed names. The
/// paper's memo keys f·(v1···vk) are not names here: daig/memo_table.h
/// keeps them by value (MemoKey), so no abstract value ever enters the
/// table below.
///
/// We generalize the paper's single iteration count to *nested* counts (an
/// n^(i) wrapper per enclosing loop, outermost-first) so that demanded
/// unrolling of nested loops never collides: the k-th unrolling of an outer
/// loop resets inner loops to their initial two iterates under the outer
/// count k.
///
/// Names are hash-consed through a process-global NameTable: every
/// constructor canonicalizes its node in an intern table, so each
/// structurally distinct name exists exactly once and a Name is a
/// trivially-copyable id wrapper (the 32-bit NameId plus the precomputed
/// structural hash carried inline, so the equality/hash hot path of every
/// DAIG map probe touches no table memory at all). Equality is an integer
/// compare and nodes live in slab storage (fixed-size chunks of plain
/// structs — no shared_ptr, no per-node refcounting, no per-name heap
/// allocation after first intern).
///
/// The dedup index is probed by mix64 of a name's structural hash, not by
/// the structural hash itself. Structural hashes are hashCombine folds of
/// small ids and counts, so DAIG-shaped name sets — thousands of locations,
/// pre-join pairs (i·(ℓ·ℓ')) and nested iteration names — give them
/// clustered bits: indexed by them directly, most names of a run would share
/// one of the 16 shards and linear probing would walk dozens to hundreds of
/// occupied slots per intern. mix64 spreads every input bit over the index bits; the
/// structural hash itself is unchanged, so ids, equality, the total order
/// and toString do not depend on the index. The intern_extra_probes counter
/// (support/statistics.h) watches the probe walk.
///
/// NameTable contract (lifetime / thread-safety):
///  - The table is a process-global singleton with process lifetime; interned
///    nodes are never freed or reused, so a NameId (and hence a Name) stays
///    valid forever once created. Ids are dense in first-intern order.
///  - Like SymbolTable (domain/symbol.h), the table accepts CONCURRENT
///    interning: the dedup index is sharded by structural hash (per-shard
///    mutex + open addressing), ids come from one global atomic counter
///    (keeping them dense), and nodes live in fixed-size chunks published
///    via CAS so a chunk pointer never relocates — node() reads are
///    lock-free. A thread that legitimately holds a NameId (returned from
///    its own intern(), read from a shard under the shard lock, or received
///    through any synchronizing channel such as a TaskPool batch barrier)
///    observes the node fully written, transitively through those
///    happens-before edges.
///  - The table only grows, bounded by the set of structurally distinct
///    cell names an analysis constructs (program shape × loop unrolling
///    depth); intern statistics are exposed through
///    nameTableCounters() in support/statistics.h (an atomic sink, so
///    worker-thread interning is counted).
///
/// Name equality, the hash/structural total order, and toString are
/// bit-identical to the structural tree semantics they replace (the
/// name_intern_test suite drives the interned implementation in lockstep
/// against a structural reference oracle).
///
//===----------------------------------------------------------------------===//

#ifndef DAI_DAIG_NAME_H
#define DAI_DAIG_NAME_H

#include "cfg/cfg.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dai {

/// Analysis-function symbols labelling computation edges (Fig. 6) and
/// heading memo keys.
enum class FnKind : uint8_t {
  Transfer, ///< ⟦·⟧♯
  Join,     ///< ⊔
  Widen,    ///< ∇
  Fix,      ///< fix — demanded fixed-point marker
};

const char *fnKindName(FnKind F);

/// A dense id for an interned name node; doubles as an index into the
/// NameTable's slab. kNoName encodes the invalid (default-constructed) Name.
using NameId = uint32_t;
constexpr NameId kNoName = static_cast<NameId>(-1);

/// An immutable, interned DAIG name: a trivially-copyable id into the
/// global NameTable with O(1) equality and precomputed structural hash.
class Name {
public:
  /// Invalid is the documented sentinel returned by kind() on an invalid
  /// (default-constructed) Name — a well-defined query, unlike the other
  /// accessors below, which require a valid receiver of the right kind.
  /// The values are fixed: leaf hashes and the structural total order read
  /// them, so they must not shift. The gaps at 1 and 3 are the retired
  /// function-symbol and value-hash leaves; keep Invalid last.
  enum class Kind : uint8_t { Loc = 0, Num = 2, Pair = 4, Iter = 5, Invalid };

  Name() = default; ///< Invalid name; valid() is false.

  static Name loc(Loc L);
  static Name num(uint64_t N);
  static Name pair(const Name &L, const Name &R);
  /// n^(Count): one iteration wrapper (innermost loop is the outermost
  /// wrapper; see stateCellName in the DAIG builder).
  static Name iter(const Name &Base, uint32_t Count);

  bool valid() const { return Id != kNoName; }
  /// Kind of this name; Kind::Invalid for an invalid Name (well-defined —
  /// regression-tested, since the pre-interning implementation dereferenced
  /// a null node here).
  Kind kind() const;
  /// Precomputed structural hash (carried inline); 0 for an invalid Name.
  uint64_t hash() const { return H; }
  /// The interned id (dense, first-intern order); kNoName when invalid.
  NameId id() const { return Id; }

  Loc locId() const;
  uint64_t numValue() const;
  Name left() const;
  Name right() const;
  Name iterBase() const;
  uint32_t iterCount() const;

  /// Hash-consing makes structural equality pointer (id) equality.
  bool operator==(const Name &O) const { return Id == O.Id; }
  bool operator!=(const Name &O) const { return Id != O.Id; }
  /// Total order: by hash, tie-broken structurally (deterministic, and
  /// identical to the pre-interning structural order).
  bool operator<(const Name &O) const;

  std::string toString() const;

private:
  NameId Id = kNoName;
  uint64_t H = 0; ///< The id's structural hash, mirrored out of the table.

  Name(NameId I, uint64_t H) : Id(I), H(H) {}
  friend class NameTable;
};

/// The process-global hash-consing table backing Name (see the file header
/// for the lifetime/thread-safety contract).
class NameTable {
public:
  /// One interned node: slab-resident plain data. L/R are child ids
  /// (kNoName when absent); A is the leaf payload / iteration count.
  struct Node {
    Name::Kind K;
    uint64_t A = 0; ///< Loc id / integer / iter count.
    NameId L = kNoName, R = kNoName;
    uint64_t Hash = 0; ///< Precomputed structural hash.
  };

  /// Slab geometry: nodes live in fixed 64Ki-node chunks that are CAS-
  /// published once and never relocated, so node() needs no lock even while
  /// other threads intern. 2^14 chunk pointers bound the table at 2^30
  /// names (the dense-id space is 32-bit anyway).
  static constexpr unsigned kChunkShift = 16;
  static constexpr size_t kChunkSize = size_t(1) << kChunkShift;
  static constexpr size_t kChunkMask = kChunkSize - 1;
  static constexpr size_t kMaxChunks = size_t(1) << 14;
  /// Dedup-index shards, selected by the high bits of the probe hash,
  /// mix64(structural hash) (its low bits drive the in-shard probe
  /// sequence; see the file comment).
  static constexpr unsigned kNumShards = 16;

  static NameTable &global() {
    static NameTable Table;
    return Table;
  }

  /// Canonicalizes (K, A, L, R): returns the existing id when the node was
  /// seen before, otherwise appends a node with structural hash \p Hash.
  /// Safe to call concurrently; equal tuples hash equal, land in the same
  /// shard, and serialize on its mutex, so each distinct tuple gets exactly
  /// one id.
  NameId intern(Name::Kind K, uint64_t A, NameId L, NameId R, uint64_t Hash);

  /// Slab access; \p Id must be a valid id obtained from intern().
  /// Lock-free: the chunk pointer is an acquire load and chunks never move.
  const Node &node(NameId Id) const {
    return Chunks[Id >> kChunkShift].load(std::memory_order_acquire)
        [Id & kChunkMask];
  }

  /// Number of distinct names interned so far (monotone; under concurrent
  /// interning this counts ids HANDED OUT, some of which may still be
  /// mid-publication in another thread — use it as a count, not as an
  /// iteration bound).
  size_t size() const { return NextId.load(std::memory_order_acquire); }

private:
  NameTable();
  ~NameTable();

  /// One dedup-index shard: open-addressing (linear probing) over
  /// (probe hash, id) pairs, power-of-two capacity, ≤ 70% load.
  /// Interning sits on the hot path of every query/edit, and a node-based
  /// unordered_map pays two dependent cache misses plus a heap allocation
  /// per unique name where this flat table pays one line per probe and
  /// none — measured as the difference between the interned name layer
  /// beating the shared_ptr trees and losing to them. kNoName marks an
  /// empty slot. Sharding by hash keeps concurrent interning of unrelated
  /// names uncontended while serializing equal tuples.
  struct Shard {
    std::mutex M;
    std::vector<std::pair<uint64_t, NameId>> Slots;
    size_t SlotMask = 0;
    size_t Count = 0; ///< Occupied slots (drives the load-factor rehash).
  };

  /// Rehash \p S to the next capacity; caller holds S.M.
  void growShard(Shard &S);
  /// Returns the chunk holding \p Id, allocating and CAS-publishing it on
  /// first use (the losing allocator frees its copy).
  Node *chunkFor(NameId Id);

  /// Segmented slab storage, indexed by NameId via (chunk, offset).
  std::unique_ptr<std::atomic<Node *>[]> Chunks;
  std::atomic<uint32_t> NextId{0};
  std::array<Shard, kNumShards> Shards;
  /// Footprint bookkeeping for the NameTableBytes gauge.
  std::atomic<uint64_t> ChunkCount{0};
  std::atomic<uint64_t> SlotBytes{0};
};

struct NameHash {
  size_t operator()(const Name &N) const { return N.hash(); }
};

inline Name::Kind Name::kind() const {
  return Id == kNoName ? Kind::Invalid : NameTable::global().node(Id).K;
}

} // namespace dai

#endif // DAI_DAIG_NAME_H
