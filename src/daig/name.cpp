//===-- daig/name.cpp - DAIG name algebra ---------------------------------===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "daig/name.h"

#include "support/hashing.h"
#include "support/statistics.h"

#include <cassert>
#include <sstream>

using namespace dai;

const char *dai::fnKindName(FnKind F) {
  switch (F) {
  case FnKind::Transfer: return "transfer";
  case FnKind::Join: return "join";
  case FnKind::Widen: return "widen";
  case FnKind::Fix: return "fix";
  }
  assert(false && "unknown function kind");
  return "?";
}

namespace {

uint64_t leafHash(Name::Kind K, uint64_t A) {
  return hashValues(static_cast<uint64_t>(K) + 0x51ULL, A);
}

} // namespace

//===----------------------------------------------------------------------===//
// NameTable
//===----------------------------------------------------------------------===//

NameTable::NameTable()
    : Chunks(new std::atomic<Node *>[kMaxChunks]()) {}

NameTable::~NameTable() {
  for (size_t I = 0; I < kMaxChunks; ++I)
    delete[] Chunks[I].load(std::memory_order_acquire);
}

void NameTable::growShard(Shard &S) {
  size_t NewCap = S.Slots.empty() ? 512 : S.Slots.size() * 2;
  std::vector<std::pair<uint64_t, NameId>> Old = std::move(S.Slots);
  S.Slots.assign(NewCap, {0, kNoName});
  S.SlotMask = NewCap - 1;
  SlotBytes.fetch_add((NewCap - Old.size()) * sizeof(S.Slots[0]),
                      std::memory_order_relaxed);
  for (const auto &[Probe, Id] : Old) {
    if (Id == kNoName)
      continue;
    size_t Idx = Probe & S.SlotMask;
    while (S.Slots[Idx].second != kNoName)
      Idx = (Idx + 1) & S.SlotMask;
    S.Slots[Idx] = {Probe, Id};
  }
}

NameTable::Node *NameTable::chunkFor(NameId Id) {
  size_t CI = Id >> kChunkShift;
  assert(CI < kMaxChunks && "name table overflow");
  std::atomic<Node *> &Slot = Chunks[CI];
  Node *P = Slot.load(std::memory_order_acquire);
  if (P)
    return P;
  Node *Fresh = new Node[kChunkSize];
  Node *Expected = nullptr;
  if (Slot.compare_exchange_strong(Expected, Fresh,
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    ChunkCount.fetch_add(1, std::memory_order_relaxed);
    return Fresh;
  }
  // Another thread published this chunk first; use theirs.
  delete[] Fresh;
  return Expected;
}

NameId NameTable::intern(Name::Kind K, uint64_t A, NameId L, NameId R,
                         uint64_t Hash) {
  AtomicNameTableCounters &C = nameTableCountersAtomic();
  // The probe hash is mix64 of the structural hash, a deterministic function
  // of (K, A, L, R) because the children are themselves interned. Equal
  // tuples always land in the same shard and probe chain; hash collisions
  // between distinct tuples are resolved by the field compare. mix64 is a
  // bijection, so slots keep the probe hash and compare it directly.
  uint64_t Probe = mix64(Hash);
  Shard &S = Shards[(Probe >> 60) & (kNumShards - 1)];
  std::lock_guard<std::mutex> G(S.M);
  if (S.Slots.empty())
    growShard(S);
  size_t Idx = Probe & S.SlotMask;
  uint64_t Extra = 0; // slots examined past the first
  NameId Found = kNoName;
  for (;; Idx = (Idx + 1) & S.SlotMask, ++Extra) {
    const auto &[SlotProbe, SlotId] = S.Slots[Idx];
    if (SlotId == kNoName)
      break;
    if (SlotProbe == Probe) {
      const Node &N = node(SlotId);
      if (N.K == K && N.A == A && N.L == L && N.R == R) {
        Found = SlotId;
        break;
      }
    }
  }
  if (Extra)
    C.InternExtraProbes.fetch_add(Extra, std::memory_order_relaxed);
  if (Found != kNoName) {
    C.InternHits.fetch_add(1, std::memory_order_relaxed);
    return Found;
  }
  // Miss: draw a fresh dense id from the global counter and write the node
  // into its (never-relocating) chunk slot. The id becomes visible to other
  // threads only through synchronizing channels — this shard's slot array
  // (below, under S.M), the returned value, or a cross-thread handoff —
  // each of which orders the field writes before any node() read.
  NameId Id = NextId.fetch_add(1, std::memory_order_relaxed);
  assert(Id < kNoName && "name table overflow");
  Node &N = chunkFor(Id)[Id & kChunkMask];
  N.K = K;
  N.A = A;
  N.L = L;
  N.R = R;
  N.Hash = Hash;
  S.Slots[Idx] = {Probe, Id};
  ++S.Count;
  C.NamesInterned.fetch_add(1, std::memory_order_relaxed);
  if ((S.Count + 1) * 10 > S.Slots.size() * 7)
    growShard(S);
  // Footprint gauge: allocated chunks plus the dedup slot arrays.
  C.NameTableBytes.store(ChunkCount.load(std::memory_order_relaxed) *
                                 kChunkSize * sizeof(Node) +
                             SlotBytes.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  return Id;
}

//===----------------------------------------------------------------------===//
// Constructors
//===----------------------------------------------------------------------===//

Name Name::loc(Loc L) {
  uint64_t H = leafHash(Kind::Loc, L);
  return Name(NameTable::global().intern(Kind::Loc, L, kNoName, kNoName, H),
              H);
}

Name Name::num(uint64_t V) {
  uint64_t H = leafHash(Kind::Num, V);
  return Name(NameTable::global().intern(Kind::Num, V, kNoName, kNoName, H),
              H);
}

Name Name::pair(const Name &L, const Name &R) {
  assert(L.valid() && R.valid() && "pair requires valid components");
  uint64_t H = hashCombine(hashCombine(0x9a17ULL, L.hash()), R.hash());
  return Name(NameTable::global().intern(Kind::Pair, 0, L.Id, R.Id, H), H);
}

Name Name::iter(const Name &Base, uint32_t Count) {
  assert(Base.valid() && "iter requires a valid base");
  uint64_t H = hashCombine(hashCombine(0x17e8ULL, Base.hash()), Count);
  return Name(NameTable::global().intern(Kind::Iter, Count, Base.Id, kNoName,
                                         H),
              H);
}

//===----------------------------------------------------------------------===//
// Accessors
//===----------------------------------------------------------------------===//

namespace {

const NameTable::Node &nodeOf(NameId Id) {
  assert(Id != kNoName && "accessor on an invalid Name");
  return NameTable::global().node(Id);
}

} // namespace

Loc Name::locId() const {
  const NameTable::Node &N = nodeOf(Id);
  assert(N.K == Kind::Loc && "not a location name");
  return static_cast<Loc>(N.A);
}

uint64_t Name::numValue() const {
  const NameTable::Node &N = nodeOf(Id);
  assert(N.K == Kind::Num && "not a numeric name");
  return N.A;
}

Name Name::left() const {
  const NameTable::Node &N = nodeOf(Id);
  assert(N.K == Kind::Pair && "not a product name");
  return Name(N.L, NameTable::global().node(N.L).Hash);
}

Name Name::right() const {
  const NameTable::Node &N = nodeOf(Id);
  assert(N.K == Kind::Pair && "not a product name");
  return Name(N.R, NameTable::global().node(N.R).Hash);
}

Name Name::iterBase() const {
  const NameTable::Node &N = nodeOf(Id);
  assert(N.K == Kind::Iter && "not an iteration name");
  return Name(N.L, NameTable::global().node(N.L).Hash);
}

uint32_t Name::iterCount() const {
  const NameTable::Node &N = nodeOf(Id);
  assert(N.K == Kind::Iter && "not an iteration name");
  return static_cast<uint32_t>(N.A);
}

//===----------------------------------------------------------------------===//
// Ordering and printing
//===----------------------------------------------------------------------===//

namespace {

/// Structural comparison over interned ids — the pre-interning nodeCompare
/// verbatim, with the pointer-identity fast path replaced by id identity
/// (hash-consing makes them equivalent: equal ids iff equal trees).
int nodeCompare(NameId A, NameId B) {
  if (A == B)
    return 0;
  if (A == kNoName)
    return -1;
  if (B == kNoName)
    return 1;
  const NameTable &T = NameTable::global();
  const NameTable::Node &NA = T.node(A);
  const NameTable::Node &NB = T.node(B);
  if (NA.K != NB.K)
    return NA.K < NB.K ? -1 : 1;
  if (NA.A != NB.A)
    return NA.A < NB.A ? -1 : 1;
  if (int C = nodeCompare(NA.L, NB.L))
    return C;
  return nodeCompare(NA.R, NB.R);
}

std::string nodeToString(NameId Id) {
  if (Id == kNoName)
    return "<invalid>";
  const NameTable::Node &N = NameTable::global().node(Id);
  std::ostringstream OS;
  switch (N.K) {
  case Name::Kind::Loc:
    OS << "l" << N.A;
    break;
  case Name::Kind::Num:
    OS << N.A;
    break;
  case Name::Kind::Pair:
    OS << nodeToString(N.L) << "." << nodeToString(N.R);
    break;
  case Name::Kind::Iter:
    OS << nodeToString(N.L) << "(" << N.A << ")";
    break;
  case Name::Kind::Invalid: // interned nodes are never Invalid
    break;
  }
  return OS.str();
}

} // namespace

bool Name::operator<(const Name &O) const {
  if (Id == O.Id)
    return false;
  uint64_t HA = hash(), HB = O.hash();
  if (HA != HB)
    return HA < HB;
  return nodeCompare(Id, O.Id) < 0;
}

std::string Name::toString() const { return nodeToString(Id); }
