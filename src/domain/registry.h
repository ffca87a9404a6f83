//===-- domain/registry.h - Type-erased domain registry ---------*- C++ -*-===//
//
// Part of dai-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime domain selection for the demanded-evaluation stack (clam's
/// `DomainRegistry` / `clam_abstract_domain` lineage). Three pieces:
///
///  - DomainVTable / DomainRegistry: one vtable per registered domain
///    (string key → erased operation table), built once at first use. Every
///    compile-time AbstractDomain policy is adapted by registry.cpp.
///
///  - AnyDomain: a stateless policy (satisfies AbstractDomain, so `Daig`,
///    `InterprocEngine`, and the checker instantiate against it like any
///    other domain) whose Elem is a type-erased value: a vtable pointer
///    plus a shared_ptr to the concrete immutable state. Operations on
///    same-domain values delegate 1:1 — with a bound default and no
///    per-function policy, an AnyDomain run is bit-identical (states,
///    hashes, memo hit patterns, counters, verdicts) to the direct
///    template instantiation; the erasure-transparency test pins this.
///
///  - FunctionDomainPolicy: per-function domain choice (function symbol →
///    domain key, with a cost-policy default), resolved at enterCall /
///    instance creation. Cross-domain boundaries convert through an
///    IntervalState "box" (each domain's sound convex projection), so a
///    zone caller can invoke a shape callee and back without UB.
///
/// Erasure contract (pinned by regression tests):
///  - equal() on values of different concrete domains is FALSE — even for
///    two bottoms — never UB. Convergence loops only ever compare values
///    produced by the same instance, so the type tag costs nothing.
///  - hash() mixes the registry key's hash into the concrete hash, so memo
///    keys are type-tagged (no cross-domain Q-Match confusion) while the
///    remap stays injective per domain (hit/miss patterns are preserved).
///  - join/widen convert the right operand into the LEFT operand's domain
///    via the box (over-approximating, hence sound); leq converts the left
///    operand into the RIGHT's (over(A) ⊑ B implies A ⊑ B).
///
//===----------------------------------------------------------------------===//

#ifndef DAI_DOMAIN_REGISTRY_H
#define DAI_DOMAIN_REGISTRY_H

#include "domain/abstract_domain.h"
#include "domain/interval.h"
#include "lang/stmt.h"
#include "support/symbol.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dai {

/// The erased operation table for one registered domain. Concrete states
/// are held behind shared_ptr<const void> (domain values are immutable once
/// built, so sharing is safe and copies are O(1)).
struct DomainVTable {
  using Ptr = std::shared_ptr<const void>;

  const char *Key;        ///< Registry key ("zone", "arr_interval", ...).
  const char *DomainName; ///< The adapted policy's D::name().
  uint64_t KeyHash;       ///< Mixed into AnyDomain::hash (type tag).

  Ptr (*MakeBottom)();
  Ptr (*MakeInitialEntry)(const std::vector<std::string> &Params);
  Ptr (*Transfer)(const Stmt &S, const Ptr &In);
  Ptr (*Join)(const Ptr &A, const Ptr &B);
  Ptr (*Widen)(const Ptr &Prev, const Ptr &Next);
  bool (*Leq)(const Ptr &A, const Ptr &B);
  bool (*Equal)(const Ptr &A, const Ptr &B);
  uint64_t (*Hash)(const Ptr &A);
  std::string (*ToString)(const Ptr &A);
  bool (*IsBottom)(const Ptr &A);
  Ptr (*EnterCall)(const Ptr &Caller, const Stmt &CallSite,
                   const std::vector<std::string> &CalleeParams);
  Ptr (*ExitCall)(const Ptr &Caller, const Ptr &CalleeExit,
                  const Stmt &CallSite);
  /// Sound convex projection into the interval "box" (the cross-domain
  /// interchange format); ⊥ maps to the ⊥ box.
  IntervalState (*ToBox)(const Ptr &A);
  /// Sound embedding of a box (⊒ the box's concretization); exact for the
  /// interval-shaped domains, assume-chain refinement for the rest.
  Ptr (*FromBox)(const IntervalState &Box);
};

/// String key → vtable. Built-in domains register in the constructor, so
/// enumeration is deterministic and no static-initialization-order games
/// are needed; instance() is cheap after first use.
class DomainRegistry {
public:
  static DomainRegistry &instance();

  /// nullptr if \p Key is not registered.
  const DomainVTable *find(const std::string &Key) const;

  /// All registered keys, sorted (the conformance harness enumerates this).
  std::vector<std::string> keys() const;

private:
  DomainRegistry();
  std::map<std::string, const DomainVTable *> Table;
};

/// A type-erased abstract value: the vtable of its concrete domain plus the
/// concrete state. Default-constructed values carry no vtable and behave as
/// ⊥ of the bound default domain (every AnyDomain operation normalizes
/// them before dispatch).
struct AnyVal {
  const DomainVTable *Ops = nullptr;
  DomainVTable::Ptr V;
};

/// Per-function domain choice: function symbol → vtable, plus a cost-policy
/// default for unmapped functions. Resolved by AnyDomain::enterCall and by
/// the interprocedural engine's instance creation (initialEntryFor).
class FunctionDomainPolicy {
public:
  /// Maps \p Fn to registered domain \p Key. Returns false (and changes
  /// nothing) if the key is unknown.
  bool set(const std::string &Fn, const std::string &Key);
  /// The default for functions not in the map; unset falls through to the
  /// process-wide bound default.
  bool setDefault(const std::string &Key);

  /// The vtable for \p Fn under this policy, or \p Fallback when neither a
  /// mapping nor a policy default applies.
  const DomainVTable *resolve(SymbolId Fn, const DomainVTable *Fallback) const;

private:
  std::map<SymbolId, const DomainVTable *> PerFn;
  const DomainVTable *Default = nullptr;
};

/// Installs \p P as the process-global policy consulted by AnyDomain
/// (nullptr uninstalls). The caller keeps ownership; install before the
/// engine runs — the policy is read concurrently by parallel workers.
void installFunctionDomainPolicy(const FunctionDomainPolicy *P);
const FunctionDomainPolicy *installedFunctionDomainPolicy();

/// RAII policy installation for tests and benches.
class FunctionDomainPolicyScope {
public:
  explicit FunctionDomainPolicyScope(const FunctionDomainPolicy *P)
      : Saved(installedFunctionDomainPolicy()) {
    installFunctionDomainPolicy(P);
  }
  ~FunctionDomainPolicyScope() { installFunctionDomainPolicy(Saved); }
  FunctionDomainPolicyScope(const FunctionDomainPolicyScope &) = delete;
  FunctionDomainPolicyScope &operator=(const FunctionDomainPolicyScope &) =
      delete;

private:
  const FunctionDomainPolicy *Saved;
};

/// The runtime-selectable domain policy (satisfies AbstractDomain). All
/// values materialized by bottom()/initialEntry() are typed with the bound
/// default domain ("interval" until bindDefault is called); per-function
/// typing comes from the installed FunctionDomainPolicy at call boundaries.
struct AnyDomain {
  using Elem = AnyVal;

  static Elem bottom();
  static Elem initialEntry(const std::vector<std::string> &Params);
  /// Policy-aware entry seed: the interprocedural engine prefers this
  /// overload at instance creation, so per-function domain choice applies
  /// to root/seeded instances too, not only to demanded callees.
  static Elem initialEntryFor(SymbolId Fn,
                              const std::vector<std::string> &Params);
  static Elem transfer(const Stmt &S, const Elem &In);
  static Elem join(const Elem &A, const Elem &B);
  static Elem widen(const Elem &Prev, const Elem &Next);
  static bool leq(const Elem &A, const Elem &B);
  static bool equal(const Elem &A, const Elem &B);
  static uint64_t hash(const Elem &A);
  static std::string toString(const Elem &A);
  /// The bound default's registry key (what bench rows report).
  static const char *name();
  static bool isBottom(const Elem &A);

  static Elem enterCall(const Elem &Caller, const Stmt &CallSite,
                        const std::vector<std::string> &CalleeParams);
  static Elem exitCall(const Elem &Caller, const Elem &CalleeExit,
                       const Stmt &CallSite);

  /// Binds the process-wide default domain (false if \p Key is unknown).
  /// Bind before analysis threads start; parallel workers only read it.
  static bool bindDefault(const std::string &Key);
  static const DomainVTable *boundDefault();

  /// Wraps a concrete state of registered domain \p Key (test helper;
  /// nullptr vtable — i.e. unknown key — is the caller's bug).
  static Elem wrap(const DomainVTable *VT, DomainVTable::Ptr V) {
    return {VT, std::move(V)};
  }
};

static_assert(true); // AnyDomain's AbstractDomain conformance is asserted in
                     // registry.cpp, after the policy is complete.

/// RAII default-domain binding for tests and benches.
class AnyDomainDefaultScope {
public:
  explicit AnyDomainDefaultScope(const std::string &Key)
      : Saved(AnyDomain::boundDefault()) {
    Ok = AnyDomain::bindDefault(Key);
  }
  ~AnyDomainDefaultScope() {
    if (Saved)
      AnyDomain::bindDefault(Saved->Key);
  }
  bool ok() const { return Ok; }
  AnyDomainDefaultScope(const AnyDomainDefaultScope &) = delete;
  AnyDomainDefaultScope &operator=(const AnyDomainDefaultScope &) = delete;

private:
  const DomainVTable *Saved;
  bool Ok = false;
};

} // namespace dai

#endif // DAI_DOMAIN_REGISTRY_H
