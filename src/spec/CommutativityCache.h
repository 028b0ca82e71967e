//===- spec/CommutativityCache.h - Memoized rewrite-spec oracle -*- C++ -*-===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A shared, thread-safe oracle memoizing the two symbolic quantities every
/// analysis stage keeps recomputing:
///
///  1. the ¬commutes / absorbs / ¬absorbs `Cond` for an ordered operation
///     pair of one data type (`commutesCond` / `absorbsCond` build a fresh
///     condition tree on every call, and the analyzer asks for the same
///     `(type, opA, opB, mode)` tuple once per event pair per SSG — thousands
///     of times per run across unfoldings and merges), and
///
///  2. the `satisfiableUnder` verdict of such a condition under a pair of
///     resolved argument-fact vectors. The verdict depends only on the
///     condition and the two fact vectors (congruence closure sees symbol
///     *identities*, never their origin), so it is keyed by
///     `(cond key, source facts, target facts)` and valid across the run's
///     abstract histories, unfoldings and merges alike.
///
/// One oracle is constructed per `analyze()` call and threaded through the
/// SSG builder, the bounded-check loop and the SMT encoder; it lives for
/// that one run.
///
/// Thread-safety contract: all lookup methods may be called concurrently
/// (the parallel bounded check shares one oracle across workers). Lookups
/// take a shared lock; on a miss the value is computed outside any lock and
/// inserted under an exclusive lock (duplicated computation on a race is
/// harmless — both sides compute the same value). `Cond` references returned
/// by the cond accessors stay valid for the oracle's lifetime (node-based
/// map, no erasure). The hit/miss counters are relaxed atomics; `stats()`
/// gives a point-in-time snapshot.
///
//===----------------------------------------------------------------------===//

#ifndef C4_SPEC_COMMUTATIVITYCACHE_H
#define C4_SPEC_COMMUTATIVITYCACHE_H

#include "spec/Registry.h"

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <unordered_map>

namespace c4 {

/// Point-in-time snapshot of the oracle's cache counters.
struct OracleStats {
  uint64_t CondHits = 0;
  uint64_t CondMisses = 0;
  uint64_t SatHits = 0;
  uint64_t SatMisses = 0;
};

/// Memoizes rewrite-spec conditions and their satisfiability verdicts. See
/// the file comment for the thread-safety contract.
class CommutativityOracle {
public:
  CommutativityOracle() = default;
  CommutativityOracle(const CommutativityOracle &) = delete;
  CommutativityOracle &operator=(const CommutativityOracle &) = delete;

  /// The memoized `!commutesCond(Type, A, B, Mode)`.
  const Cond &notCommutes(const DataTypeSpec &Type, unsigned A, unsigned B,
                          CommuteMode Mode);

  /// The memoized `absorbsCond(Type, A, B, Far)`.
  const Cond &absorbs(const DataTypeSpec &Type, unsigned A, unsigned B,
                      bool Far);

  /// The memoized `!absorbsCond(Type, A, B, Far)`.
  const Cond &notAbsorbs(const DataTypeSpec &Type, unsigned A, unsigned B,
                         bool Far);

  /// Memoized `notCommutes(...).satisfiableUnder(Src, Tgt)`. The caller is
  /// expected to have short-circuited the constant-false case via
  /// notCommutes() (the verdict is still correct without, just slower).
  bool notCommutesSatisfiable(const DataTypeSpec &Type, unsigned A,
                              unsigned B, CommuteMode Mode,
                              const EventFacts &Src, const EventFacts &Tgt);

  /// Memoized `notAbsorbs(...).satisfiableUnder(Src, Tgt)`.
  bool notAbsorbsSatisfiable(const DataTypeSpec &Type, unsigned A, unsigned B,
                             bool Far, const EventFacts &Src,
                             const EventFacts &Tgt);

  OracleStats stats() const;

private:
  /// Which derived condition of the pair is meant. Values double as part of
  /// the hash key.
  enum class CondSel : uint8_t {
    NotComPlain,
    NotComFar,
    NotComAsym,
    AbsPlain,
    AbsFar,
    NotAbsPlain,
    NotAbsFar,
  };

  struct CondKey {
    const DataTypeSpec *Type;
    unsigned A;
    unsigned B;
    CondSel Sel;
    bool operator==(const CondKey &O) const {
      return Type == O.Type && A == O.A && B == O.B && Sel == O.Sel;
    }
  };
  struct CondKeyHash {
    size_t operator()(const CondKey &K) const;
  };

  struct SatKey {
    CondKey CK;
    EventFacts Src;
    EventFacts Tgt;
    bool operator==(const SatKey &O) const;
  };
  struct SatKeyHash {
    size_t operator()(const SatKey &K) const;
  };

  static CondSel notComSel(CommuteMode Mode);
  const Cond &condFor(CondKey K);
  bool satisfiable(CondKey K, const EventFacts &Src, const EventFacts &Tgt);

  mutable std::shared_mutex CondMu;
  std::unordered_map<CondKey, Cond, CondKeyHash> Conds;
  mutable std::shared_mutex SatMu;
  std::unordered_map<SatKey, bool, SatKeyHash> Sats;

  std::atomic<uint64_t> CondHits{0}, CondMisses{0};
  std::atomic<uint64_t> SatHits{0}, SatMisses{0};
};

} // namespace c4

#endif // C4_SPEC_COMMUTATIVITYCACHE_H
