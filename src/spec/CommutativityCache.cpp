//===- spec/CommutativityCache.cpp ----------------------------------------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "spec/CommutativityCache.h"

#include <mutex>
#include <shared_mutex>

using namespace c4;

static size_t hashCombine(size_t Seed, size_t V) {
  // Boost-style mix; good enough for cache keys.
  return Seed ^ (V + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2));
}

size_t CommutativityOracle::CondKeyHash::operator()(const CondKey &K) const {
  size_t H = std::hash<const void *>()(K.Type);
  H = hashCombine(H, K.A);
  H = hashCombine(H, K.B);
  H = hashCombine(H, static_cast<size_t>(K.Sel));
  return H;
}

bool CommutativityOracle::SatKey::operator==(const SatKey &O) const {
  if (!(CK == O.CK) || Src.size() != O.Src.size() ||
      Tgt.size() != O.Tgt.size())
    return false;
  auto FactsEq = [](const EventFacts &X, const EventFacts &Y) {
    for (size_t I = 0; I != X.size(); ++I)
      if (X[I].Kind != Y[I].Kind || X[I].Value != Y[I].Value ||
          X[I].Symbol != Y[I].Symbol)
        return false;
    return true;
  };
  return FactsEq(Src, O.Src) && FactsEq(Tgt, O.Tgt);
}

size_t CommutativityOracle::SatKeyHash::operator()(const SatKey &K) const {
  size_t H = CondKeyHash()(K.CK);
  auto MixFacts = [&H](const EventFacts &F) {
    H = hashCombine(H, F.size());
    for (const ArgFact &A : F) {
      H = hashCombine(H, static_cast<size_t>(A.Kind));
      H = hashCombine(H, static_cast<size_t>(A.Value));
      H = hashCombine(H, A.Symbol);
    }
  };
  MixFacts(K.Src);
  MixFacts(K.Tgt);
  return H;
}

CommutativityOracle::CondSel
CommutativityOracle::notComSel(CommuteMode Mode) {
  switch (Mode) {
  case CommuteMode::Plain:
    return CondSel::NotComPlain;
  case CommuteMode::Far:
    return CondSel::NotComFar;
  case CommuteMode::Asym:
    break;
  }
  return CondSel::NotComAsym;
}

const Cond &CommutativityOracle::condFor(CondKey K) {
  {
    std::shared_lock<std::shared_mutex> Lock(CondMu);
    auto It = Conds.find(K);
    if (It != Conds.end()) {
      CondHits.fetch_add(1, std::memory_order_relaxed);
      return It->second;
    }
  }
  CondMisses.fetch_add(1, std::memory_order_relaxed);
  Cond C;
  switch (K.Sel) {
  case CondSel::NotComPlain:
    C = !commutesCond(*K.Type, K.A, K.B, CommuteMode::Plain);
    break;
  case CondSel::NotComFar:
    C = !commutesCond(*K.Type, K.A, K.B, CommuteMode::Far);
    break;
  case CondSel::NotComAsym:
    C = !commutesCond(*K.Type, K.A, K.B, CommuteMode::Asym);
    break;
  case CondSel::AbsPlain:
    C = absorbsCond(*K.Type, K.A, K.B, /*Far=*/false);
    break;
  case CondSel::AbsFar:
    C = absorbsCond(*K.Type, K.A, K.B, /*Far=*/true);
    break;
  case CondSel::NotAbsPlain:
    C = !absorbsCond(*K.Type, K.A, K.B, /*Far=*/false);
    break;
  case CondSel::NotAbsFar:
    C = !absorbsCond(*K.Type, K.A, K.B, /*Far=*/true);
    break;
  }
  std::unique_lock<std::shared_mutex> Lock(CondMu);
  // On a race, keep the first insertion (both computed the same condition).
  return Conds.try_emplace(K, std::move(C)).first->second;
}

const Cond &CommutativityOracle::notCommutes(const DataTypeSpec &Type,
                                             unsigned A, unsigned B,
                                             CommuteMode Mode) {
  return condFor({&Type, A, B, notComSel(Mode)});
}

const Cond &CommutativityOracle::absorbs(const DataTypeSpec &Type, unsigned A,
                                         unsigned B, bool Far) {
  return condFor({&Type, A, B, Far ? CondSel::AbsFar : CondSel::AbsPlain});
}

const Cond &CommutativityOracle::notAbsorbs(const DataTypeSpec &Type,
                                            unsigned A, unsigned B,
                                            bool Far) {
  return condFor(
      {&Type, A, B, Far ? CondSel::NotAbsFar : CondSel::NotAbsPlain});
}

bool CommutativityOracle::satisfiable(CondKey K, const EventFacts &Src,
                                      const EventFacts &Tgt) {
  SatKey SK{K, Src, Tgt};
  {
    std::shared_lock<std::shared_mutex> Lock(SatMu);
    auto It = Sats.find(SK);
    if (It != Sats.end()) {
      SatHits.fetch_add(1, std::memory_order_relaxed);
      return It->second;
    }
  }
  SatMisses.fetch_add(1, std::memory_order_relaxed);
  bool Verdict = condFor(K).satisfiableUnder(Src, Tgt);
  std::unique_lock<std::shared_mutex> Lock(SatMu);
  return Sats.try_emplace(std::move(SK), Verdict).first->second;
}

bool CommutativityOracle::notCommutesSatisfiable(
    const DataTypeSpec &Type, unsigned A, unsigned B, CommuteMode Mode,
    const EventFacts &Src, const EventFacts &Tgt) {
  return satisfiable({&Type, A, B, notComSel(Mode)}, Src, Tgt);
}

bool CommutativityOracle::notAbsorbsSatisfiable(
    const DataTypeSpec &Type, unsigned A, unsigned B, bool Far,
    const EventFacts &Src, const EventFacts &Tgt) {
  return satisfiable({&Type, A, B, Far ? CondSel::NotAbsFar : CondSel::NotAbsPlain},
                     Src, Tgt);
}

OracleStats CommutativityOracle::stats() const {
  OracleStats S;
  S.CondHits = CondHits.load(std::memory_order_relaxed);
  S.CondMisses = CondMisses.load(std::memory_order_relaxed);
  S.SatHits = SatHits.load(std::memory_order_relaxed);
  S.SatMisses = SatMisses.load(std::memory_order_relaxed);
  return S;
}
