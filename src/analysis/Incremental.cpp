//===- analysis/Incremental.cpp -------------------------------------------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "analysis/Incremental.h"

#include "abstract/AbstractHistory.h"
#include "analysis/Analyzer.h"
#include "ssg/SSG.h"
#include "support/Fingerprint.h"
#include "unfold/Unfolder.h"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

using namespace c4;

namespace {

constexpr const char *SnapshotHeader = "c4-incr-snapshot 3";

/// Strict reader of the space-separated integers on one line.
class Fields {
public:
  explicit Fields(const char *Line) : P(Line) {}

  /// The next ` <integer>` in [Min, Max].
  std::optional<long long> num(long long Min, long long Max) {
    if (*P != ' ' || !(std::isdigit(static_cast<unsigned char>(P[1])) ||
                       (P[1] == '-' && std::isdigit(
                                           static_cast<unsigned char>(P[2])))))
      return std::nullopt;
    char *End = nullptr;
    errno = 0;
    long long V = std::strtoll(P + 1, &End, 10);
    if (errno == ERANGE || V < Min || V > Max)
      return std::nullopt;
    P = End;
    return V;
  }

  /// The next ` <word>` of exactly \p Len characters from '0'/'1'.
  std::optional<std::vector<bool>> bits(size_t Len) {
    if (*P != ' ')
      return std::nullopt;
    std::vector<bool> Out(Len);
    for (size_t I = 0; I != Len; ++I) {
      char C = P[1 + I];
      if (C != '0' && C != '1')
        return std::nullopt;
      Out[I] = C == '1';
    }
    P += 1 + Len;
    return Out;
  }

  /// The next ` <c>`.
  bool chr(char C) {
    if (P[0] != ' ' || P[1] != C)
      return false;
    P += 2;
    return true;
  }

  bool atEnd() const { return *P == 0; }

private:
  const char *P;
};

constexpr long long MaxU32 = 0xFFFFFFFFll;

void appendWitness(std::string &Out, const WitnessModel &W) {
  Out += 'w';
  auto Num = [&Out](long long V) {
    Out += ' ';
    Out += std::to_string(V);
  };
  Num(W.Cycle);
  Num(static_cast<long long>(W.TxnPresent.size()));
  for (size_t T = 0; T != W.TxnPresent.size(); ++T) {
    Num(W.TxnPresent[T]);
    Num(W.TxnPos[T]);
  }
  Out += ' ';
  for (const std::vector<bool> &Row : W.Vis)
    for (bool B : Row)
      Out += B ? '1' : '0';
  Num(static_cast<long long>(W.EvPresent.size()));
  for (size_t E = 0; E != W.EvPresent.size(); ++E) {
    Num(W.EvPresent[E]);
    Num(W.EvPos[E]);
    Num(static_cast<long long>(W.Vals[E].size()));
    for (int64_t V : W.Vals[E])
      Num(V);
  }
  Out += '\n';
}

/// Parses a line written by appendWitness().
std::optional<WitnessModel> parseWitness(const std::string &Line) {
  if (Line.empty() || Line[0] != 'w')
    return std::nullopt;
  Fields F(Line.c_str() + 1);
  WitnessModel W;
  auto Cycle = F.num(0, MaxU32);
  auto NT = F.num(1, 1 << 12);
  if (!Cycle || !NT)
    return std::nullopt;
  W.Cycle = static_cast<unsigned>(*Cycle);
  for (long long T = 0; T != *NT; ++T) {
    auto Present = F.num(0, 1);
    auto Pos = F.num(LLONG_MIN, LLONG_MAX);
    if (!Present || !Pos)
      return std::nullopt;
    W.TxnPresent.push_back(*Present != 0);
    W.TxnPos.push_back(*Pos);
  }
  auto Vis = F.bits(static_cast<size_t>(*NT * *NT));
  if (!Vis)
    return std::nullopt;
  for (long long S = 0; S != *NT; ++S)
    W.Vis.emplace_back(Vis->begin() + S * *NT, Vis->begin() + (S + 1) * *NT);
  auto NE = F.num(0, 1 << 20);
  if (!NE)
    return std::nullopt;
  for (long long E = 0; E != *NE; ++E) {
    auto Present = F.num(0, 1);
    auto Pos = F.num(LLONG_MIN, LLONG_MAX);
    auto NV = F.num(0, 1 << 10);
    if (!Present || !Pos || !NV)
      return std::nullopt;
    W.EvPresent.push_back(*Present != 0);
    W.EvPos.push_back(*Pos);
    W.Vals.emplace_back();
    for (long long I = 0; I != *NV; ++I) {
      auto V = F.num(LLONG_MIN, LLONG_MAX);
      if (!V)
        return std::nullopt;
      W.Vals.back().push_back(*V);
    }
  }
  if (!F.atEnd())
    return std::nullopt;
  return W;
}

} // namespace

std::string c4::txnContentDigest(const AbstractHistory &A, unsigned T) {
  const AbstractTxn &Txn = A.txn(T);
  // Global event id -> position within this transaction. Every event
  // reference in the digest goes through this map, so the digest is
  // unaffected by how many events *other* transactions contribute to the
  // global numbering.
  std::unordered_map<unsigned, unsigned> Local;
  Local.reserve(Txn.Events.size());
  for (unsigned I = 0; I != Txn.Events.size(); ++I)
    Local.emplace(Txn.Events[I], I);
  auto LocalId = [&Local](unsigned E) -> uint64_t {
    auto It = Local.find(E);
    // References outside the transaction cannot occur by construction;
    // treat one defensively as a distinct out-of-band value.
    return It == Local.end() ? ~uint64_t{0} : It->second;
  };

  Fingerprint F;
  F.addStr("c4-txn-digest-1");
  F.addU64(Txn.Events.size());
  for (unsigned E : Txn.Events) {
    const AbstractEvent &Ev = A.event(E);
    F.addU64(Ev.Container);
    F.addU64(Ev.Op);
    F.addBool(Ev.Display);
    F.addStr(Ev.Label);
    F.addU64(Ev.Facts.size());
    for (const AbsFact &Fact : Ev.Facts) {
      F.addU64(static_cast<uint64_t>(Fact.Kind));
      F.addI64(Fact.Value);
      // A FreshVar fact names its creator *event*; localize it like the
      // constraint endpoints. Local/global variable ids are program-level
      // names shared across transactions and stay as-is.
      if (Fact.Kind == AbsFact::FreshVar)
        F.addU64(LocalId(Fact.Var));
      else
        F.addU64(Fact.Var);
    }
  }
  auto AddConstraints = [&](const std::vector<AbstractConstraint> &Cs) {
    F.addU64(Cs.size());
    for (const AbstractConstraint &C : Cs) {
      F.addU64(LocalId(C.Src));
      F.addU64(LocalId(C.Tgt));
      F.addStr(C.C.str());
    }
  };
  AddConstraints(Txn.Eo);
  AddConstraints(Txn.Invs);
  return F.digest();
}

std::string c4::incrementalContextDigest(const AbstractHistory &A,
                                         const AnalyzerOptions &O,
                                         const std::vector<bool> &Mask) {
  Fingerprint F;
  F.addStr("c4-incr-ctx-1");
  F.addU64(kSpecRevision);

  // Schema: the digested container/op ids below are indices into it.
  const Schema &S = A.schema();
  F.addU64(S.numContainers());
  for (unsigned C = 0; C != S.numContainers(); ++C) {
    const ContainerDecl &D = S.container(C);
    F.addStr(D.Name);
    F.addStr(D.Type->name());
    F.addU64(D.Type->ops().size());
    for (const OpSig &Op : D.Type->ops()) {
      F.addStr(Op.Name);
      F.addU64(static_cast<uint64_t>(Op.Kind));
      F.addU64(Op.NumArgs);
      F.addBool(Op.HasRet);
      F.addBool(Op.Fresh);
    }
  }
  // Variable ids in the per-transaction fact digests are program-level
  // names; the counts pin the numbering universe.
  F.addU64(A.numLocalVars());
  F.addU64(A.numGlobalVars());
  // The run's event mask (display filter / atomic set): masked events
  // change SSG edges and hence candidate sets and formulas.
  F.addU64(Mask.size());
  for (bool B : Mask)
    F.addBool(B);

  // Options shaping the per-query formula, outcome or replayed counters.
  // Enumeration-level knobs (MaxK, MaxUnfoldings, deadlines) are absent:
  // records are per-unfolding and do not depend on how many unfoldings a
  // run enumerates.
  F.addBool(O.Features.Commutativity);
  F.addBool(O.Features.Absorption);
  F.addBool(O.Features.Constraints);
  F.addBool(O.Features.ControlFlow);
  F.addBool(O.Features.AsymmetricAntiDeps);
  F.addBool(O.Features.UniqueValues);
  F.addU64(O.MaxCandidateCycles);
  F.addU64(O.Budget.Rlimit);
  F.addU64(O.Budget.Escalation);
  F.addU64(O.Budget.MaxRetries);
  F.addU64(O.Budget.RlimitCap);
  F.addU64(O.Budget.WallMs);
  F.addBool(O.DisplayFilter);
  return F.digest();
}

std::string c4::unfoldingRecordKey(const std::string &Context,
                                   const Unfolding &U,
                                   const std::vector<CandidateCycle> &Cands,
                                   const char *Stage) {
  Fingerprint F;
  F.addStr("c4-incr-key-1");
  F.addStr(Context);
  F.addStr(Stage);
  F.addU64(U.NumSessions);
  F.addU64(U.H.numTxns());
  for (unsigned T = 0; T != U.H.numTxns(); ++T) {
    F.addU64(U.SessionTags[T]);
    F.addStr(txnContentDigest(U.H, T));
  }
  F.addU64(Cands.size());
  for (const CandidateCycle &C : Cands) {
    F.addBool(C.Closed);
    F.addU64(C.Txns.size());
    for (unsigned T : C.Txns)
      F.addU64(T);
    F.addU64(C.StepLabels.size());
    for (const std::vector<int> &Step : C.StepLabels) {
      F.addU64(Step.size());
      for (int L : Step)
        F.addI64(L);
    }
  }
  return F.digest();
}

//===----------------------------------------------------------------------===//
// Snapshot
//===----------------------------------------------------------------------===//

void IncrementalSnapshot::merge(const IncrementalSnapshot &O) {
  TxnDigests.insert(O.TxnDigests.begin(), O.TxnDigests.end());
  for (const auto &[Key, Rec] : O.Records)
    Records.emplace(Key, Rec);
}

std::string IncrementalSnapshot::serialize() const {
  std::string Out = SnapshotHeader;
  Out += '\n';
  Out += "txns " + std::to_string(TxnDigests.size()) + '\n';
  for (const std::string &D : TxnDigests) {
    Out += D;
    Out += '\n';
  }
  Out += "records " + std::to_string(Records.size()) + '\n';
  // One line per record: key, the replayed counters and the outcome —
  // `n` NoCycle, `c` CycleFound, `w` CycleFound with a witness line next.
  for (const auto &[Key, R] : Records) {
    Out += Key;
    for (uint64_t V :
         {uint64_t{R.Attempts}, uint64_t{R.CtxReuses}, R.RlimitBudget}) {
      Out += ' ';
      Out += std::to_string(V);
    }
    Out += !R.Cycle ? " n\n" : R.Witness ? " w\n" : " c\n";
    if (R.Cycle && R.Witness)
      appendWitness(Out, *R.Witness);
  }
  return Out;
}

std::optional<IncrementalSnapshot>
IncrementalSnapshot::deserialize(const std::string &B) {
  size_t Pos = 0;
  auto NextLine = [&]() -> std::optional<std::string> {
    if (Pos >= B.size())
      return std::nullopt;
    size_t NL = B.find('\n', Pos);
    if (NL == std::string::npos)
      return std::nullopt;
    std::string L = B.substr(Pos, NL - Pos);
    Pos = NL + 1;
    return L;
  };
  auto Count = [&](const char *Key) -> std::optional<unsigned long long> {
    auto L = NextLine();
    size_t KeyLen = std::strlen(Key);
    if (!L || L->size() < KeyLen + 2 || L->compare(0, KeyLen, Key) != 0 ||
        (*L)[KeyLen] != ' ')
      return std::nullopt;
    char *End = nullptr;
    errno = 0;
    unsigned long long N = std::strtoull(L->c_str() + KeyLen + 1, &End, 10);
    if (errno == ERANGE || !End || *End || N > 10000000ull)
      return std::nullopt;
    return N;
  };

  auto Header = NextLine();
  if (!Header || *Header != SnapshotHeader)
    return std::nullopt;
  IncrementalSnapshot S;
  auto NumTxns = Count("txns");
  if (!NumTxns)
    return std::nullopt;
  for (unsigned long long I = 0; I != *NumTxns; ++I) {
    auto D = NextLine();
    if (!D || D->empty())
      return std::nullopt;
    S.TxnDigests.insert(*D);
  }
  auto NumRecords = Count("records");
  if (!NumRecords)
    return std::nullopt;
  for (unsigned long long I = 0; I != *NumRecords; ++I) {
    auto L = NextLine();
    if (!L)
      return std::nullopt;
    size_t Sp = L->find(' ');
    if (Sp == std::string::npos || Sp == 0)
      return std::nullopt;
    Fields F(L->c_str() + Sp);
    auto Attempts = F.num(0, MaxU32);
    auto CtxReuses = F.num(0, MaxU32);
    auto Budget = F.num(0, LLONG_MAX);
    if (!Attempts || !CtxReuses || !Budget)
      return std::nullopt;
    IncrRecord R;
    R.Attempts = static_cast<unsigned>(*Attempts);
    R.CtxReuses = static_cast<unsigned>(*CtxReuses);
    R.RlimitBudget = static_cast<uint64_t>(*Budget);
    bool Witness = F.chr('w');
    R.Cycle = Witness || F.chr('c');
    if (!R.Cycle && !F.chr('n'))
      return std::nullopt;
    if (!F.atEnd())
      return std::nullopt;
    if (Witness) {
      auto W = NextLine();
      if (!W || !(R.Witness = parseWitness(*W)))
        return std::nullopt;
    }
    S.Records.emplace(L->substr(0, Sp), std::move(R));
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Store
//===----------------------------------------------------------------------===//

const IncrRecord *IncrementalStore::lookup(const std::string &Key) {
  const IncrRecord *Rec = Base ? Base->record(Key) : nullptr;
  if (Rec)
    Hits.fetch_add(1, std::memory_order_relaxed);
  else
    Misses.fetch_add(1, std::memory_order_relaxed);
  return Rec;
}

void IncrementalStore::record(const std::string &Key, IncrRecord Rec) {
  std::lock_guard<std::mutex> Lock(Mu);
  Fresh.emplace(Key, std::move(Rec));
}

void IncrementalStore::noteTxn(const std::string &Digest) {
  std::lock_guard<std::mutex> Lock(Mu);
  FreshTxns.insert(Digest);
}

void IncrementalStore::exportInto(IncrementalSnapshot &Out) const {
  std::lock_guard<std::mutex> Lock(Mu);
  for (const std::string &D : FreshTxns)
    Out.addTxn(D);
  for (const auto &[Key, Rec] : Fresh)
    Out.addRecord(Key, Rec);
}
