//===- smt/Encoding.cpp ---------------------------------------------------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "smt/Encoding.h"

#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <optional>

using namespace c4;

namespace {

/// Fresh identities produced by add_row-style creators live above this
/// bound; program literals and interned strings stay below it. Shared with
/// the spec layer's congruence engine, which mirrors these axioms.
constexpr int64_t FreshMin = FreshValueMin;

class UnfoldingEncoder {
public:
  UnfoldingEncoder(const Unfolding &Unf, const SSG &Ssg,
                   const AnalysisFeatures &Feats, Z3Env &Env,
                   CommutativityOracle *CondOracle)
      : U(Unf), A(Unf.H), G(Ssg), F(Feats), Z(Env), Oracle(CondOracle) {}

  void encode(const std::vector<CandidateCycle> &Candidates);
  /// The chunk-independent part of the encoding: variables, orders,
  /// control flow, facts, fresh values, query values. Called once per
  /// solver context; successive candidate chunks are layered on top with
  /// encodeCycles() under push/pop (see LayoutSolver).
  void encodeBase();
  /// Encodes the cycle-selection constraints for one candidate chunk.
  /// Re-entrant across chunks: per-chunk selector state is reset, so the
  /// encoder may be reused after the chunk's scope is popped.
  void encodeCycles(const std::vector<CandidateCycle> &Candidates);
  /// Solves the encoded query. With \p CanonicalWitness the realized
  /// cycle of a sat result is minimized (see minimizeRealizedCycle);
  /// the extra re-checks are charged to \p T as context reuses.
  UnfoldingResult solve(bool CanonicalWitness = false,
                        SolveTelemetry *T = nullptr);

private:
  // --- variable construction -------------------------------------------
  void makeVariables();
  // --- constraint groups ------------------------------------------------
  void encodeOrders();
  void encodeControlFlow();
  void encodeFacts();
  void encodeFreshValues();
  void encodeQueryValues();
  // --- formula helpers --------------------------------------------------
  z3::expr argExpr(unsigned Event, unsigned Slot) const;
  z3::expr condZ3(const Cond &C, unsigned Src, unsigned Tgt) const;
  z3::expr termZ3(const Term &T, unsigned Src, unsigned Tgt) const;
  z3::expr arLess(unsigned EA, unsigned EB) const;
  z3::expr visTo(unsigned EA, unsigned EB) const;
  z3::expr notComZ3(unsigned EA, unsigned EB, CommuteMode Mode) const;
  z3::expr absZ3(unsigned EU, unsigned EV) const;
  z3::expr escape(unsigned EU, unsigned EQ) const;
  z3::expr edgeFormula(unsigned TS, unsigned TT, int Label) const;
  bool soBefore(unsigned TS, unsigned TT) const;

  /// Reads the name-free witness model out of a Z3 model.
  WitnessModel readModel(const z3::model &M) const;
  /// The result for a sat model: its witness and counter-example.
  UnfoldingResult cycleFound(const z3::model &M, bool Canonical) const;
  unsigned realizedCycle(const z3::model &M) const;
  bool minimizeRealizedCycle(z3::model &M, const z3::expr_vector &Assumptions,
                             SolveTelemetry *T);

  const Unfolding &U;
  const AbstractHistory &A;
  const SSG &G;
  const AnalysisFeatures &F;
  Z3Env &Z;
  CommutativityOracle *Oracle;

  std::vector<z3::expr> TxnPresent, TxnPos;
  std::vector<std::vector<z3::expr>> TVis; // [s][t], dummy on diagonal
  std::vector<z3::expr> EvPresent, EvPos;
  std::vector<std::vector<z3::expr>> Args; // [event][slot]; empty for markers
  std::vector<z3::expr> GlobalVars;
  std::vector<std::vector<z3::expr>> LocalVars; // [session][var]
  std::vector<z3::expr> CycleSel;
  std::vector<unsigned> UpdateEvents;
  // Per candidate, per step: picked-label booleans aligned with StepLabels.
  std::vector<std::vector<std::vector<z3::expr>>> Picks;
  const std::vector<CandidateCycle> *Cands = nullptr;
};

void UnfoldingEncoder::makeVariables() {
  z3::context &C = Z.ctx();
  for (unsigned T = 0; T != A.numTxns(); ++T) {
    TxnPresent.push_back(Z.boolConst(strf("txn%u.present", T)));
    TxnPos.push_back(Z.intConst(strf("txn%u.pos", T)));
  }
  for (unsigned S = 0; S != A.numTxns(); ++S) {
    TVis.emplace_back();
    for (unsigned T = 0; T != A.numTxns(); ++T)
      TVis[S].push_back(S == T ? Z.boolVal(false)
                               : Z.boolConst(strf("vis.%u.%u", S, T)));
  }
  for (unsigned E = 0; E != A.numEvents(); ++E) {
    EvPresent.push_back(Z.boolConst(strf("ev%u.present", E)));
    EvPos.push_back(Z.intConst(strf("ev%u.pos", E)));
    Args.emplace_back();
    if (!A.event(E).isMarker()) {
      for (unsigned I = 0, N = A.op(E).numVals(); I != N; ++I)
        Args[E].push_back(Z.intConst(strf("ev%u.a%u", E, I)));
      if (A.isUpdate(E))
        UpdateEvents.push_back(E);
    }
  }
  // Note: the unfolding's abstract history shares the original's variable
  // counts (facts reference original variable ids).
  for (unsigned V = 0; V != A.numGlobalVars(); ++V)
    GlobalVars.push_back(Z.intConst(strf("varG%u", V)));
  for (unsigned S = 0; S != U.NumSessions; ++S) {
    LocalVars.emplace_back();
    for (unsigned V = 0; V != A.numLocalVars(); ++V)
      LocalVars[S].push_back(Z.intConst(strf("varL.%u.%u", S, V)));
  }
  (void)C;
}

bool UnfoldingEncoder::soBefore(unsigned TS, unsigned TT) const {
  // Sessions are instantiated in chain order, so within one session the
  // earlier transaction has the smaller id.
  return TS != TT && U.SessionTags[TS] == U.SessionTags[TT] && TS < TT;
}

z3::expr UnfoldingEncoder::argExpr(unsigned Event, unsigned Slot) const {
  assert(Slot < Args[Event].size() && "slot out of range");
  return Args[Event][Slot];
}

z3::expr UnfoldingEncoder::termZ3(const Term &T, unsigned Src,
                                  unsigned Tgt) const {
  switch (T.Kind) {
  case Term::ArgSrc:
    return argExpr(Src, T.Index);
  case Term::ArgTgt:
    return argExpr(Tgt, T.Index);
  case Term::Const:
    break;
  }
  return const_cast<Z3Env &>(Z).intVal(T.Value);
}

z3::expr UnfoldingEncoder::condZ3(const Cond &C, unsigned Src,
                                  unsigned Tgt) const {
  Z3Env &ZM = const_cast<Z3Env &>(Z);
  switch (C.kind()) {
  case Cond::NodeKind::True:
    return ZM.boolVal(true);
  case Cond::NodeKind::False:
    return ZM.boolVal(false);
  case Cond::NodeKind::Atom: {
    z3::expr L = termZ3(C.atomLHS(), Src, Tgt);
    z3::expr R = termZ3(C.atomRHS(), Src, Tgt);
    switch (C.atomCmp()) {
    case CmpKind::Eq:
      return L == R;
    case CmpKind::Lt:
      return L < R;
    case CmpKind::Le:
      return L <= R;
    }
    return ZM.boolVal(false);
  }
  case Cond::NodeKind::Not:
    return !condZ3(C.children()[0], Src, Tgt);
  case Cond::NodeKind::And: {
    z3::expr R = ZM.boolVal(true);
    for (const Cond &Child : C.children())
      R = R && condZ3(Child, Src, Tgt);
    return R;
  }
  case Cond::NodeKind::Or: {
    z3::expr R = ZM.boolVal(false);
    for (const Cond &Child : C.children())
      R = R || condZ3(Child, Src, Tgt);
    return R;
  }
  }
  return ZM.boolVal(false);
}

z3::expr UnfoldingEncoder::arLess(unsigned EA, unsigned EB) const {
  unsigned TA = A.event(EA).Txn, TB = A.event(EB).Txn;
  if (TA == TB)
    return EvPos[EA] < EvPos[EB];
  return TxnPos[TA] < TxnPos[TB];
}

z3::expr UnfoldingEncoder::visTo(unsigned EA, unsigned EB) const {
  unsigned TA = A.event(EA).Txn, TB = A.event(EB).Txn;
  if (TA == TB)
    return EvPos[EA] < EvPos[EB]; // session order within the transaction
  return TVis[TA][TB];
}

z3::expr UnfoldingEncoder::notComZ3(unsigned EA, unsigned EB,
                                    CommuteMode Mode) const {
  Z3Env &ZM = const_cast<Z3Env &>(Z);
  const AbstractEvent &AE = A.event(EA);
  const AbstractEvent &BE = A.event(EB);
  if (AE.Container != BE.Container)
    return ZM.boolVal(false);
  if (!F.Commutativity)
    // Ablation: ¬com becomes a boolean — true iff satisfiable.
    return ZM.boolVal(G.mayInterfere(EA, EB, Mode));
  const DataTypeSpec &Type = *A.schema().container(AE.Container).Type;
  if (Oracle)
    return condZ3(Oracle->notCommutes(Type, AE.Op, BE.Op, Mode), EA, EB);
  Cond NotCom = !commutesCond(Type, AE.Op, BE.Op, Mode);
  return condZ3(NotCom, EA, EB);
}

z3::expr UnfoldingEncoder::absZ3(unsigned EU, unsigned EV) const {
  Z3Env &ZM = const_cast<Z3Env &>(Z);
  if (!F.Absorption)
    return ZM.boolVal(false);
  const AbstractEvent &UE = A.event(EU);
  const AbstractEvent &VE = A.event(EV);
  if (UE.Container != VE.Container)
    return ZM.boolVal(false);
  const DataTypeSpec &Type = *A.schema().container(UE.Container).Type;
  if (Oracle)
    return condZ3(Oracle->absorbs(Type, UE.Op, VE.Op, /*Far=*/true), EU, EV);
  Cond Abs = absorbsCond(Type, UE.Op, VE.Op, /*Far=*/true);
  return condZ3(Abs, EU, EV);
}

z3::expr UnfoldingEncoder::escape(unsigned EU, unsigned EQ) const {
  // (D1)/(D2) escape: some visible update v with u ▷ v and u ar→ v vı→ q.
  Z3Env &ZM = const_cast<Z3Env &>(Z);
  z3::expr R = ZM.boolVal(false);
  for (unsigned EV : UpdateEvents) {
    if (EV == EU || EV == EQ)
      continue;
    z3::expr Abs = absZ3(EU, EV);
    if (Abs.is_false())
      continue;
    R = R || (EvPresent[EV] && Abs && arLess(EU, EV) && visTo(EV, EQ));
  }
  return R;
}

z3::expr UnfoldingEncoder::edgeFormula(unsigned TS, unsigned TT,
                                       int Label) const {
  Z3Env &ZM = const_cast<Z3Env &>(Z);
  z3::expr R = ZM.boolVal(false);
  if (Label == DepSO) {
    if (soBefore(TS, TT))
      R = TxnPresent[TS] && TxnPresent[TT];
    return R;
  }
  // The event pairs that can realize the edge come from the SSG layer's
  // enumeration (ssg/SSG.h).
  for (const DepPairAlt &P : depPairAlternatives(A, TS, TT, Label, F)) {
    z3::expr NotCom = notComZ3(P.EU, P.EQ, P.Mode);
    if (NotCom.is_false())
      continue;
    switch (Label) {
    case DepDependency:
      R = R || (EvPresent[P.EU] && EvPresent[P.EQ] && visTo(P.EU, P.EQ) &&
                NotCom && !escape(P.EU, P.EQ));
      break;
    case DepAntiDep:
      R = R || (EvPresent[P.EU] && EvPresent[P.EQ] && !visTo(P.EU, P.EQ) &&
                NotCom && !escape(P.EU, P.EQ));
      break;
    case DepConflict:
      R = R || (EvPresent[P.EU] && EvPresent[P.EQ] && arLess(P.EU, P.EQ) &&
                NotCom);
      break;
    }
  }
  return R;
}

void UnfoldingEncoder::encodeOrders() {
  z3::solver &S = Z.solver();
  unsigned N = A.numTxns();
  // Distinct transaction positions.
  if (N > 1) {
    z3::expr_vector Positions(Z.ctx());
    for (unsigned T = 0; T != N; ++T)
      Positions.push_back(TxnPos[T]);
    S.add(z3::distinct(Positions));
  }
  for (unsigned TS = 0; TS != N; ++TS)
    for (unsigned TT = 0; TT != N; ++TT) {
      if (TS == TT)
        continue;
      // vı ⊆ ar.
      S.add(z3::implies(TVis[TS][TT], TxnPos[TS] < TxnPos[TT]));
      // so ⊆ vı when both transactions occur.
      if (soBefore(TS, TT))
        S.add(z3::implies(TxnPresent[TS] && TxnPresent[TT], TVis[TS][TT]));
      // Transitivity of vı.
      for (unsigned TU = 0; TU != N; ++TU) {
        if (TU == TS || TU == TT)
          continue;
        S.add(z3::implies(TVis[TS][TT] && TVis[TT][TU], TVis[TS][TU]));
      }
    }
}

void UnfoldingEncoder::encodeControlFlow() {
  z3::solver &S = Z.solver();
  for (unsigned T = 0; T != A.numTxns(); ++T) {
    const AbstractTxn &Txn = A.txn(T);
    if (!F.ControlFlow) {
      // Ablation: every event of a present transaction occurs, in
      // declaration order.
      for (unsigned I = 0; I != Txn.Events.size(); ++I) {
        unsigned E = Txn.Events[I];
        S.add(EvPresent[E] == TxnPresent[T]);
        S.add(EvPos[E] == Z.intVal(static_cast<int64_t>(I)));
      }
      continue;
    }
    S.add(EvPresent[A.entry(T)] == TxnPresent[T]);
    // Taken booleans per eo edge.
    std::vector<z3::expr> Taken;
    for (unsigned EI = 0; EI != Txn.Eo.size(); ++EI)
      Taken.push_back(
          Z.boolConst(strf("t%u.eo%u.taken", T, EI)));
    for (unsigned EI = 0; EI != Txn.Eo.size(); ++EI) {
      const AbstractConstraint &E = Txn.Eo[EI];
      z3::expr Guard = condZ3(E.C, E.Src, E.Tgt);
      S.add(z3::implies(Taken[EI],
                        EvPresent[E.Src] && Guard &&
                            EvPos[E.Src] < EvPos[E.Tgt]));
      // At most one outgoing / incoming taken edge per event: the present
      // events of a transaction form a path through eo.
      for (unsigned EJ = EI + 1; EJ != Txn.Eo.size(); ++EJ) {
        if (Txn.Eo[EJ].Src == E.Src)
          S.add(!(Taken[EI] && Taken[EJ]));
        if (Txn.Eo[EJ].Tgt == E.Tgt)
          S.add(!(Taken[EI] && Taken[EJ]));
      }
    }
    // Presence of non-entry events: exactly via an incoming taken edge.
    for (unsigned E : Txn.Events) {
      if (E == A.entry(T))
        continue;
      z3::expr In = Z.boolVal(false);
      for (unsigned EI = 0; EI != Txn.Eo.size(); ++EI)
        if (Txn.Eo[EI].Tgt == E)
          In = In || Taken[EI];
      S.add(EvPresent[E] == In);
    }
    // Transactions run to completion: a present event with eo successors
    // takes one of them (paths end only at eo leaves such as the exit
    // marker). Without this, partial transactions would manufacture
    // spurious anti-dependencies.
    for (unsigned E : Txn.Events) {
      z3::expr Out = Z.boolVal(false);
      bool HasSucc = false;
      for (unsigned EI = 0; EI != Txn.Eo.size(); ++EI)
        if (Txn.Eo[EI].Src == E) {
          HasSucc = true;
          Out = Out || Taken[EI];
        }
      if (HasSucc)
        S.add(z3::implies(EvPresent[E], Out));
    }
  }
}

void UnfoldingEncoder::encodeFacts() {
  if (!F.Constraints)
    return;
  z3::solver &S = Z.solver();
  for (unsigned E = 0; E != A.numEvents(); ++E) {
    const AbstractEvent &AE = A.event(E);
    if (AE.isMarker())
      continue;
    unsigned Tag = U.SessionTags[AE.Txn];
    for (unsigned I = 0; I != AE.Facts.size(); ++I) {
      const AbsFact &Fact = AE.Facts[I];
      switch (Fact.Kind) {
      case AbsFact::Free:
        break;
      case AbsFact::Const:
        S.add(argExpr(E, I) == Z.intVal(Fact.Value));
        break;
      case AbsFact::GlobalVar:
        S.add(argExpr(E, I) == GlobalVars[Fact.Var]);
        break;
      case AbsFact::LocalVar:
        S.add(argExpr(E, I) == LocalVars[Tag][Fact.Var]);
        break;
      case AbsFact::FreshVar:
        // Derived fact: the equality to the creator's return slot is
        // already entailed by the front end's pair-invariant chains plus
        // control flow, and the fresh-value axioms below cover uniqueness.
        // Asserting nothing keeps the formula identical to the unreduced
        // history's (the differential guardrail).
        break;
      }
    }
  }
  // Pair invariants hold whenever both endpoints occur.
  for (unsigned T = 0; T != A.numTxns(); ++T)
    for (const AbstractConstraint &Inv : A.txn(T).Invs)
      S.add(z3::implies(EvPresent[Inv.Src] && EvPresent[Inv.Tgt],
                        condZ3(Inv.C, Inv.Src, Inv.Tgt)));
}

void UnfoldingEncoder::encodeFreshValues() {
  if (!F.UniqueValues)
    return;
  z3::solver &S = Z.solver();
  std::vector<unsigned> FreshEvents;
  for (unsigned E = 0; E != A.numEvents(); ++E) {
    if (A.event(E).isMarker())
      continue;
    if (A.op(E).Fresh)
      FreshEvents.push_back(E);
  }
  for (unsigned C : FreshEvents) {
    z3::expr FV = argExpr(C, A.op(C).NumArgs); // the return slot
    // Fresh identities live above every program literal.
    S.add(FV >= Z.intVal(FreshMin));
    // Distinct from other fresh identities.
    for (unsigned C2 : FreshEvents)
      if (C2 > C)
        S.add(z3::implies(EvPresent[C] && EvPresent[C2],
                          FV != argExpr(C2, A.op(C2).NumArgs)));
    // No side channels: any event holding the identity observed the
    // creation (paper §8, fresh unique values).
    for (unsigned E = 0; E != A.numEvents(); ++E) {
      if (E == C || A.event(E).isMarker())
        continue;
      for (unsigned I = 0, N = A.op(E).numVals(); I != N; ++I) {
        if (A.op(E).Fresh && I == A.op(E).NumArgs)
          continue; // its own fresh identity
        S.add(z3::implies(EvPresent[C] && EvPresent[E] &&
                              argExpr(E, I) == FV,
                          visTo(C, E)));
      }
    }
  }
}

void UnfoldingEncoder::encodeQueryValues() {
  // Sequential semantics (S1) inside the small model: a query with no
  // visible interfering update returns the initial value 0; when the
  // arbitration-last visible interfering update has a simple determination
  // rule (ValueDet), the return value is fixed by it. Interference is
  // non-plain-commutativity, encoded symbolically.
  z3::solver &S = Z.solver();
  for (unsigned Q = 0; Q != A.numEvents(); ++Q) {
    if (A.event(Q).isMarker() || !A.isQuery(Q))
      continue;
    const OpSig &QOp = A.op(Q);
    z3::expr Ret = argExpr(Q, QOp.NumArgs);
    // interf(u) = present(u) ∧ vis(u,q) ∧ ¬plaincom(u,q).
    std::vector<unsigned> Us;
    std::vector<z3::expr> Interf;
    for (unsigned U2 : UpdateEvents) {
      if (U2 == Q)
        continue;
      z3::expr NotCom = notComZ3(U2, Q, CommuteMode::Plain);
      if (NotCom.is_false())
        continue;
      Us.push_back(U2);
      Interf.push_back(EvPresent[U2] && visTo(U2, Q) && NotCom);
    }
    z3::expr None = Z.boolVal(true);
    for (const z3::expr &I : Interf)
      None = None && !I;
    S.add(z3::implies(EvPresent[Q] && None, Ret == Z.intVal(0)));
    for (unsigned I = 0; I != Us.size(); ++I) {
      unsigned U2 = Us[I];
      const AbstractEvent &UE = A.event(U2);
      const DataTypeSpec &Type =
          *A.schema().container(UE.Container).Type;
      ValueDet Det = Type.valueDetermination(UE.Op, A.event(Q).Op);
      if (Det.Kind == ValueDet::Indeterminate)
        continue;
      if (Det.Kind == ValueDet::SlotLowerBound) {
        // Monotone determination: every visible interfering update is a
        // lower bound, regardless of arbitration position.
        S.add(z3::implies(EvPresent[Q] && Interf[I],
                          Ret >= argExpr(U2, Det.SlotIdx)));
        continue;
      }
      z3::expr IsLast = Interf[I];
      for (unsigned J = 0; J != Us.size(); ++J)
        if (J != I)
          IsLast = IsLast && !(Interf[J] && arLess(U2, Us[J]));
      z3::expr Val = Det.Kind == ValueDet::Slot
                         ? argExpr(U2, Det.SlotIdx)
                         : Z.intVal(Det.Value);
      S.add(z3::implies(EvPresent[Q] && IsLast, Ret == Val));
    }
  }
}

void UnfoldingEncoder::encodeCycles(
    const std::vector<CandidateCycle> &Candidates) {
  Cands = &Candidates;
  CycleSel.clear();
  Picks.clear();
  z3::solver &S = Z.solver();
  z3::expr Any = Z.boolVal(false);
  for (unsigned CI = 0; CI != Candidates.size(); ++CI) {
    const CandidateCycle &C = Candidates[CI];
    z3::expr Sel = Z.boolConst(strf("cycle%u", CI));
    CycleSel.push_back(Sel);
    Any = Any || Sel;
    Picks.emplace_back();
    z3::expr_vector AntiPicks(Z.ctx());
    z3::expr_vector ConfPicks(Z.ctx());
    unsigned NumSteps = C.Closed ? static_cast<unsigned>(C.Txns.size())
                                 : static_cast<unsigned>(C.Txns.size()) - 1;
    for (unsigned Step = 0; Step != NumSteps; ++Step) {
      unsigned From = C.Txns[Step];
      unsigned To = C.Txns[(Step + 1) % C.Txns.size()];
      Picks.back().emplace_back();
      z3::expr AnyLabel = Z.boolVal(false);
      for (unsigned LI = 0; LI != C.StepLabels[Step].size(); ++LI) {
        int Label = C.StepLabels[Step][LI];
        z3::expr P = Z.boolConst(strf("cycle%u.s%u.l%d", CI, Step, Label));
        Picks.back().back().push_back(P);
        S.add(z3::implies(P, edgeFormula(From, To, Label)));
        AnyLabel = AnyLabel || P;
        if (Label == DepAntiDep)
          AntiPicks.push_back(P);
        if (Label == DepConflict)
          ConfPicks.push_back(P);
      }
      S.add(z3::implies(Sel, AnyLabel));
    }
    if (C.Closed) {
      // (SC1): two anti-dependency steps, or one anti and one conflict.
      z3::expr SC1 = Z.boolVal(false);
      if (AntiPicks.size() >= 2)
        SC1 = SC1 || z3::atleast(AntiPicks, 2);
      if (AntiPicks.size() >= 1 && ConfPicks.size() >= 1)
        SC1 =
            SC1 || (z3::atleast(AntiPicks, 1) && z3::atleast(ConfPicks, 1));
      S.add(z3::implies(Sel, SC1));
    } else {
      // Open segment (§7.2): it must carry an anti-dependency.
      z3::expr HasAnti = AntiPicks.empty() ? Z.boolVal(false)
                                           : z3::atleast(AntiPicks, 1);
      S.add(z3::implies(Sel, HasAnti));
    }
  }
  S.add(Any);
}

void UnfoldingEncoder::encodeBase() {
  makeVariables();
  encodeOrders();
  encodeControlFlow();
  encodeFacts();
  encodeFreshValues();
  encodeQueryValues();
}

void UnfoldingEncoder::encode(
    const std::vector<CandidateCycle> &Candidates) {
  encodeBase();
  encodeCycles(Candidates);
}

WitnessModel UnfoldingEncoder::readModel(const z3::model &M) const {
  WitnessModel W;
  unsigned NT = A.numTxns(), NE = A.numEvents();
  W.Cycle = realizedCycle(M);
  W.TxnPresent.assign(NT, false);
  W.TxnPos.assign(NT, 0);
  W.Vis.assign(NT, std::vector<bool>(NT, false));
  for (unsigned T = 0; T != NT; ++T)
    if ((W.TxnPresent[T] = Z3Env::evalBool(M, TxnPresent[T])))
      W.TxnPos[T] = Z3Env::evalInt(M, TxnPos[T]);
  for (unsigned S = 0; S != NT; ++S)
    for (unsigned T = 0; T != NT; ++T)
      if (S != T && W.TxnPresent[S] && W.TxnPresent[T])
        W.Vis[S][T] = Z3Env::evalBool(M, TVis[S][T]);
  W.EvPresent.assign(NE, false);
  W.EvPos.assign(NE, 0);
  W.Vals.resize(NE);
  for (unsigned E = 0; E != NE; ++E) {
    W.Vals[E].assign(Args[E].size(), 0);
    if (!W.TxnPresent[A.event(E).Txn] || A.event(E).isMarker() ||
        !(W.EvPresent[E] = Z3Env::evalBool(M, EvPresent[E])))
      continue;
    W.EvPos[E] = Z3Env::evalInt(M, EvPos[E]);
    for (unsigned I = 0; I != Args[E].size(); ++I)
      W.Vals[E][I] = Z3Env::evalInt(M, Args[E][I]);
  }
  return W;
}

UnfoldingResult UnfoldingEncoder::cycleFound(const z3::model &M,
                                             bool Canonical) const {
  UnfoldingResult R;
  R.Status = UnfoldingResult::CycleFound;
  WitnessModel W = readModel(M);
  R.CE = buildCounterExample(U, *Cands, W);
  if (Canonical)
    R.Witness = std::move(W);
  return R;
}

/// The lowest-index candidate selector the model sets — the cycle
/// buildCounterExample() reports as the violation.
unsigned UnfoldingEncoder::realizedCycle(const z3::model &M) const {
  for (unsigned CI = 0; CI != CycleSel.size(); ++CI)
    if (Z3Env::evalBool(M, CycleSel[CI]))
      return CI;
  return 0; // unreachable: encodeCycles asserts at least one selector
}

/// Deterministic violation representative. Z3's model choice over the
/// candidate-cycle disjunction legally depends on the context's history
/// (AST numbering from earlier queries in a reused context steers
/// heuristic tie-breaks), so two runs that built different prior queries
/// can realize different cycles for the identical formula — and the
/// committed violation's transaction set drives subsumption, so every
/// downstream counter shifts with it. Re-checking restricted to strictly
/// earlier candidates until no earlier one is satisfiable pins the
/// reported cycle to the minimal satisfiable index: a pure function of
/// the query, stable across context histories (in particular across an
/// incremental warm run, which replays most queries and re-solves only
/// these). An unknown during minimization keeps the model already in
/// hand — the witness is still genuine, only canonicality degrades, and
/// the function returns false.
bool UnfoldingEncoder::minimizeRealizedCycle(
    z3::model &M, const z3::expr_vector &Assumptions, SolveTelemetry *T) {
  unsigned CI = realizedCycle(M);
  z3::solver &S = Z.solver();
  while (CI != 0) {
    S.push();
    for (unsigned J = CI; J != CycleSel.size(); ++J)
      S.add(!CycleSel[J]);
    z3::check_result CR =
        Assumptions.empty() ? S.check() : S.check(Assumptions);
    if (T)
      ++T->CtxReuses; // the re-check rode the existing encoding
    if (CR != z3::sat) {
      S.pop();
      // unsat: no earlier candidate admits a cycle, CI is minimal.
      return CR == z3::unsat;
    }
    M = S.get_model();
    S.pop();
    CI = realizedCycle(M); // selectors >= old CI were forced off
  }
  return true;
}

UnfoldingResult UnfoldingEncoder::solve(bool CanonicalWitness,
                                        SolveTelemetry *T) {
  UnfoldingResult R;
  // First try under the assumption that updates write non-initial values:
  // counter-examples then exhibit genuinely observable anomalies instead of
  // coincidental writes of the initial value 0. Fall back to an
  // unconstrained check when the assumptions conflict with the program.
  z3::expr_vector Assumptions(Z.ctx());
  for (unsigned E : UpdateEvents) {
    const AbstractEvent &AE = A.event(E);
    for (unsigned I = 0, N = A.op(E).numVals(); I != N; ++I) {
      if (I < AE.Facts.size() && AE.Facts[I].Kind == AbsFact::Const)
        continue;
      Assumptions.push_back(argExpr(E, I) != Z.intVal(0));
    }
  }
  if (Z.solver().check(Assumptions) == z3::sat) {
    z3::model M = Z.solver().get_model();
    return cycleFound(M, CanonicalWitness &&
                             minimizeRealizedCycle(M, Assumptions, T));
  }
  switch (Z.solver().check()) {
  case z3::unsat:
    R.Status = UnfoldingResult::NoCycle;
    return R;
  case z3::unknown:
    R.Status = UnfoldingResult::Unknown;
    return R;
  case z3::sat:
    break;
  }
  z3::model M = Z.solver().get_model();
  z3::expr_vector None(Z.ctx());
  return cycleFound(M, CanonicalWitness && minimizeRealizedCycle(M, None, T));
}

} // namespace

bool WitnessModel::fits(const Unfolding &U, size_t NumCands) const {
  const AbstractHistory &A = U.H;
  unsigned NT = A.numTxns(), NE = A.numEvents();
  if (Cycle >= NumCands || TxnPresent.size() != NT || TxnPos.size() != NT ||
      Vis.size() != NT || EvPresent.size() != NE || EvPos.size() != NE ||
      Vals.size() != NE)
    return false;
  for (const std::vector<bool> &Row : Vis)
    if (Row.size() != NT)
      return false;
  for (unsigned E = 0; E != NE; ++E)
    if (Vals[E].size() != (A.event(E).isMarker() ? 0 : A.op(E).numVals()))
      return false;
  return true;
}

CounterExample c4::buildCounterExample(const Unfolding &U,
                                       const std::vector<CandidateCycle> &Cands,
                                       const WitnessModel &M) {
  const AbstractHistory &A = U.H;
  CounterExample CE{History(A.schema()), Schedule(0), {}, {}, {}};
  // Collect present transactions and their positions.
  struct TxnInst {
    unsigned UTxn;
    int64_t Pos;
  };
  std::vector<TxnInst> Present;
  for (unsigned T = 0; T != A.numTxns(); ++T)
    if (M.TxnPresent[T])
      Present.push_back({T, M.TxnPos[T]});

  // Concrete sessions per abstract session tag, transactions in chain
  // order (ids grow along the chain, and Present is in id order).
  History &H = CE.H;
  std::map<unsigned, unsigned> SessionOf; // tag -> concrete session
  std::vector<int> ConcreteTxn(A.numTxns(), -1);
  for (const TxnInst &TI : Present) {
    unsigned Tag = U.SessionTags[TI.UTxn];
    auto It = SessionOf.find(Tag);
    if (It == SessionOf.end())
      It = SessionOf.emplace(Tag, H.addSession()).first;
    unsigned CT = H.beginTransaction(It->second);
    ConcreteTxn[TI.UTxn] = static_cast<int>(CT);
    // Events in intra-transaction position order.
    struct EvInst {
      unsigned Ev;
      int64_t Pos;
    };
    std::vector<EvInst> Evs;
    for (unsigned E : A.txn(TI.UTxn).Events)
      if (!A.event(E).isMarker() && M.EvPresent[E])
        Evs.push_back({E, M.EvPos[E]});
    std::sort(Evs.begin(), Evs.end(), [](const EvInst &X, const EvInst &Y) {
      return X.Pos < Y.Pos;
    });
    for (const EvInst &EI : Evs) {
      const AbstractEvent &AE = A.event(EI.Ev);
      const OpSig &Op = A.op(EI.Ev);
      const std::vector<int64_t> &Vals = M.Vals[EI.Ev];
      std::vector<int64_t> ArgVals(Vals.begin(), Vals.begin() + Op.NumArgs);
      std::optional<int64_t> Ret;
      if (Op.HasRet)
        Ret = Vals[Op.NumArgs];
      H.append(CT, AE.Container, AE.Op, std::move(ArgVals), Ret);
    }
  }

  // Pre-schedule: arbitration by (txn position, event position); the
  // events were appended per transaction in position order, so a stable
  // sort of transactions by position gives the event order.
  std::sort(Present.begin(), Present.end(),
            [](const TxnInst &X, const TxnInst &Y) { return X.Pos < Y.Pos; });
  Schedule S(H.numEvents());
  std::vector<unsigned> Order;
  for (const TxnInst &TI : Present)
    for (unsigned E : H.txn(static_cast<unsigned>(ConcreteTxn[TI.UTxn]))
                          .Events)
      Order.push_back(E);
  S.setArbitration(Order);
  // Visibility from the transaction-level booleans plus intra-transaction
  // session order.
  for (const TxnInst &TA : Present)
    for (const TxnInst &TB : Present) {
      if (TA.UTxn == TB.UTxn || !M.Vis[TA.UTxn][TB.UTxn])
        continue;
      for (unsigned EA :
           H.txn(static_cast<unsigned>(ConcreteTxn[TA.UTxn])).Events)
        for (unsigned EB :
             H.txn(static_cast<unsigned>(ConcreteTxn[TB.UTxn])).Events)
          S.setVisible(EA, EB);
    }
  for (const TxnInst &TI : Present) {
    const std::vector<unsigned> &Evs =
        H.txn(static_cast<unsigned>(ConcreteTxn[TI.UTxn])).Events;
    for (unsigned I = 0; I != Evs.size(); ++I)
      for (unsigned J = I + 1; J != Evs.size(); ++J)
        S.setVisible(Evs[I], Evs[J]);
  }
  CE.S = std::move(S);

  // Re-derive query return values by replay (S1): the model is only a
  // pre-schedule, but with returns fixed up the witness becomes a genuine
  // causally-consistent execution whenever control flow permits.
  for (unsigned E = 0; E != H.numEvents(); ++E)
    if (H.isQuery(E))
      H.setReturn(E, evalQueryUnder(H, CE.S, E));

  // The selected cycle.
  for (unsigned T : Cands[M.Cycle].Txns) {
    CE.CycleTxns.push_back(static_cast<unsigned>(ConcreteTxn[T]));
    CE.OrigTxns.push_back(U.OrigTxn[T]);
  }

  // Render.
  std::string Text;
  for (const auto &[Tag, Session] : SessionOf) {
    Text += strf("session %u:\n", Session);
    for (unsigned T : H.sessionTxns(Session)) {
      std::vector<std::string> Parts;
      for (unsigned E : H.txn(T).Events)
        Parts.push_back(H.eventStr(E));
      // Find the original name via the unfolded transaction.
      std::string Name;
      for (unsigned UT = 0; UT != A.numTxns(); ++UT)
        if (ConcreteTxn[UT] == static_cast<int>(T))
          Name = A.txn(UT).Name;
      Text += strf("  txn %s [%s]\n", Name.c_str(),
                   join(Parts, "; ").c_str());
    }
  }
  CE.Text = std::move(Text);
  return CE;
}

namespace {

/// The escalating-rlimit retry loop against an *already encoded* solver:
/// an unknown re-arms the same solver with a geometrically larger rlimit
/// and re-checks (no re-encode). Each attempt runs under min(per-check
/// wall ceiling, remaining deadline) so a governed run cannot overshoot
/// its deadline by more than one check; the final unknown is the caller's
/// Violation::Inconclusive.
UnfoldingResult runAttempts(UnfoldingEncoder &Enc, Z3Env &Env,
                            const SolverPolicy &P, SolveTelemetry &T,
                            bool CanonicalWitness) {
  UnfoldingResult R;
  R.Status = UnfoldingResult::Unknown;
  for (unsigned Attempt = 0; Attempt <= P.Budget.MaxRetries; ++Attempt) {
    if (Attempt && P.DL && P.DL->expired())
      break; // deadline: report the unknown we already have
    uint64_t Rlimit = P.Budget.rlimitForAttempt(Attempt);
    unsigned WallMs = P.DL && P.DL->active()
                          ? P.DL->remainingMs(P.Budget.WallMs)
                          : P.Budget.WallMs;
    if (P.DL && P.DL->active() && WallMs == 0)
      break;
    ++T.Attempts;
    T.RlimitBudget = Rlimit;
    Env.rearm(Rlimit, WallMs);
    if (Attempt)
      ++T.CtxReuses; // retry re-check on the shared encoding
    uint64_t Before = Env.rlimitCount();
    R = Enc.solve(CanonicalWitness, &T);
    uint64_t After = Env.rlimitCount();
    if (After > Before)
      T.RlimitSpent += After - Before;
    if (R.Status != UnfoldingResult::Unknown)
      return R;
    if (!Rlimit || Rlimit >= P.Budget.RlimitCap)
      break; // nothing left to escalate (wall-only or already at the cap)
  }
  R = UnfoldingResult();
  R.Status = UnfoldingResult::Unknown;
  return R;
}

} // namespace

UnfoldingResult c4::solveUnfolding(const Unfolding &U, const SSG &G,
                                   const std::vector<CandidateCycle> &Cands,
                                   const AnalysisFeatures &F,
                                   const SolverPolicy &P,
                                   CommutativityOracle *Oracle, Z3Env *Reuse,
                                   SolveTelemetry *Telemetry) {
  SolveTelemetry Local;
  SolveTelemetry &T = Telemetry ? *Telemetry : Local;
  T = SolveTelemetry();
  if (Cands.empty())
    return {};

  try {
    std::optional<Z3Env> Own;
    Z3Env *Env;
    if (Reuse) {
      Reuse->reset(P.Budget.rlimitForAttempt(0), P.Budget.WallMs);
      Env = Reuse;
    } else {
      Own.emplace(P.Budget);
      Env = &*Own;
    }
    UnfoldingEncoder Enc(U, G, F, *Env, Oracle);
    Enc.encode(Cands);
    // Canonicalize the witness: the bounded stage commits the realized
    // cycle as a violation, so it must not depend on the reused
    // context's query history (see minimizeRealizedCycle).
    return runAttempts(Enc, *Env, P, T, /*CanonicalWitness=*/true);
  } catch (const z3::exception &) {
    // Confine Z3 exceptions: treat failures as inconclusive.
    T.Error = true;
    UnfoldingResult R;
    R.Status = UnfoldingResult::Unknown;
    return R;
  }
}

struct LayoutSolver::Impl {
  SolverPolicy P;
  std::optional<Z3Env> Own;
  Z3Env *Env = nullptr;
  std::optional<UnfoldingEncoder> Enc;
  bool BaseEncoded = false;
  bool Dead = false; ///< a z3::exception poisoned the context
  unsigned Chunks = 0;
};

LayoutSolver::LayoutSolver(const Unfolding &U, const SSG &G,
                           const AnalysisFeatures &F, const SolverPolicy &P,
                           CommutativityOracle *Oracle, Z3Env *Reuse)
    : I(std::make_unique<Impl>()) {
  I->P = P;
  try {
    if (Reuse) {
      Reuse->reset(P.Budget.rlimitForAttempt(0), P.Budget.WallMs);
      I->Env = Reuse;
    } else {
      I->Own.emplace(P.Budget);
      I->Env = &*I->Own;
    }
    I->Enc.emplace(U, G, F, *I->Env, Oracle);
  } catch (const z3::exception &) {
    I->Dead = true;
  }
}

LayoutSolver::~LayoutSolver() = default;

UnfoldingResult LayoutSolver::solve(const std::vector<CandidateCycle> &Cands,
                                    SolveTelemetry *Telemetry) {
  SolveTelemetry Local;
  SolveTelemetry &T = Telemetry ? *Telemetry : Local;
  T = SolveTelemetry();
  if (Cands.empty())
    return {};
  UnfoldingResult Unk;
  Unk.Status = UnfoldingResult::Unknown;
  if (I->Dead) {
    T.Error = true;
    return Unk;
  }
  try {
    if (!I->BaseEncoded) {
      I->Enc->encodeBase();
      I->BaseEncoded = true;
    }
    z3::solver &S = I->Env->solver();
    S.push();
    I->Enc->encodeCycles(Cands);
    if (++I->Chunks > 1)
      ++T.CtxReuses; // the chunk rode an existing base encoding
    // No witness canonicalization here: a generalize-stage cycle only
    // blocks the generalization (sat/unsat is already deterministic);
    // its realized cycle is never committed as a violation.
    UnfoldingResult R = runAttempts(*I->Enc, *I->Env, I->P, T,
                                    /*CanonicalWitness=*/false);
    S.pop();
    return R;
  } catch (const z3::exception &) {
    // The scope stack is in an unknown state; retire the context.
    I->Dead = true;
    T.Error = true;
    return Unk;
  }
}
