//===- ssg/SSG.cpp --------------------------------------------------------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "ssg/SSG.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <set>

using namespace c4;

SSG::SSG(const AbstractHistory &A, const AnalysisFeatures &F)
    : A(A), Features(F) {}

SSG::SSG(const AbstractHistory &A, const AnalysisFeatures &F,
         std::vector<unsigned> Tags)
    : A(A), Features(F), SessionTags(std::move(Tags)) {
  assert(SessionTags->size() == A.numTxns() && "one tag per transaction");
}

void SSG::setEventMask(std::vector<bool> Mask) {
  assert(Mask.size() == A.numEvents() && "mask covers all events");
  EventMask = std::move(Mask);
}

bool SSG::included(unsigned Event) const {
  if (A.event(Event).isMarker())
    return false;
  return EventMask.empty() || EventMask[Event];
}

EventFacts SSG::factsFor(unsigned Event, bool SourceSide) const {
  if (!Features.Constraints) {
    // Drop all invariants: every slot is free.
    return EventFacts(A.op(Event).numVals());
  }
  unsigned Tag;
  if (SessionTags) {
    Tag = (*SessionTags)[A.event(Event).Txn];
  } else {
    // General mode: a transaction summarizes instances on unknown sessions.
    // Resolving the two sides of a pair to distinct sessions is the most
    // permissive (hence sound) choice.
    Tag = 2 * A.event(Event).Txn + (SourceSide ? 0 : 1);
  }
  return A.resolveFacts(Event, Tag);
}

bool SSG::mayInterfere(unsigned E, unsigned F, CommuteMode Mode) const {
  const AbstractEvent &AE = A.event(E);
  const AbstractEvent &AF = A.event(F);
  if (AE.Container != AF.Container)
    return false; // cross-container events always commute
  const DataTypeSpec &Type = *A.schema().container(AE.Container).Type;
  if (Oracle) {
    const Cond &NotCom = Oracle->notCommutes(Type, AE.Op, AF.Op, Mode);
    if (NotCom.isFalse())
      return false;
    if (NotCom.isTrue())
      return true;
    return Oracle->notCommutesSatisfiable(Type, AE.Op, AF.Op, Mode,
                                          factsFor(E, /*SourceSide=*/true),
                                          factsFor(F, /*SourceSide=*/false));
  }
  Cond NotCom = !commutesCond(Type, AE.Op, AF.Op, Mode);
  if (NotCom.isFalse())
    return false;
  return NotCom.satisfiableUnder(factsFor(E, /*SourceSide=*/true),
                                 factsFor(F, /*SourceSide=*/false));
}

bool SSG::mayNotAbsorb(unsigned U, unsigned V) const {
  if (!Features.Absorption)
    return true; // ablation: absorption replaced by false
  const AbstractEvent &AU = A.event(U);
  const AbstractEvent &AV = A.event(V);
  if (AU.Container != AV.Container)
    return true; // cross-container updates never absorb
  const DataTypeSpec &Type = *A.schema().container(AU.Container).Type;
  if (Oracle) {
    const Cond &NotAbs = Oracle->notAbsorbs(Type, AU.Op, AV.Op, /*Far=*/true);
    if (NotAbs.isFalse())
      return false;
    if (NotAbs.isTrue())
      return true;
    return Oracle->notAbsorbsSatisfiable(Type, AU.Op, AV.Op, /*Far=*/true,
                                         factsFor(U, /*SourceSide=*/true),
                                         factsFor(V, /*SourceSide=*/false));
  }
  Cond NotAbs = !absorbsCond(Type, AU.Op, AV.Op, /*Far=*/true);
  if (NotAbs.isFalse())
    return false;
  if (NotAbs.isTrue())
    return true;
  return NotAbs.satisfiableUnder(factsFor(U, /*SourceSide=*/true),
                                 factsFor(V, /*SourceSide=*/false));
}

std::vector<DepPairAlt> c4::depPairAlternatives(const AbstractHistory &A,
                                                unsigned TS, unsigned TT,
                                                int Label,
                                                const AnalysisFeatures &F) {
  std::vector<DepPairAlt> R;
  switch (Label) {
  case DepSO:
    break; // presence-only edge, no event pairs
  case DepDependency:
    // (D1) ⊕: an update of TS visible to a query of TT.
    for (unsigned EU : A.txn(TS).Events) {
      if (A.event(EU).isMarker() || !A.isUpdate(EU))
        continue;
      for (unsigned EQ : A.txn(TT).Events) {
        if (A.event(EQ).isMarker() || !A.isQuery(EQ))
          continue;
        R.push_back({EU, EQ, CommuteMode::Far});
      }
    }
    break;
  case DepAntiDep:
    // (D2) ⊖ runs from the query's transaction TS to the update's TT.
    for (unsigned EQ : A.txn(TS).Events) {
      if (A.event(EQ).isMarker() || !A.isQuery(EQ))
        continue;
      for (unsigned EU : A.txn(TT).Events) {
        if (A.event(EU).isMarker() || !A.isUpdate(EU))
          continue;
        R.push_back({EU, EQ,
                     F.AsymmetricAntiDeps ? CommuteMode::Asym
                                          : CommuteMode::Far});
      }
    }
    break;
  case DepConflict:
    // (D3) ⊗: two non-commuting updates, arbitration-ordered.
    for (unsigned EU : A.txn(TS).Events) {
      if (A.event(EU).isMarker() || !A.isUpdate(EU))
        continue;
      for (unsigned EV : A.txn(TT).Events) {
        if (A.event(EV).isMarker() || !A.isUpdate(EV))
          continue;
        R.push_back({EU, EV, CommuteMode::Plain});
      }
    }
    break;
  }
  return R;
}

void SSG::analyze() {
  unsigned NumTxns = A.numTxns();
  Graph = Digraph(NumTxns);
  Violations.clear();

  // Session-order edges: the transitive closure of the may-follow relation.
  std::vector<std::vector<bool>> SoClosure(NumTxns,
                                           std::vector<bool>(NumTxns, false));
  for (unsigned S = 0; S != NumTxns; ++S)
    for (unsigned T = 0; T != NumTxns; ++T)
      SoClosure[S][T] = A.maySo(S, T);
  for (unsigned K = 0; K != NumTxns; ++K)
    for (unsigned I = 0; I != NumTxns; ++I) {
      if (!SoClosure[I][K])
        continue;
      for (unsigned J = 0; J != NumTxns; ++J)
        if (SoClosure[K][J])
          SoClosure[I][J] = true;
    }
  for (unsigned S = 0; S != NumTxns; ++S)
    for (unsigned T = 0; T != NumTxns; ++T) {
      if (!SoClosure[S][T])
        continue;
      if (SessionTags && (S == T || (*SessionTags)[S] != (*SessionTags)[T]))
        continue;
      Graph.addEdge(S, T, DepSO);
    }

  // Dependency edges: one per (pair, label).
  bool General = !SessionTags.has_value();
  for (unsigned S = 0; S != NumTxns; ++S)
    for (unsigned T = 0; T != NumTxns; ++T) {
      if (!General && S == T)
        continue;
      bool HasDep = false, HasAnti = false, HasConf = false;
      for (unsigned E : A.txn(S).Events) {
        if (!included(E))
          continue;
        for (unsigned F : A.txn(T).Events) {
          if (!included(F))
            continue;
          if (!General && E == F)
            continue;
          bool EUpd = A.isUpdate(E), FUpd = A.isUpdate(F);
          if (EUpd && !FUpd && !HasDep)
            HasDep = mayInterfere(E, F, CommuteMode::Far);
          if (!EUpd && FUpd && !HasAnti)
            HasAnti = mayInterfere(E, F,
                                   Features.AsymmetricAntiDeps
                                       ? CommuteMode::Asym
                                       : CommuteMode::Far);
          if (EUpd && FUpd && !HasConf)
            HasConf = mayInterfere(E, F, CommuteMode::Plain);
          if (HasDep && HasAnti && HasConf)
            break;
        }
        if (HasDep && HasAnti && HasConf)
          break;
      }
      if (HasDep)
        Graph.addEdge(S, T, DepDependency);
      if (HasAnti)
        Graph.addEdge(S, T, DepAntiDep);
      if (HasConf)
        Graph.addEdge(S, T, DepConflict);
    }

  // Theorem 3 per strongly-connected component.
  unsigned NumComponents = 0;
  std::vector<unsigned> Comp = Graph.stronglyConnectedComponents(
      NumComponents);
  std::vector<std::vector<unsigned>> Members(NumComponents);
  for (unsigned T = 0; T != NumTxns; ++T)
    Members[Comp[T]].push_back(T);
  // A component is cyclic if it has more than one member or a self-loop.
  std::vector<bool> Cyclic(NumComponents, false);
  for (unsigned C = 0; C != NumComponents; ++C)
    Cyclic[C] = Members[C].size() > 1;
  for (const Digraph::Edge &E : Graph.edges())
    if (E.From == E.To)
      Cyclic[Comp[E.From]] = true;

  for (unsigned C = 0; C != NumComponents; ++C) {
    if (!Cyclic[C])
      continue;
    // (SC1): the component must offer an anti-dependency edge. In general
    // mode a closed walk may traverse it twice, so one suffices.
    bool HasAnti = false;
    for (const Digraph::Edge &E : Graph.edges())
      if (E.Label == DepAntiDep && Comp[E.From] == C && Comp[E.To] == C)
        HasAnti = true;
    if (!HasAnti)
      continue;
    if (!checkSC2(Members[C]))
      continue;
    Violations.push_back({Members[C]});
  }
}

bool SSG::checkSC2(const std::vector<unsigned> &SCCTxns) const {
  // Collect the component's included events.
  std::vector<unsigned> Events, Updates;
  for (unsigned T : SCCTxns)
    for (unsigned E : A.txn(T).Events) {
      if (!included(E))
        continue;
      Events.push_back(E);
      if (A.isUpdate(E))
        Updates.push_back(E);
    }

  // (SC2a): two updates that may fail to absorb each other. In general mode
  // u and v may be two instances of the same abstract event.
  bool General = !SessionTags.has_value();
  for (unsigned U : Updates)
    for (unsigned V : Updates) {
      if (!General && U == V)
        continue;
      if (mayNotAbsorb(U, V))
        return true;
    }

  // (SC2b): a transaction with a query q followed (eo+) by an update u such
  // that u interferes with some component event and q with some component
  // update.
  for (unsigned T : SCCTxns)
    for (unsigned Q : A.txn(T).Events) {
      if (!included(Q) || !A.isQuery(Q))
        continue;
      for (unsigned U : A.txn(T).Events) {
        if (!included(U) || !A.isUpdate(U))
          continue;
        if (Features.ControlFlow && !A.eoReaches(Q, U))
          continue;
        bool UInterferes = false;
        for (unsigned E : Events)
          if ((E != U || General) &&
              mayInterfere(U, E, CommuteMode::Plain)) {
            UInterferes = true;
            break;
          }
        if (!UInterferes)
          continue;
        for (unsigned V : Updates)
          if ((V != Q || General) && mayInterfere(Q, V, CommuteMode::Far))
            return true;
      }
    }
  return false;
}

std::vector<CandidateCycle> SSG::candidateCycles(unsigned MaxCycles,
                                                 bool &Truncated) const {
  assert(SessionTags && "candidate cycles are for instantiated SSGs");
  std::vector<CandidateCycle> Result;
  std::vector<std::vector<unsigned>> Cycles =
      Graph.simpleCycles(MaxCycles, Truncated);
  for (const std::vector<unsigned> &Nodes : Cycles) {
    if (Nodes.size() < 2)
      continue;
    CandidateCycle C;
    C.Txns = Nodes;
    bool Ok = true;
    unsigned AntiSteps = 0, ConfSteps = 0;
    for (unsigned I = 0; I != Nodes.size() && Ok; ++I) {
      unsigned From = Nodes[I], To = Nodes[(I + 1) % Nodes.size()];
      std::vector<int> Labels;
      for (unsigned EI : Graph.edgesBetween(From, To))
        Labels.push_back(Graph.edge(EI).Label);
      if (Labels.empty())
        Ok = false;
      C.StepLabels.push_back(Labels);
      for (int L : Labels) {
        if (L == DepAntiDep) {
          ++AntiSteps;
          break;
        }
      }
      for (int L : Labels) {
        if (L == DepConflict) {
          ++ConfSteps;
          break;
        }
      }
    }
    if (!Ok)
      continue;
    // (SC1) on a simple cycle: two anti-dependency steps, or one anti step
    // plus a conflict step at a different position.
    bool SC1 = AntiSteps >= 2;
    if (!SC1 && AntiSteps == 1 && ConfSteps >= 1) {
      unsigned AntiAt = ~0u;
      for (unsigned I = 0; I != C.StepLabels.size() && AntiAt == ~0u; ++I)
        for (int L : C.StepLabels[I])
          if (L == DepAntiDep) {
            AntiAt = I;
            break;
          }
      for (unsigned I = 0; I != C.StepLabels.size() && !SC1; ++I) {
        if (I == AntiAt)
          continue;
        for (int L : C.StepLabels[I])
          if (L == DepConflict) {
            SC1 = true;
            break;
          }
      }
    }
    if (!SC1)
      continue;
    Result.push_back(std::move(C));
  }
  return Result;
}

std::vector<CandidateCycle> SSG::spanningSegments(
    unsigned NumSessions, unsigned MaxSegments, bool &Truncated,
    const std::vector<unsigned> &OrigTxn,
    const std::function<bool(const CandidateCycle &)> *Keep,
    bool RequireAllTxns) const {
  assert(SessionTags && "segments are for instantiated SSGs");
  Truncated = false;
  std::vector<CandidateCycle> Result;
  const Digraph &D = Graph;
  unsigned FullMask = (1u << NumSessions) - 1;

  // Session symmetry: two segments with the same original-transaction
  // sequence, labels, and same-session sharing pattern describe the same
  // pattern; keep one.
  std::set<std::vector<int>> Signatures;
  auto Record = [&](CandidateCycle C) {
    std::vector<int> Sig;
    for (unsigned I = 0; I != C.Txns.size(); ++I) {
      Sig.push_back(-1 - static_cast<int>(OrigTxn[C.Txns[I]]));
      // First path position sharing this node's session.
      for (unsigned J = 0; J <= I; ++J)
        if ((*SessionTags)[C.Txns[J]] == (*SessionTags)[C.Txns[I]]) {
          Sig.push_back(static_cast<int>(J));
          break;
        }
    }
    for (const std::vector<int> &Labels : C.StepLabels) {
      std::vector<int> Sorted = Labels;
      std::sort(Sorted.begin(), Sorted.end());
      Sig.push_back(-1000);
      Sig.insert(Sig.end(), Sorted.begin(), Sorted.end());
    }
    if (!Signatures.insert(std::move(Sig)).second)
      return;
    if (Keep && !(*Keep)(C))
      return;
    Result.push_back(std::move(C));
  };

  std::vector<bool> OnPath(D.numNodes(), false);
  std::vector<unsigned> Path;
  std::function<void(unsigned, unsigned, bool)> Dfs =
      [&](unsigned Node, unsigned SessMask, bool Anti) {
        if (Result.size() >= MaxSegments) {
          Truncated = true;
          return;
        }
        if (Path.size() > 2 * NumSessions)
          return; // minimal cycles use at most two txns per session
        if (SessMask == FullMask && Anti && Path.size() >= 2 &&
            (!RequireAllTxns || Path.size() == D.numNodes())) {
          // Materialize the segment with per-step label sets. Extensions of
          // a satisfied segment are redundant (any cycle containing the
          // extension also contains this minimal segment), so stop here.
          CandidateCycle C;
          C.Txns = Path;
          C.Closed = false;
          for (unsigned I = 0; I + 1 < Path.size(); ++I) {
            std::vector<int> Labels;
            for (unsigned EI : D.edgesBetween(Path[I], Path[I + 1]))
              Labels.push_back(D.edge(EI).Label);
            C.StepLabels.push_back(Labels);
          }
          Record(std::move(C));
          return;
        }
        for (unsigned EI : D.succEdges(Node)) {
          const Digraph::Edge &E = D.edge(EI);
          if (OnPath[E.To])
            continue;
          OnPath[E.To] = true;
          Path.push_back(E.To);
          Dfs(E.To, SessMask | (1u << (*SessionTags)[E.To]),
              Anti || E.Label == DepAntiDep);
          Path.pop_back();
          OnPath[E.To] = false;
        }
      };
  for (unsigned Start = 0; Start != D.numNodes(); ++Start) {
    OnPath[Start] = true;
    Path = {Start};
    Dfs(Start, 1u << (*SessionTags)[Start], false);
    OnPath[Start] = false;
  }
  return Result;
}
