//===- passes/Passes.cpp - Reduction passes and lint layer ----------------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//
//
// The pass pipeline of PassManager.h. See docs/passes.md for the soundness
// argument of each reduction.
//
//===----------------------------------------------------------------------===//

#include "passes/PassManager.h"

#include "frontend/Frontend.h"
#include "passes/CFG.h"
#include "passes/Dataflow.h"
#include "spec/DataType.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <set>

using namespace c4;

//===----------------------------------------------------------------------===//
// AST cloning
//===----------------------------------------------------------------------===//

static StmtPtr cloneStmt(const Stmt &S) {
  auto N = std::make_unique<Stmt>();
  N->Kind = S.Kind;
  N->Line = S.Line;
  N->Container = S.Container;
  N->Op = S.Op;
  N->Args = S.Args;
  N->LetName = S.LetName;
  N->Cond = S.Cond;
  N->ValueName = S.ValueName;
  for (const StmtPtr &C : S.Then)
    N->Then.push_back(cloneStmt(*C));
  for (const StmtPtr &C : S.Else)
    N->Else.push_back(cloneStmt(*C));
  return N;
}

std::unique_ptr<ProgramAST> c4::cloneAST(const ProgramAST &AST) {
  auto N = std::make_unique<ProgramAST>();
  N->Containers = AST.Containers;
  N->SessionConsts = AST.SessionConsts;
  N->GlobalConsts = AST.GlobalConsts;
  N->AtomicSets = AST.AtomicSets;
  N->Orders = AST.Orders;
  for (const TxnDecl &T : AST.Txns) {
    TxnDecl NT;
    NT.Name = T.Name;
    NT.Params = T.Params;
    NT.Line = T.Line;
    for (const StmtPtr &S : T.Body)
      NT.Body.push_back(cloneStmt(*S));
    N->Txns.push_back(std::move(NT));
  }
  return N;
}

//===----------------------------------------------------------------------===//
// Guard-constraint analysis
//===----------------------------------------------------------------------===//

namespace {

/// One unary constraint `name <rel> Lit` implied by the guards dominating a
/// program point. String literals are interned; a name constrained against
/// both string and integer literals is treated as unconstrained (sound).
struct GuardCon {
  enum RelTy : uint8_t { Eq, Ne, Lt, Le, Gt, Ge } Rel = Eq;
  int64_t Lit = 0;
  bool IsStr = false;

  bool operator==(const GuardCon &O) const {
    return Rel == O.Rel && Lit == O.Lit && IsStr == O.IsStr;
  }
};

/// The dataflow state: which constraints hold on each name at a program
/// point, on every path reaching it. `Reached` false is the lattice top
/// (no path seen yet); the meet treats it as identity.
struct GuardState {
  bool Reached = false;
  std::map<std::string, std::vector<GuardCon>> Names;
};

bool relHolds(int64_t V, GuardCon::RelTy R, int64_t L) {
  switch (R) {
  case GuardCon::Eq:
    return V == L;
  case GuardCon::Ne:
    return V != L;
  case GuardCon::Lt:
    return V < L;
  case GuardCon::Le:
    return V <= L;
  case GuardCon::Gt:
    return V > L;
  case GuardCon::Ge:
    return V >= L;
  }
  return true;
}

/// Complete satisfiability for a conjunction of unary constraints on one
/// name. The satisfying set is a union of intervals whose endpoints are
/// mentioned literals, so testing every literal and its neighbors decides
/// it exactly. Mixed string/integer constraint sets are conservatively
/// satisfiable (interned ids and program integers live in one value space,
/// but we never exploit their concrete coincidences).
bool satisfiable(const std::vector<GuardCon> &Cs) {
  bool AnyStr = false, AnyInt = false;
  for (const GuardCon &C : Cs)
    (C.IsStr ? AnyStr : AnyInt) = true;
  if (AnyStr && AnyInt)
    return true;
  if (AnyStr) {
    // Strings only ever appear in Eq/Ne constraints.
    std::optional<int64_t> Must;
    for (const GuardCon &C : Cs)
      if (C.Rel == GuardCon::Eq) {
        if (Must && *Must != C.Lit)
          return false;
        Must = C.Lit;
      }
    if (!Must)
      return true;
    for (const GuardCon &C : Cs)
      if (C.Rel == GuardCon::Ne && C.Lit == *Must)
        return false;
    return true;
  }
  if (Cs.empty())
    return true;
  for (const GuardCon &C : Cs)
    for (int64_t D : {-1, 0, 1}) {
      int64_t V = C.Lit + D;
      bool Ok = true;
      for (const GuardCon &O : Cs)
        Ok = Ok && relHolds(V, O.Rel, O.Lit);
      if (Ok)
        return true;
    }
  return false;
}

/// If the constraints pin the name to a single integer value, returns it.
std::optional<int64_t> pointValue(const std::vector<GuardCon> &Cs) {
  for (const GuardCon &C : Cs)
    if (C.IsStr)
      return std::nullopt;
  if (!satisfiable(Cs))
    return std::nullopt;
  for (const GuardCon &C : Cs)
    if (C.Rel == GuardCon::Eq)
      return C.Lit;
  return std::nullopt;
}

GuardCon::RelTy negateRel(GuardCon::RelTy R) {
  switch (R) {
  case GuardCon::Eq:
    return GuardCon::Ne;
  case GuardCon::Ne:
    return GuardCon::Eq;
  case GuardCon::Lt:
    return GuardCon::Ge;
  case GuardCon::Le:
    return GuardCon::Gt;
  case GuardCon::Gt:
    return GuardCon::Le;
  case GuardCon::Ge:
    return GuardCon::Lt;
  }
  return R;
}

/// The constraint a guard imposes on its name along the taken (then) or
/// not-taken (else) edge, if one is expressible.
std::optional<GuardCon> guardConstraint(const CondExpr &C, bool Taken,
                                        Interner &Str) {
  GuardCon G;
  switch (C.Cmp) {
  case CondExpr::Truthy:
    G.Rel = Taken ? GuardCon::Ne : GuardCon::Eq;
    return G;
  case CondExpr::Falsy:
    G.Rel = Taken ? GuardCon::Eq : GuardCon::Ne;
    return G;
  case CondExpr::Eq:
    G.Rel = GuardCon::Eq;
    break;
  case CondExpr::Ne:
    G.Rel = GuardCon::Ne;
    break;
  case CondExpr::Lt:
    G.Rel = GuardCon::Lt;
    break;
  case CondExpr::Le:
    G.Rel = GuardCon::Le;
    break;
  case CondExpr::Gt:
    G.Rel = GuardCon::Gt;
    break;
  case CondExpr::Ge:
    G.Rel = GuardCon::Ge;
    break;
  }
  switch (C.Rhs.Kind) {
  case Expr::IntLit:
    G.Lit = C.Rhs.Value;
    break;
  case Expr::StringLit:
    if (G.Rel != GuardCon::Eq && G.Rel != GuardCon::Ne)
      return std::nullopt;
    G.Lit = Str.intern(C.Rhs.Text);
    G.IsStr = true;
    break;
  case Expr::Name:
    return std::nullopt; // relational constraints are not tracked
  }
  if (!Taken)
    G.Rel = negateRel(G.Rel);
  return G;
}

GuardState transferBlock(GuardState S, const CFGNode &N) {
  if (!S.Reached)
    return S;
  // A `let` rebinds its name: constraints on the old binding die.
  for (const Stmt *St : N.Stmts)
    if (St->Kind == Stmt::Let)
      S.Names.erase(St->LetName);
  return S;
}

GuardState edgeRefine(GuardState Out, const CFGNode &N, unsigned I,
                      Interner &Str) {
  if (!Out.Reached || !N.Term)
    return Out;
  if (std::optional<GuardCon> G = guardConstraint(N.Term->Cond, I == 0, Str)) {
    std::vector<GuardCon> &V = Out.Names[N.Term->Cond.Name];
    if (std::find(V.begin(), V.end(), *G) == V.end())
      V.push_back(*G);
  }
  return Out;
}

bool meetInto(GuardState &Into, const GuardState &From) {
  if (!From.Reached)
    return false;
  if (!Into.Reached) {
    Into = From;
    return true;
  }
  // A constraint survives the meet only if every incoming path implies it.
  bool Changed = false;
  for (auto It = Into.Names.begin(); It != Into.Names.end();) {
    auto FIt = From.Names.find(It->first);
    std::vector<GuardCon> &V = It->second;
    size_t Before = V.size();
    if (FIt == From.Names.end())
      V.clear();
    else
      V.erase(std::remove_if(V.begin(), V.end(),
                             [&](const GuardCon &C) {
                               return std::find(FIt->second.begin(),
                                                FIt->second.end(),
                                                C) == FIt->second.end();
                             }),
              V.end());
    Changed = Changed || V.size() != Before;
    if (V.empty())
      It = Into.Names.erase(It);
    else
      ++It;
  }
  return Changed;
}

bool stateUnsat(const GuardState &S) {
  for (const auto &[Name, Cs] : S.Names)
    if (!satisfiable(Cs))
      return true;
  return false;
}

std::string renderCond(const CondExpr &C) {
  switch (C.Cmp) {
  case CondExpr::Truthy:
    return C.Name;
  case CondExpr::Falsy:
    return "!" + C.Name;
  default:
    break;
  }
  static const char *RelStr[] = {"", "", "==", "!=", "<", "<=", ">", ">="};
  std::string Rhs;
  switch (C.Rhs.Kind) {
  case Expr::IntLit:
    Rhs = std::to_string(C.Rhs.Value);
    break;
  case Expr::StringLit:
    Rhs = "\"" + C.Rhs.Text + "\"";
    break;
  case Expr::Name:
    Rhs = C.Rhs.Text;
    break;
  }
  return C.Name + " " + RelStr[C.Cmp] + " " + Rhs;
}

//===----------------------------------------------------------------------===//
// Dead/absorbed-write elimination
//===----------------------------------------------------------------------===//

/// Collects the slot indices the \p Src (or \p Tgt) side of \p C mentions.
void collectSlots(const Cond &C, bool Src, std::set<unsigned> &Out) {
  switch (C.kind()) {
  case Cond::NodeKind::Atom:
    for (Term T : {C.atomLHS(), C.atomRHS()})
      if (Src ? T.Kind == Term::ArgSrc : T.Kind == Term::ArgTgt)
        Out.insert(T.Index);
    break;
  case Cond::NodeKind::Not:
  case Cond::NodeKind::And:
  case Cond::NodeKind::Or:
    for (const Cond &Ch : C.children())
      collectSlots(Ch, Src, Out);
    break;
  default:
    break;
  }
}

/// The argument slots of operation \p OpIdx that any interference formula of
/// the analysis can inspect: slots mentioned in a commutativity or
/// absorption condition pairing \p OpIdx with any operation of the type (in
/// any mode, on either side), plus value-determination slots. Two events
/// that agree syntactically on these slots are interchangeable for the
/// SSG's edge predicates.
std::set<unsigned> relevantSlots(const DataTypeSpec &T, unsigned OpIdx) {
  std::set<unsigned> S;
  unsigned N = static_cast<unsigned>(T.ops().size());
  for (unsigned X = 0; X != N; ++X) {
    for (CommuteMode M :
         {CommuteMode::Plain, CommuteMode::Far, CommuteMode::Asym}) {
      collectSlots(commutesCond(T, OpIdx, X, M), true, S);
      collectSlots(commutesCond(T, X, OpIdx, M), false, S);
    }
    for (bool Far : {false, true}) {
      collectSlots(absorbsCond(T, OpIdx, X, Far), true, S);
      collectSlots(absorbsCond(T, X, OpIdx, Far), false, S);
    }
    if (T.ops()[X].isQuery()) {
      ValueDet VD = T.valueDetermination(OpIdx, X);
      if (VD.Kind == ValueDet::Slot || VD.Kind == ValueDet::SlotLowerBound)
        S.insert(VD.SlotIdx);
    }
  }
  return S;
}

bool sameExpr(const Expr &A, const Expr &B) {
  if (A.Kind != B.Kind)
    return false;
  return A.Kind == Expr::IntLit ? A.Value == B.Value : A.Text == B.Text;
}

/// Decides whether update statement \p U is provably absorbed by the later
/// same-op update \p V of the same basic block, with \p Rebound the names
/// `let`-rebound between them.
bool provablyAbsorbed(const Stmt &U, const Stmt &V, const DataTypeSpec &T,
                      const OpSig &Op, const std::set<std::string> &Rebound,
                      Interner &Str) {
  if (U.Args.size() != Op.NumArgs || V.Args.size() != Op.NumArgs)
    return false;
  // A rebound name in V denotes a different value than the same text in U,
  // so neither the shared-symbol facts nor syntactic identity would hold.
  for (const Expr &E : V.Args)
    if (E.Kind == Expr::Name && Rebound.count(E.Text))
      return false;
  unsigned OpIdx = T.opIndex(Op);
  for (unsigned S : relevantSlots(T, OpIdx)) {
    if (S >= Op.NumArgs)
      continue;
    if (!sameExpr(U.Args[S], V.Args[S]))
      return false;
  }
  Cond Abs = absorbsCond(T, OpIdx, OpIdx, /*Far=*/true);
  if (Abs.isFalse())
    return false;
  if (Abs.isTrue())
    return true;
  // Far absorption must *hold* (not merely be satisfiable) under the
  // syntactic arguments: same name => same value (symbol), literals =>
  // constants. It holds iff its negation is unsatisfiable.
  EventFacts FU(Op.numVals()), FV(Op.numVals());
  std::map<std::string, unsigned> Sym;
  auto ExprFact = [&](const Expr &E) {
    switch (E.Kind) {
    case Expr::IntLit:
      return ArgFact::constant(E.Value);
    case Expr::StringLit:
      return ArgFact::constant(Str.intern(E.Text));
    case Expr::Name:
      break;
    }
    auto It = Sym.emplace(E.Text, static_cast<unsigned>(Sym.size())).first;
    return ArgFact::symbol(It->second);
  };
  for (unsigned K = 0; K != Op.NumArgs; ++K) {
    FU[K] = ExprFact(U.Args[K]);
    FV[K] = ExprFact(V.Args[K]);
  }
  return !(!Abs).satisfiableUnder(FU, FV);
}

//===----------------------------------------------------------------------===//
// Per-transaction analysis and rewriting
//===----------------------------------------------------------------------===//

/// The rewrites one analysis round decided on, keyed by AST node. Statement
/// objects are heap-allocated, so the keys stay valid while arms are
/// spliced.
struct TxnActions {
  /// If-statement => surviving arm: 0 keep-then, 1 keep-else, 2 drop both.
  std::map<Stmt *, int> PruneIf;
  std::set<Stmt *> Remove; ///< absorbed updates to delete
  std::vector<std::pair<Expr *, int64_t>> Props; ///< name arg => literal
  std::vector<LintDiagnostic> Lints;

  bool any() const {
    return !PruneIf.empty() || !Remove.empty() || !Props.empty();
  }
};

void dweScan(const CFGNode &Node, const Schema &Sch, Interner &Str,
             const std::string &TxnName, TxnActions &A) {
  for (size_t I = 0; I != Node.Stmts.size(); ++I) {
    Stmt *U = Node.Stmts[I];
    if (U->Kind != Stmt::Call)
      continue;
    int CId = Sch.lookup(U->Container);
    if (CId < 0)
      continue;
    const DataTypeSpec *T = Sch.container(static_cast<unsigned>(CId)).Type;
    const OpSig *Op = T->findOp(U->Op);
    // Only plain updates are candidates: queries have no absorbable effect,
    // and fresh creators return identities the transaction may rely on.
    if (!Op || !Op->isUpdate() || Op->Fresh || Op->HasRet)
      continue;
    std::set<std::string> Rebound;
    for (size_t J = I + 1; J != Node.Stmts.size(); ++J) {
      Stmt *V = Node.Stmts[J];
      if (V->Kind == Stmt::Let) {
        if (V->Container == U->Container)
          break; // the query observes U; not dead
        Rebound.insert(V->LetName);
        continue;
      }
      if (V->Kind != Stmt::Call)
        continue;
      if (V->Container != U->Container)
        continue; // other containers commute with U
      if (V->Op == U->Op && provablyAbsorbed(*U, *V, *T, *Op, Rebound, Str)) {
        A.Remove.insert(U);
        A.Lints.push_back(
            {"C4L-W005", U->Line, TxnName,
             "redundant update '" + U->Container + "." + U->Op +
                 "' is absorbed by the identical update on line " +
                 std::to_string(V->Line)});
      }
      break; // any other same-container access ends U's absorption window
    }
  }
}

TxnActions analyzeTxn(TxnDecl &Txn, const Schema &Sch, Interner &Str,
                      const std::set<std::string> &SymbolicNames) {
  TxnActions A;
  TxnCFG G(Txn);
  std::vector<GuardState> In = runForwardDataflow(
      G, GuardState{true, {}}, GuardState{},
      [&](GuardState S, unsigned N) {
        return transferBlock(std::move(S), G.node(N));
      },
      [&](const GuardState &Out, unsigned N, unsigned I) {
        return edgeRefine(Out, G.node(N), I, Str);
      },
      meetInto);

  for (unsigned N : G.rpo()) {
    // A block whose in-state is contradictory is dynamically unreachable;
    // the branch that introduced the contradiction is reported (and pruned)
    // at its own node, so skip derived findings here.
    if (!In[N].Reached || stateUnsat(In[N]))
      continue;
    const CFGNode &Node = G.node(N);
    GuardState Cur = In[N];
    for (Stmt *S : Node.Stmts) {
      if (S->Kind == Stmt::Call || S->Kind == Stmt::Let)
        for (Expr &E : S->Args) {
          if (E.Kind != Expr::Name || SymbolicNames.count(E.Text))
            continue;
          auto It = Cur.Names.find(E.Text);
          if (It == Cur.Names.end())
            continue;
          if (std::optional<int64_t> V = pointValue(It->second))
            A.Props.push_back({&E, *V});
        }
      if (S->Kind == Stmt::Let)
        Cur.Names.erase(S->LetName);
    }
    if (Stmt *IfS = Node.Term) {
      bool Inf[2] = {false, false};
      for (int I = 0; I != 2; ++I)
        if (std::optional<GuardCon> GC =
                guardConstraint(IfS->Cond, I == 0, Str)) {
          std::vector<GuardCon> L;
          if (auto It = Cur.Names.find(IfS->Cond.Name);
              It != Cur.Names.end())
            L = It->second;
          L.push_back(*GC);
          Inf[I] = !satisfiable(L);
        }
      if (Inf[0] || Inf[1]) {
        A.PruneIf[IfS] = Inf[0] && Inf[1] ? 2 : (Inf[0] ? 1 : 0);
        // Pruning an empty arm is a useful reduction (it deletes the guard
        // structure) but not worth a diagnostic.
        if (Inf[0] && !IfS->Then.empty())
          A.Lints.push_back({"C4L-W003", IfS->Cond.Line, Txn.Name,
                             "guard '" + renderCond(IfS->Cond) +
                                 "' is always false; the then branch is "
                                 "unreachable"});
        if (Inf[1] && !IfS->Else.empty())
          A.Lints.push_back({"C4L-W003", IfS->Cond.Line, Txn.Name,
                             "guard '" + renderCond(IfS->Cond) +
                                 "' is always true; the else branch is "
                                 "unreachable"});
      }
    }
    dweScan(Node, Sch, Str, Txn.Name, A);
  }
  return A;
}

void applyToList(std::vector<StmtPtr> &L, const TxnActions &A) {
  for (size_t I = 0; I < L.size();) {
    Stmt *S = L[I].get();
    if (A.Remove.count(S)) {
      L.erase(L.begin() + static_cast<ptrdiff_t>(I));
      continue;
    }
    if (S->Kind == Stmt::If) {
      auto It = A.PruneIf.find(S);
      if (It != A.PruneIf.end()) {
        std::vector<StmtPtr> Arm;
        if (It->second != 2)
          Arm = std::move(It->second == 0 ? S->Then : S->Else);
        L.erase(L.begin() + static_cast<ptrdiff_t>(I));
        L.insert(L.begin() + static_cast<ptrdiff_t>(I),
                 std::make_move_iterator(Arm.begin()),
                 std::make_move_iterator(Arm.end()));
        continue; // reprocess the spliced statements
      }
      applyToList(S->Then, A);
      applyToList(S->Else, A);
    }
    ++I;
  }
}

void applyActions(TxnDecl &Txn, const TxnActions &A) {
  // Literal substitution first: some targeted expressions live in arms
  // about to be spliced away (mutating them is harmless).
  for (const auto &[E, V] : A.Props) {
    E->Kind = Expr::IntLit;
    E->Value = V;
    E->Text.clear();
  }
  applyToList(Txn.Body, A);
}

//===----------------------------------------------------------------------===//
// Program-level lints (W001 / W002 / W004)
//===----------------------------------------------------------------------===//

void walkContainerUses(const std::vector<StmtPtr> &L, const Schema &Sch,
                       std::vector<bool> &Upd, std::vector<bool> &Qry,
                       std::set<unsigned> &TxnUpd) {
  for (const StmtPtr &SP : L) {
    const Stmt &S = *SP;
    if (S.Kind == Stmt::If) {
      walkContainerUses(S.Then, Sch, Upd, Qry, TxnUpd);
      walkContainerUses(S.Else, Sch, Upd, Qry, TxnUpd);
      continue;
    }
    if (S.Kind != Stmt::Call && S.Kind != Stmt::Let)
      continue;
    int CId = Sch.lookup(S.Container);
    if (CId < 0)
      continue;
    const OpSig *Op =
        Sch.container(static_cast<unsigned>(CId)).Type->findOp(S.Op);
    if (!Op)
      continue;
    if (Op->isUpdate()) {
      Upd[static_cast<unsigned>(CId)] = true;
      TxnUpd.insert(static_cast<unsigned>(CId));
    } else {
      Qry[static_cast<unsigned>(CId)] = true;
    }
  }
}

void programLints(const ProgramAST &AST, const Schema &Sch,
                  std::vector<LintDiagnostic> &Out) {
  std::vector<bool> Upd(Sch.numContainers()), Qry(Sch.numContainers());

  // Resolve declared atomic sets to container-id groups.
  std::vector<std::set<unsigned>> Sets;
  for (const AtomicSetDecl &D : AST.AtomicSets) {
    std::set<unsigned> Ids;
    for (const std::string &Name : D.Containers)
      if (int CId = Sch.lookup(Name); CId >= 0)
        Ids.insert(static_cast<unsigned>(CId));
    Sets.push_back(std::move(Ids));
  }

  for (const TxnDecl &T : AST.Txns) {
    std::set<unsigned> TxnUpd;
    walkContainerUses(T.Body, Sch, Upd, Qry, TxnUpd);
    if (TxnUpd.size() < 2)
      continue;
    bool Covered = false;
    for (const std::set<unsigned> &S : Sets)
      Covered = Covered || std::includes(S.begin(), S.end(), TxnUpd.begin(),
                                         TxnUpd.end());
    if (Covered)
      continue;
    std::string List;
    for (unsigned C : TxnUpd)
      List += (List.empty() ? "'" : ", '") + Sch.container(C).Name + "'";
    Out.push_back({"C4L-W004", T.Line, T.Name,
                   "updates " + std::to_string(TxnUpd.size()) +
                       " containers (" + List +
                       ") that no atomic set groups together"});
  }

  auto DeclLine = [&](const std::string &Name) -> unsigned {
    for (const ContainerDeclAST &D : AST.Containers)
      if (D.Name == Name)
        return D.Line;
    return 1;
  };
  for (unsigned C = 0; C != Sch.numContainers(); ++C) {
    const std::string &Name = Sch.container(C).Name;
    if (Upd[C] && !Qry[C])
      Out.push_back({"C4L-W001", DeclLine(Name), "",
                     "container '" + Name +
                         "' is updated but never queried; its writes are "
                         "unobservable"});
    if (Qry[C] && !Upd[C])
      Out.push_back({"C4L-W002", DeclLine(Name), "",
                     "container '" + Name +
                         "' is queried but no transaction ever updates it"});
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Fresh-identity promotion
//===----------------------------------------------------------------------===//

unsigned c4::promoteFreshFacts(CompiledProgram &P) {
  AbstractHistory &H = *P.History;
  unsigned Count = 0;
  for (unsigned T = 0; T != H.numTxns(); ++T) {
    const AbstractTxn &Txn = H.txn(T);
    unsigned NE = static_cast<unsigned>(Txn.Events.size());
    std::map<unsigned, unsigned> Local;
    for (unsigned I = 0; I != NE; ++I)
      Local[Txn.Events[I]] = I;
    std::vector<std::vector<unsigned>> Preds(NE), Succs(NE);
    for (const AbstractConstraint &E : Txn.Eo) {
      unsigned S = Local.at(E.Src), D = Local.at(E.Tgt);
      Succs[S].push_back(D);
      Preds[D].push_back(S);
    }

    // Reachability from the entry marker (local index 0).
    std::vector<bool> Reach(NE, false);
    std::vector<unsigned> Work{0};
    Reach[0] = true;
    while (!Work.empty()) {
      unsigned N = Work.back();
      Work.pop_back();
      for (unsigned S : Succs[N])
        if (!Reach[S]) {
          Reach[S] = true;
          Work.push_back(S);
        }
    }

    // Event-level dominators over the eo DAG, ignoring edge guards: every
    // eo path counts, so domination is harder to establish than in any
    // single execution — conservative in the right direction. Transactions
    // are small; the quadratic set representation is fine.
    std::vector<std::vector<bool>> Dom(NE, std::vector<bool>(NE, true));
    Dom[0].assign(NE, false);
    Dom[0][0] = true;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (unsigned I = 1; I < NE; ++I) {
        if (Preds[I].empty())
          continue;
        std::vector<bool> New(NE, true);
        for (unsigned Pd : Preds[I])
          for (unsigned K = 0; K != NE; ++K)
            New[K] = New[K] && Dom[Pd][K];
        New[I] = true;
        if (New != Dom[I]) {
          Dom[I] = std::move(New);
          Changed = true;
        }
      }
    }

    // Provenance fixpoint: (event, slot) pairs provably carrying the fresh
    // identity of a dominating creator. Seeds are the creators' return
    // slots; equalities inferred by the front end (pair invariants of the
    // exact shape argsrc(i) == argtgt(j)) extend the set, but only across a
    // hop whose known end dominates the other — the invariant is vacuous on
    // executions that skip either event, so domination is what guarantees
    // the value actually flows.
    std::map<std::pair<unsigned, unsigned>, unsigned> Prov;
    for (unsigned I = 0; I != NE; ++I) {
      unsigned Ev = Txn.Events[I];
      if (H.event(Ev).isMarker() || !Reach[I])
        continue;
      const OpSig &Op = H.op(Ev);
      if (Op.Fresh && Op.HasRet)
        Prov[{Ev, Op.NumArgs}] = Ev;
    }
    bool PChanged = !Prov.empty();
    while (PChanged) {
      PChanged = false;
      for (const AbstractConstraint &Inv : Txn.Invs) {
        if (Inv.C.kind() != Cond::NodeKind::Atom ||
            Inv.C.atomCmp() != CmpKind::Eq)
          continue;
        Term L = Inv.C.atomLHS(), R = Inv.C.atomRHS();
        unsigned SIdx, TIdx;
        if (L.Kind == Term::ArgSrc && R.Kind == Term::ArgTgt) {
          SIdx = L.Index;
          TIdx = R.Index;
        } else if (L.Kind == Term::ArgTgt && R.Kind == Term::ArgSrc) {
          SIdx = R.Index;
          TIdx = L.Index;
        } else {
          continue;
        }
        unsigned S = Inv.Src, G = Inv.Tgt;
        auto SIt = Prov.find({S, SIdx}), TIt = Prov.find({G, TIdx});
        if (SIt != Prov.end() && TIt == Prov.end() && Reach[Local.at(G)] &&
            Dom[Local.at(G)][Local.at(S)]) {
          Prov[{G, TIdx}] = SIt->second;
          PChanged = true;
        } else if (TIt != Prov.end() && SIt == Prov.end() &&
                   Reach[Local.at(S)] && Dom[Local.at(S)][Local.at(G)]) {
          Prov[{S, SIdx}] = TIt->second;
          PChanged = true;
        }
      }
    }

    for (const auto &[Key, Creator] : Prov) {
      auto [Ev, Slot] = Key;
      const AbstractEvent &AE = H.event(Ev);
      AbsFact Cur =
          Slot < AE.Facts.size() ? AE.Facts[Slot] : AbsFact::free();
      if (Cur.Kind != AbsFact::Free)
        continue; // existing facts are at least as strong; keep them
      H.setFact(Ev, Slot, AbsFact::freshVar(Creator));
      ++Count;
    }
  }
  return Count;
}

//===----------------------------------------------------------------------===//
// Pipeline driver
//===----------------------------------------------------------------------===//

PassResult c4::runPasses(CompiledProgram &P, const PassOptions &Opts,
                         const std::string *Source) {
  auto T0 = std::chrono::steady_clock::now();
  PassResult R;
  auto Finish = [&]() -> PassResult & {
    R.Stats.Seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
            .count();
    return R;
  };

  R.Stats.EventsBefore = P.History->numStoreEvents();
  if (Opts.Lint && P.AST)
    programLints(*P.AST, *P.Sch, R.Lints);

  if ((Opts.Lint || Opts.Reduce) && P.AST) {
    std::set<std::string> SymbolicNames(P.AST->SessionConsts.begin(),
                                        P.AST->SessionConsts.end());
    SymbolicNames.insert(P.AST->GlobalConsts.begin(),
                         P.AST->GlobalConsts.end());
    std::unique_ptr<ProgramAST> Clone = cloneAST(*P.AST);
    bool Any = false;
    constexpr unsigned MaxRounds = 8;
    for (unsigned Round = 0; Round != MaxRounds; ++Round) {
      bool Changed = false;
      for (TxnDecl &Txn : Clone->Txns) {
        TxnActions A = analyzeTxn(Txn, *P.Sch, *P.Strings, SymbolicNames);
        if (Opts.Lint)
          R.Lints.insert(R.Lints.end(), A.Lints.begin(), A.Lints.end());
        if (!Opts.Reduce || !A.any())
          continue;
        for (const auto &[IfS, Keep] : A.PruneIf) {
          (void)IfS;
          (void)Keep;
          ++R.Stats.PrunedBranches;
        }
        R.Stats.DeadWrites += static_cast<unsigned>(A.Remove.size());
        R.Stats.ConstProps += static_cast<unsigned>(A.Props.size());
        applyActions(Txn, A);
        Changed = true;
      }
      if (Changed) {
        Any = true;
        R.Stats.Iterations = Round + 1;
      }
      if (!Opts.Reduce || !Changed)
        break;
    }
    if (Any) {
      std::string Err;
      if (!rebuildFromAST(P, *Clone, Err)) {
        R.Ok = false;
        R.Error = "pass pipeline: " + Err;
        R.Lints.clear();
        R.Stats = PassStats{};
        R.Stats.EventsBefore = R.Stats.EventsAfter =
            P.History->numStoreEvents();
        return Finish();
      }
      P.AST = std::move(Clone);
      R.Changed = true;
    }
  }

  if (Opts.Reduce && Opts.UniqueValues)
    R.Stats.FreshPromotions = promoteFreshFacts(P);

  R.Stats.EventsAfter = P.History->numStoreEvents();
  sortLints(R.Lints);
  if (Source)
    R.Lints = filterSuppressedLints(std::move(R.Lints), *Source);
  return Finish();
}
