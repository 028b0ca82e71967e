//===- analysis/VerdictCache.cpp ------------------------------------------===//
//
// Part of the C4 serializability analyzer. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "analysis/VerdictCache.h"

#include "abstract/AbstractHistory.h"
#include "support/Fingerprint.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace c4;

//===----------------------------------------------------------------------===//
// Fingerprint
//===----------------------------------------------------------------------===//

std::string c4::fingerprintAnalysis(const AbstractHistory &A,
                                    const AnalyzerOptions &O) {
  Fingerprint F;
  // Format + spec versioning: either bump invalidates every prior entry.
  F.addStr("c4-analysis-fp-1");
  F.addU64(kSpecRevision);

  // Schema: container names with their types' full op signatures (custom
  // registered types must not collide with built-ins of the same shape).
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

  // The abstract history. Labels and transaction names are included: they
  // flow into the persisted counter-example text and violation names.
  F.addU64(A.numEvents());
  F.addU64(A.numTxns());
  F.addU64(A.numLocalVars());
  F.addU64(A.numGlobalVars());
  for (unsigned E = 0; E != A.numEvents(); ++E) {
    const AbstractEvent &Ev = A.event(E);
    F.addU64(Ev.Txn);
    F.addU64(Ev.Container);
    F.addU64(Ev.Op);
    F.addBool(Ev.Display);
    F.addStr(Ev.Label);
    F.addU64(Ev.Facts.size());
    for (const AbsFact &Fact : Ev.Facts) {
      F.addU64(static_cast<uint64_t>(Fact.Kind));
      F.addI64(Fact.Value);
      F.addU64(Fact.Var);
    }
  }
  for (unsigned T = 0; T != A.numTxns(); ++T) {
    const AbstractTxn &Txn = A.txn(T);
    F.addStr(Txn.Name);
    F.addU64(Txn.Events.size());
    for (unsigned E : Txn.Events)
      F.addU64(E);
    auto AddConstraints = [&F](const std::vector<AbstractConstraint> &Cs) {
      F.addU64(Cs.size());
      for (const AbstractConstraint &C : Cs) {
        F.addU64(C.Src);
        F.addU64(C.Tgt);
        F.addStr(C.C.str()); // deterministic rendering of the condition tree
      }
    };
    AddConstraints(Txn.Eo);
    AddConstraints(Txn.Invs);
  }
  for (unsigned X = 0; X != A.numTxns(); ++X)
    for (unsigned Y = 0; Y != A.numTxns(); ++Y)
      F.addBool(A.maySo(X, Y));

  // Verdict-affecting options. NumThreads, UseOracle, ReuseEnv, Trace,
  // UseIncremental and the incremental-layer pointers are
  // observability-only and deliberately absent (the incremental layers
  // replay solver-proved verdicts; their reuse counters vary with cache
  // state, like the oracle cache counters, and differential tooling
  // normalizes them).
  F.addBool(O.Features.Commutativity);
  F.addBool(O.Features.Absorption);
  F.addBool(O.Features.Constraints);
  F.addBool(O.Features.ControlFlow);
  F.addBool(O.Features.AsymmetricAntiDeps);
  F.addBool(O.Features.UniqueValues);
  F.addU64(O.MaxK);
  F.addU64(O.MaxUnfoldings);
  F.addU64(O.MaxCandidateCycles);
  F.addU64(O.Budget.Rlimit);
  F.addU64(O.Budget.Escalation);
  F.addU64(O.Budget.MaxRetries);
  F.addU64(O.Budget.RlimitCap);
  F.addU64(O.Budget.WallMs);
  F.addU64(O.DeadlineMs);
  F.addU64(O.LayoutDfsBudget);
  F.addBool(O.DisplayFilter);
  F.addBool(O.UseAtomicSets);
  F.addU64(O.AtomicSets.size());
  for (const std::vector<unsigned> &Set : O.AtomicSets) {
    F.addU64(Set.size());
    for (unsigned C : Set)
      F.addU64(C);
  }
  return F.digest();
}

//===----------------------------------------------------------------------===//
// Result serialization
//===----------------------------------------------------------------------===//

namespace {

constexpr const char *BlobHeader = "c4-verdict 5";

/// Newlines and backslashes are the only characters the line-based format
/// cannot carry verbatim.
std::string escapeLine(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '\n')
      Out += "\\n";
    else if (C == '\r')
      Out += "\\r";
    else
      Out += C;
  }
  return Out;
}

std::string unescapeLine(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (size_t I = 0; I != S.size(); ++I) {
    if (S[I] != '\\' || I + 1 == S.size()) {
      Out += S[I];
      continue;
    }
    char N = S[++I];
    Out += N == 'n' ? '\n' : N == 'r' ? '\r' : N;
  }
  return Out;
}

void addField(std::string &Out, const char *Key, const std::string &Val) {
  Out += Key;
  Out += ' ';
  Out += Val;
  Out += '\n';
}

std::string hexFloat(double D) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%a", D);
  return Buf;
}

/// Line-oriented strict reader over the blob.
class Reader {
public:
  explicit Reader(const std::string &Blob) : B(Blob) {}

  bool line(std::string &Out) {
    if (Pos >= B.size())
      return false;
    size_t End = B.find('\n', Pos);
    if (End == std::string::npos)
      return false; // truncated final line
    Out = B.substr(Pos, End - Pos);
    Pos = End + 1;
    return true;
  }

  /// Reads `<key> <value>` with an exact key match.
  bool field(const char *Key, std::string &Val) {
    std::string L;
    if (!line(L))
      return false;
    size_t KeyLen = std::strlen(Key);
    if (L.size() < KeyLen + 2 || L.compare(0, KeyLen, Key) != 0 ||
        L[KeyLen] != ' ')
      return false;
    Val = L.substr(KeyLen + 1);
    return true;
  }

  bool u64(const char *Key, uint64_t &Out) {
    std::string V;
    if (!field(Key, V) || V.empty())
      return false;
    char *End = nullptr;
    errno = 0;
    unsigned long long X = std::strtoull(V.c_str(), &End, 10);
    if (errno == ERANGE || !End || *End)
      return false;
    Out = X;
    return true;
  }

  bool u32(const char *Key, unsigned &Out) {
    uint64_t X = 0;
    if (!u64(Key, X) || X > 0xFFFFFFFFull)
      return false;
    Out = static_cast<unsigned>(X);
    return true;
  }

  bool boolean(const char *Key, bool &Out) {
    uint64_t X = 0;
    if (!u64(Key, X) || X > 1)
      return false;
    Out = X != 0;
    return true;
  }

  bool dbl(const char *Key, double &Out) {
    std::string V;
    if (!field(Key, V) || V.empty())
      return false;
    char *End = nullptr;
    Out = std::strtod(V.c_str(), &End);
    return End && !*End;
  }

  bool atEnd() const { return Pos == B.size(); }

private:
  const std::string &B;
  size_t Pos = 0;
};

} // namespace

std::string c4::serializeResult(const AnalysisResult &R) {
  std::string Out = BlobHeader;
  Out += '\n';
  addField(Out, "generalized", std::to_string(R.Generalized));
  addField(Out, "fast_proved", std::to_string(R.FastProvedSerializable));
  addField(Out, "k_checked", std::to_string(R.KChecked));
  addField(Out, "unfoldings_checked", std::to_string(R.UnfoldingsChecked));
  addField(Out, "unfoldings_subsumed", std::to_string(R.UnfoldingsSubsumed));
  addField(Out, "layouts_filtered", std::to_string(R.LayoutsFiltered));
  addField(Out, "ssg_edges", std::to_string(R.SSGEdges));
  addField(Out, "smt_queries", std::to_string(R.SmtQueries));
  addField(Out, "ssg_flagged", std::to_string(R.SSGFlagged));
  addField(Out, "smt_refuted", std::to_string(R.SMTRefuted));
  addField(Out, "smt_unknown", std::to_string(R.SMTUnknown));
  addField(Out, "smt_retries", std::to_string(R.SMTRetries));
  addField(Out, "smt_solves", std::to_string(R.SmtSolves));
  addField(Out, "rlimit_spent", std::to_string(R.RlimitSpent));
  addField(Out, "truncated", std::to_string(R.Truncated));
  addField(Out, "deadline_expired", std::to_string(R.DeadlineExpired));
  addField(Out, "unfoldings_deferred", std::to_string(R.UnfoldingsDeferred));
  addField(Out, "dfs_budget_exhausted",
           std::to_string(R.DfsBudgetExhausted));
  addField(Out, "cond_cache_hits", std::to_string(R.CondCacheHits));
  addField(Out, "cond_cache_misses", std::to_string(R.CondCacheMisses));
  addField(Out, "sat_cache_hits", std::to_string(R.SatCacheHits));
  addField(Out, "sat_cache_misses", std::to_string(R.SatCacheMisses));
  addField(Out, "txn_fingerprint_hits", std::to_string(R.TxnFingerprintHits));
  addField(Out, "solver_ctx_reuses", std::to_string(R.SolverCtxReuses));
  addField(Out, "backend_seconds", hexFloat(R.BackendSeconds));
  addField(Out, "ssg_seconds", hexFloat(R.SSGSeconds));
  addField(Out, "enum_seconds", hexFloat(R.EnumSeconds));
  addField(Out, "smt_seconds", hexFloat(R.SmtSeconds));
  addField(Out, "incremental_seconds", hexFloat(R.IncrementalSeconds));
  addField(Out, "validate_seconds", hexFloat(R.ValidateSeconds));
  addField(Out, "violations", std::to_string(R.Violations.size()));
  for (const Violation &V : R.Violations) {
    addField(Out, "v.flags", std::to_string(V.Inconclusive) + " " +
                                 std::to_string(V.Validated));
    std::string Origs;
    for (size_t I = 0; I != V.OrigTxns.size(); ++I)
      Origs += (I ? "," : "") + std::to_string(V.OrigTxns[I]);
    addField(Out, "v.orig", Origs);
    addField(Out, "v.names", std::to_string(V.TxnNames.size()));
    for (const std::string &N : V.TxnNames)
      addField(Out, "v.name", escapeLine(N));
    addField(Out, "v.ce",
             escapeLine(V.CE ? V.CE->Text : V.CEText));
  }
  return Out;
}

std::optional<AnalysisResult> c4::deserializeResult(const std::string &Blob) {
  Reader Rd(Blob);
  std::string Header;
  if (!Rd.line(Header) || Header != BlobHeader)
    return std::nullopt;
  AnalysisResult R;
  unsigned NumViolations = 0;
  bool Ok = Rd.boolean("generalized", R.Generalized) &&
            Rd.boolean("fast_proved", R.FastProvedSerializable) &&
            Rd.u32("k_checked", R.KChecked) &&
            Rd.u32("unfoldings_checked", R.UnfoldingsChecked) &&
            Rd.u32("unfoldings_subsumed", R.UnfoldingsSubsumed) &&
            Rd.u32("layouts_filtered", R.LayoutsFiltered) &&
            Rd.u32("ssg_edges", R.SSGEdges) &&
            Rd.u32("smt_queries", R.SmtQueries) &&
            Rd.u32("ssg_flagged", R.SSGFlagged) &&
            Rd.u32("smt_refuted", R.SMTRefuted) &&
            Rd.u32("smt_unknown", R.SMTUnknown) &&
            Rd.u32("smt_retries", R.SMTRetries) &&
            Rd.u32("smt_solves", R.SmtSolves) &&
            Rd.u64("rlimit_spent", R.RlimitSpent) &&
            Rd.boolean("truncated", R.Truncated) &&
            Rd.boolean("deadline_expired", R.DeadlineExpired) &&
            Rd.u32("unfoldings_deferred", R.UnfoldingsDeferred) &&
            Rd.u32("dfs_budget_exhausted", R.DfsBudgetExhausted) &&
            Rd.u64("cond_cache_hits", R.CondCacheHits) &&
            Rd.u64("cond_cache_misses", R.CondCacheMisses) &&
            Rd.u64("sat_cache_hits", R.SatCacheHits) &&
            Rd.u64("sat_cache_misses", R.SatCacheMisses) &&
            Rd.u64("txn_fingerprint_hits", R.TxnFingerprintHits) &&
            Rd.u64("solver_ctx_reuses", R.SolverCtxReuses) &&
            Rd.dbl("backend_seconds", R.BackendSeconds) &&
            Rd.dbl("ssg_seconds", R.SSGSeconds) &&
            Rd.dbl("enum_seconds", R.EnumSeconds) &&
            Rd.dbl("smt_seconds", R.SmtSeconds) &&
            Rd.dbl("incremental_seconds", R.IncrementalSeconds) &&
            Rd.dbl("validate_seconds", R.ValidateSeconds) &&
            Rd.u32("violations", NumViolations) &&
            NumViolations <= 4096;
  if (!Ok)
    return std::nullopt;
  for (unsigned I = 0; I != NumViolations; ++I) {
    Violation V;
    std::string Flags, Origs, CE;
    unsigned NumNames = 0;
    if (!Rd.field("v.flags", Flags) || Flags.size() != 3 ||
        (Flags[0] != '0' && Flags[0] != '1') || Flags[1] != ' ' ||
        (Flags[2] != '0' && Flags[2] != '1'))
      return std::nullopt;
    V.Inconclusive = Flags[0] == '1';
    V.Validated = Flags[2] == '1';
    if (!Rd.field("v.orig", Origs))
      return std::nullopt;
    size_t Pos = 0;
    while (Pos < Origs.size()) {
      size_t End = Origs.find(',', Pos);
      std::string Item = Origs.substr(
          Pos, End == std::string::npos ? End : End - Pos);
      char *E = nullptr;
      errno = 0;
      unsigned long T = std::strtoul(Item.c_str(), &E, 10);
      if (errno == ERANGE || !E || *E || T > 0xFFFFFFFFul)
        return std::nullopt;
      V.OrigTxns.push_back(static_cast<unsigned>(T));
      Pos = End == std::string::npos ? Origs.size() : End + 1;
    }
    if (!Rd.u32("v.names", NumNames) || NumNames > 4096)
      return std::nullopt;
    for (unsigned N = 0; N != NumNames; ++N) {
      std::string Name;
      if (!Rd.field("v.name", Name))
        return std::nullopt;
      V.TxnNames.push_back(unescapeLine(Name));
    }
    if (!Rd.field("v.ce", CE))
      return std::nullopt;
    V.CEText = unescapeLine(CE);
    R.Violations.push_back(std::move(V));
  }
  if (!Rd.atEnd())
    return std::nullopt;
  return R;
}

std::string c4::verdictDigest(const AnalysisResult &R) {
  std::string Out = R.serializable() ? "S|" : "V|";
  std::vector<std::string> Entries;
  for (const Violation &V : R.Violations) {
    std::string E;
    for (size_t I = 0; I != V.TxnNames.size(); ++I)
      E += (I ? "," : "") + V.TxnNames[I];
    E += V.Inconclusive ? '?' : (V.Validated ? '!' : '~');
    Entries.push_back(std::move(E));
  }
  std::sort(Entries.begin(), Entries.end());
  for (const std::string &E : Entries) {
    Out += E;
    Out += ';';
  }
  return Out;
}
