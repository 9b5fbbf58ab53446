//===--- Programs.cpp - The table3 workload --------------------------------===//
//
// One client analysing one of the paper's 59 programs at a time, the way
// the CLI does it: parse, lower, check (verifier on), the scheduled
// analysis with the program's focus function, then the certificate built
// and checked.  The timed window runs whole passes over the program set,
// each pass in a seeded order, so every run does the same mix of work.
//
// Why this workload: small real programs where constraint generation, the
// logic layer's queries and the certificate check are a large share of a
// verdict and there is almost no cross-SCC splicing.  The main workload for
// query avoidance; the bypass for summary projection.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include "c4b/cert/Certificate.h"
#include "c4b/check/CostRelevance.h"
#include "c4b/check/Intervals.h"
#include "c4b/corpus/Corpus.h"
#include "c4b/logic/Context.h"
#include "c4b/lp/Solver.h"
#include "c4b/pipeline/Pipeline.h"
#include "c4b/sem/Interp.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>

using namespace c4b;
using namespace c4bperf;

namespace {

/// How often a run repeats its set-up; setup_s is the median.  A set-up
/// lasts 0.1-0.2 s, and the host's speed swings by a third from one such
/// stretch to the next, so setup_s needs many of them to be as steady as
/// the window's metrics.
constexpr int SetupReps = 35;

/// Interpreter trials per program for the soundness check.
constexpr int SemTrials = 40;

/// Expected verdict of a program that has no linear bound.
const char *const NoLinearBoundVerdict = "NoLinearBound";

struct Subject {
  std::string Name;
  std::string Func; ///< Focus function; its bound is the verdict.
  std::string Source;
  bool LogicalState = false;
  /// Expected bound string, NoLinearBoundVerdict, or empty (no oracle).
  std::string Expected;
};

/// What one verdict produced.
struct Outcome {
  int Prog = 0;
  bool Analyzed = false;
  AnalysisErrorKind Kind = AnalysisErrorKind::None;
  std::string Bound;
  std::optional<c4b::Bound> BoundValue; ///< For the soundness check.
  bool CertValid = false;
  double Seconds = 0;
};

/// Per-layer counts of the traced passes, taken from outside the layers:
/// snapshots of the public thread-local counters and the public fields of
/// each stage's result.
struct LayerCounts {
  long Verdicts = 0;
  long SourceBytes = 0;
  long StmtsSliced = 0;
  long SummariesApplied = 0;
  long SCCsSolved = 0;
  long Waves = 0;
  long Queries = 0, Tier1 = 0, Tier2 = 0, LpFallbacks = 0;
  long AnalyzePivots = 0; ///< All pivots of the default-path analysis.
  long GeneratePivots = 0;
  long Fragments = 0, Rows = 0, Vars = 0, MaxFragmentRows = 0;
  long SolvePivots = 0, Refactors = 0, WarmStarts = 0, Eliminated = 0;
  long LpRows = 0, LpCols = 0, MaxEtaLen = 0;
  long ConstraintsChecked = 0;
};

/// The default path: scheduled, sliced, query-avoiding.
const AnalysisOptions DefaultOptions{};

PipelineOptions verifierOn() {
  PipelineOptions O;
  O.VerifyIR = true;
  return O;
}

/// Re-runs the stages inside analyzeProgramScheduled from outside, under a
/// separate parent span, so the traced run can split pipeline.analyze into
/// relevance, generate and solve.  Not part of any verdict's time.
void attribute(const IRProgram &IR, const Subject &P, long Id, Tracer &T,
               LayerCounts &C) {
  const ResourceMetric M = ResourceMetric::ticks();
  Tracer::Scope A(T, "attribution", Id);
  check::IntervalSeeds Seeds = check::computeIntervalSeeds(IR);
  {
    Tracer::Scope S(T, "check.relevance", Id);
    (void)check::computeCostRelevance(IR, M,
                                      Seeds.Converged ? &Seeds : nullptr);
  }
  std::vector<ConstraintSystem> Frags;
  long P0 = lpThreadStats().Pivots;
  {
    Tracer::Scope S(T, "analysis.generate", Id);
    Frags = generateScheduledFragments(IR, M, DefaultOptions);
  }
  C.GeneratePivots += lpThreadStats().Pivots - P0;

  // The focus function's fragment is solved under the focus objective,
  // exactly as analyzeProgramScheduled does.
  CallGraph CG = buildCallGraph(IR);
  auto FocusIt = CG.SCCOf.find(P.Func);
  int FocusSCC = FocusIt == CG.SCCOf.end() ? -1 : FocusIt->second;
  for (std::size_t I = 0; I < Frags.size(); ++I) {
    const ConstraintSystem &CS = Frags[I];
    ++C.Fragments;
    C.Rows += CS.numConstraints();
    C.Vars += CS.numVars();
    C.MaxFragmentRows = std::max<long>(C.MaxFragmentRows, CS.numConstraints());
    if (!CS.StructuralOk || CS.Err.isError())
      continue;
    SolvedSystem S;
    long Before = lpThreadStats().Pivots;
    {
      Tracer::Scope Sp(T, "lp.solve", Id);
      S = solveSystem(CS, static_cast<int>(I) == FocusSCC ? P.Func : "");
    }
    // The thread counter, not S.LpPivots: an infeasible solve reports no
    // pivots in its result but still spends them.
    C.SolvePivots += lpThreadStats().Pivots - Before;
    C.Refactors += S.LpRefactors;
    C.WarmStarts += S.LpWarmStarts;
    C.Eliminated += S.NumEliminated;
    C.LpRows += S.LpRows;
    C.LpCols += S.LpCols;
    C.MaxEtaLen = std::max<long>(C.MaxEtaLen, S.LpMaxEtaLen);
  }
}

/// One verdict on the default path.  \p C non-null marks a traced verdict:
/// counters are snapshotted and the attribution re-run follows it.
Outcome runVerdict(const std::vector<Subject> &Progs, int Idx, long Id,
                   Tracer &T, LayerCounts *C) {
  const Subject &P = Progs[static_cast<std::size_t>(Idx)];
  const ResourceMetric M = ResourceMetric::ticks();
  Outcome O;
  O.Prog = Idx;
  CheckedModule CM;
  auto T0 = Clock::now();
  {
    Tracer::Scope V(T, "verdict", Id);
    ParsedModule PM;
    {
      Tracer::Scope S(T, "ast.parse", Id);
      PM = parseModule(P.Source, P.Name);
    }
    LoweredModule LM;
    {
      Tracer::Scope S(T, "ir.lower", Id);
      LM = lowerModule(std::move(PM));
    }
    {
      Tracer::Scope S(T, "check.verify", Id);
      CM = checkModule(std::move(LM), verifierOn());
    }
    if (!CM.ok()) {
      O.Kind = CM.Err.isError() ? CM.Err.Kind : AnalysisErrorKind::MalformedIR;
    } else {
      LPStats Lp0 = lpThreadStats();
      QueryStats Q0 = queryThreadStats();
      AnalysisResult R;
      {
        Tracer::Scope S(T, "pipeline.analyze", Id);
        R = analyzeProgramScheduled(*CM.IR, M, DefaultOptions, P.Func);
      }
      if (C) {
        const QueryStats &Q1 = queryThreadStats();
        C->Queries += Q1.Queries - Q0.Queries;
        C->Tier1 += Q1.Tier1Hits - Q0.Tier1Hits;
        C->Tier2 += Q1.Tier2Hits - Q0.Tier2Hits;
        C->LpFallbacks += Q1.LpFallbacks - Q0.LpFallbacks;
        C->AnalyzePivots += lpThreadStats().Pivots - Lp0.Pivots;
        C->StmtsSliced += R.NumStmtsSliced;
        C->SummariesApplied += R.NumSummariesApplied;
        C->SCCsSolved += R.NumSCCsSolved;
        C->Waves += R.NumWaves;
      }
      O.Analyzed = R.Success && !R.Degraded;
      O.Kind = R.ErrorKind;
      if (O.Analyzed) {
        if (const Bound *B = R.boundFor(P.Func)) {
          O.Bound = B->toString();
          O.BoundValue = *B;
        }
        Tracer::Scope S(T, "cert.check", Id);
        Certificate Cert = Certificate::fromResult(R, M, DefaultOptions);
        CheckReport Rep = checkCertificate(*CM.IR, Cert);
        O.CertValid = Rep.Valid;
        if (C)
          C->ConstraintsChecked += Rep.ConstraintsChecked;
      }
    }
  }
  O.Seconds = secondsSince(T0);
  if (C) {
    ++C->Verdicts;
    C->SourceBytes += static_cast<long>(P.Source.size());
    if (CM.ok())
      attribute(*CM.IR, P, Id, T, *C);
  }
  return O;
}

//===----------------------------------------------------------------------===//
// Correctness gates (outside the timed window)
//===----------------------------------------------------------------------===//

bool verdictCorrect(const Subject &P, const Outcome &O) {
  if (P.Expected == NoLinearBoundVerdict)
    return !O.Analyzed && O.Kind == AnalysisErrorKind::NoLinearBound;
  if (!O.Analyzed || !O.CertValid || O.Bound.empty())
    return false;
  return P.Expected.empty() || O.Bound == P.Expected;
}

/// Smallest L with 2^L > N: the logical `lg` argument of the binary-search
/// programs (their invariant is lg > log2(h - l)).
std::int64_t ceilLog(std::int64_t N) {
  std::int64_t L = 1;
  while ((std::int64_t(1) << L) <= N)
    ++L;
  return L;
}

/// Seeded inputs for one interpreter trial.  Logical-state programs get
/// inputs consistent with their invariant; the rest draw every parameter
/// from [-50, 50].  Empty for a logical-state program without a generator
/// here: random inputs would only break its invariant.
std::optional<std::vector<std::int64_t>>
trialInputs(const Subject &P, const IRFunction &F, Interpreter &I, Rng &R) {
  if (P.Name == "fig6_binary_counter") { // counter(k, N, na), na = #1(a)
    std::int64_t N = R.inRange(4, 32), K = R.inRange(0, 40), Na = 0;
    std::vector<std::int64_t> Bits;
    for (std::int64_t J = 0; J < N; ++J) {
      Bits.push_back(R.inRange(0, 1));
      Na += Bits.back();
    }
    I.setGlobalArray("a", Bits);
    return std::vector<std::int64_t>{K, N, Na};
  }
  if (P.Name == "fig7_bsearch") { // bsearch(x, l, h, lg), a sorted
    std::vector<std::int64_t> Data;
    for (std::int64_t J = 0; J < 128; ++J)
      Data.push_back(3 * J);
    I.setGlobalArray("a", Data);
    std::int64_t H = R.inRange(2, 128);
    return std::vector<std::int64_t>{R.inRange(0, 3 * 128), 0, H, ceilLog(H)};
  }
  if (P.Name == "ycc_rgb_convert") { // work = nr * nc
    std::int64_t Nr = R.inRange(0, 20), Nc = R.inRange(0, 20);
    return std::vector<std::int64_t>{Nr, Nc, Nr * Nc};
  }
  if (P.Name == "uv_decode") { // uv_decode(lo, hi, lg)
    std::int64_t Lo = R.inRange(0, 50), Hi = Lo + R.inRange(0, 128);
    return std::vector<std::int64_t>{Lo, Hi, ceilLog(Hi - Lo)};
  }
  if (P.LogicalState)
    return std::nullopt;
  std::vector<std::int64_t> Args;
  for (std::size_t J = 0; J < F.Params.size(); ++J)
    Args.push_back(R.inRange(-50, 50));
  return Args;
}

/// The soundness theorem on seeded inputs: the interpreter's peak cost
/// never exceeds the bound evaluated on the same inputs.  Runs that fail an
/// assert or divide by zero are outside the bound's precondition and
/// skipped; any other abnormal end is a failure.  Returns false on a
/// violation, or when no trial finished.
bool semCheck(const Subject &P, const Bound &B, std::uint64_t Seed,
              int Trials) {
  LoweredModule L = frontend(P.Source, P.Name);
  if (!L.ok())
    return false;
  const IRProgram &IR = *L.IR;
  const IRFunction *F = IR.findFunction(P.Func);
  if (!F)
    return false;
  Rng Rand(Seed);
  int Checked = 0;
  for (int T = 0; T < Trials; ++T) {
    Interpreter I(IR, ResourceMetric::ticks());
    I.seed(Rand.next());
    std::optional<std::vector<std::int64_t>> In = trialInputs(P, *F, I, Rand);
    if (!In) {
      std::printf("SOUNDNESS FAIL %s: no consistent-input generator for this "
                  "logical-state program\n",
                  P.Name.c_str());
      return false;
    }
    const std::vector<std::int64_t> &Args = *In;
    std::map<std::string, std::int64_t> Env(IR.Globals.begin(),
                                            IR.Globals.end());
    for (std::size_t J = 0; J < F->Params.size() && J < Args.size(); ++J)
      Env[F->Params[J]] = Args[J];
    ExecResult E = I.run(P.Func, Args);
    if (E.Status == ExecStatus::AssertFailed ||
        E.Status == ExecStatus::DivisionByZero)
      continue;
    if (E.Status != ExecStatus::Finished || B.evaluate(Env) < E.PeakCost) {
      std::printf("SOUNDNESS FAIL %s: bound %s, peak cost %s (status %d)\n",
                  P.Name.c_str(), B.toString().c_str(),
                  E.PeakCost.toString().c_str(), static_cast<int>(E.Status));
      return false;
    }
    ++Checked;
  }
  if (Checked == 0)
    std::printf("SOUNDNESS FAIL %s: no trial finished\n", P.Name.c_str());
  return Checked > 0;
}

//===----------------------------------------------------------------------===//
// The workload loop
//===----------------------------------------------------------------------===//

/// Per-layer metrics of the traced passes: times per verdict from the
/// spans, counts per pass (exact integers: every pass does the same work).
void addLayerMetrics(RunResult &R, const LayerCounts &C, long Passes,
                     const Tracer &T, double OverheadPct) {
  std::map<std::string, Tracer::Totals> Tot = T.totals();
  const double V = static_cast<double>(std::max<long>(C.Verdicts, 1));
  const long P = std::max<long>(Passes, 1);
  auto PerVerdict = [&](const char *Span) { return Tot[Span].Seconds / V; };
  auto PerPass = [&](long N) { return static_cast<double>(N / P); };
  auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0.0; };
  const double ParseSeconds = Tot["ast.parse"].Seconds;
  const double SolveSeconds = Tot["lp.solve"].Seconds;

  auto &M = R.Values;
  M["ast.parse_s"] = PerVerdict("ast.parse");
  M["ast.bytes_per_s"] =
      Ratio(static_cast<double>(C.SourceBytes), ParseSeconds);
  M["ir.lower_s"] = PerVerdict("ir.lower");
  M["check.verify_s"] = PerVerdict("check.verify");
  M["check.relevance_s"] = PerVerdict("check.relevance");
  M["check.stmts_sliced"] = PerPass(C.StmtsSliced);
  M["analysis.generate_s"] = PerVerdict("analysis.generate");
  M["analysis.fragments"] = PerPass(C.Fragments);
  M["analysis.rows"] = PerPass(C.Rows);
  M["analysis.vars"] = PerPass(C.Vars);
  M["analysis.max_fragment_rows"] = static_cast<double>(C.MaxFragmentRows);
  M["analysis.summaries_applied"] = PerPass(C.SummariesApplied);
  M["logic.queries"] = PerPass(C.Queries);
  M["logic.tier1_hits"] = PerPass(C.Tier1);
  M["logic.tier2_hits"] = PerPass(C.Tier2);
  M["logic.lp_fallbacks"] = PerPass(C.LpFallbacks);
  M["logic.avoided_ratio"] = Ratio(static_cast<double>(C.Tier1 + C.Tier2),
                                   static_cast<double>(C.Queries));
  M["logic.lp_pivots"] = PerPass(C.GeneratePivots);
  M["lp.solve_s"] = SolveSeconds / V;
  M["lp.pivots"] = PerPass(C.SolvePivots);
  M["lp.us_per_pivot"] =
      Ratio(SolveSeconds * 1e6, static_cast<double>(C.SolvePivots));
  M["lp.refactors"] = PerPass(C.Refactors);
  M["lp.warm_starts"] = PerPass(C.WarmStarts);
  M["lp.eliminated"] = PerPass(C.Eliminated);
  M["lp.rows"] = PerPass(C.LpRows);
  M["lp.cols"] = PerPass(C.LpCols);
  M["lp.max_eta_len"] = static_cast<double>(C.MaxEtaLen);
  M["pipeline.analyze_s"] = PerVerdict("pipeline.analyze");
  M["pipeline.sccs_solved"] = PerPass(C.SCCsSolved);
  M["pipeline.waves"] = PerPass(C.Waves);
  M["cert.check_s"] = PerVerdict("cert.check");
  M["cert.constraints_checked"] = PerPass(C.ConstraintsChecked);
  M["trace.overhead_pct"] = OverheadPct;
  M["trace.spans"] = static_cast<double>(T.spans().size());

  std::printf("per-pass counts (base: %ld traced passes of %ld verdicts):\n",
              Passes, C.Verdicts / P);
  std::printf("  logic: %ld queries = %ld tier1 + %ld tier2 + %ld lp "
              "fallbacks; avoided %ld of %ld\n",
              C.Queries / P, C.Tier1 / P, C.Tier2 / P, C.LpFallbacks / P,
              (C.Tier1 + C.Tier2) / P, C.Queries / P);
  std::printf("  pivots: default-path analysis %ld = generate %ld + solve "
              "%ld (%s)\n",
              C.AnalyzePivots / P, C.GeneratePivots / P, C.SolvePivots / P,
              C.AnalyzePivots == C.GeneratePivots + C.SolvePivots
                  ? "attribution re-run matches"
                  : "MISMATCH between default path and attribution re-run");
  std::printf("  lp: %.3f us/pivot over %ld solve pivots in %.3f s\n",
              M["lp.us_per_pivot"], C.SolvePivots, SolveSeconds);
  std::printf("  analysis: %ld fragments, %ld rows, %ld vars, max fragment "
              "%ld rows\n",
              C.Fragments / P, C.Rows / P, C.Vars / P, C.MaxFragmentRows);
}

/// Prints the per-layer self-time table of the traced verdicts.
void printSelfTimes(const Tracer &T) {
  std::map<std::string, Tracer::Totals> Tot = T.totals();
  double Verdict = Tot["verdict"].Seconds;
  std::printf("self time by span (share of default-path verdict time "
              "%.3f s):\n",
              Verdict);
  for (const auto &[Name, X] : Tot)
    std::printf("  %-20s %8ld spans  self %9.4f s  %6.2f%%\n", Name.c_str(),
                X.Count, X.SelfSeconds,
                Verdict > 0 ? 100.0 * X.SelfSeconds / Verdict : 0.0);
  std::printf("  (attribution, check.relevance, analysis.generate and "
              "lp.solve re-run the analysis outside the verdicts; their "
              "shares are relative to the same base)\n");
}

/// Reads `name<TAB>expected` lines; '#' starts a comment line.
std::map<std::string, std::string> readExpected(const std::string &Path) {
  std::map<std::string, std::string> Out;
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    auto Tab = Line.find('\t');
    if (Tab != std::string::npos)
      Out[Line.substr(0, Tab)] = Line.substr(Tab + 1);
  }
  return Out;
}

/// The corpus with each program's expected verdict (the "corpus
/// generation" part of set-up).
std::vector<Subject> loadTable3(const RunConfig &C, RunResult &R) {
  std::map<std::string, std::string> Expected = readExpected(C.ExpectedPath);
  std::vector<Subject> Progs;
  for (const CorpusEntry &E : corpus()) {
    Subject P{E.Name, E.Function, E.Source, E.LogicalState, ""};
    auto It = Expected.find(E.Name);
    if (It == Expected.end()) {
      std::printf("no expected verdict for %s in '%s'\n", E.Name,
                  C.ExpectedPath.c_str());
      R.GatesOk = false;
    } else {
      P.Expected = It->second;
    }
    Progs.push_back(std::move(P));
  }
  return Progs;
}

} // namespace

RunResult c4bperf::runTable3(const RunConfig &Cfg) {
  RunResult Res;

  // Set-up, SetupReps times.  The first is the window's; the others run
  // between verdicts, spread evenly over the window with its clock stopped.
  std::vector<double> SetupTimes;
  auto SetUp = [&] {
    auto T0 = Clock::now();
    std::vector<Subject> Loaded = loadTable3(Cfg, Res);
    // A warm-up pass, outside the window, finishes lazy initialisation.
    Tracer Off(false);
    for (std::size_t I = 0; I < Loaded.size(); ++I)
      (void)runVerdict(Loaded, static_cast<int>(I), -1, Off, nullptr);
    SetupTimes.push_back(secondsSince(T0));
    return Loaded;
  };
  std::vector<Subject> Progs = SetUp();
  const int N = static_cast<int>(Progs.size());

  Rng Order(Cfg.Seed);
  Digest D;
  D.add("table3");
  for (const Subject &P : Progs)
    D.add(P.Source);
  // Pass orders are drawn lazily from the same stream; the digest covers
  // the first 16, which fixes the stream.
  std::vector<std::vector<int>> Orders;
  for (int I = 0; I < 16; ++I) {
    Orders.push_back(Order.permutation(N));
    for (int J : Orders.back())
      D.add(static_cast<std::uint64_t>(J));
  }
  std::printf("inputs: %d programs, digest %016llx\n", N,
              static_cast<unsigned long long>(D.H));

  // The timed window: whole passes until the window is used up.  A traced
  // run alternates traced and untraced passes; the untraced ones are the
  // base of the tracing-overhead figure.
  Tracer T(Cfg.Trace), Off(false);
  LayerCounts Counts;
  // Per verdict only its latency is kept, so the benchmark's own memory
  // barely grows with throughput; per program, its first outcome (for the
  // soundness check) and how many of its verdicts were wrong.
  std::vector<std::optional<Outcome>> First(static_cast<std::size_t>(N));
  std::vector<long> Verdicts(static_cast<std::size_t>(N), 0);
  std::vector<long> Wrong(static_cast<std::size_t>(N), 0);
  std::vector<double> UntracedMs, TracedMs;
  UntracedMs.reserve(1 << 17);
  TracedMs.reserve(Cfg.Trace ? 1 << 17 : 0);
  long Passes = 0, TracedPasses = 0;
  double Paused = 0;
  auto W0 = Clock::now();
  auto SetUpIfDue = [&] {
    while (static_cast<int>(SetupTimes.size()) < SetupReps &&
           secondsSince(W0) - Paused >=
               Cfg.Seconds * static_cast<double>(SetupTimes.size()) /
                   SetupReps) {
      auto P0 = Clock::now();
      (void)SetUp();
      Paused += secondsSince(P0);
    }
  };
  while (true) {
    double Elapsed = secondsSince(W0) - Paused;
    bool NeedBoth = Cfg.Trace && Passes < 2;
    if (Elapsed >= Cfg.Seconds && !NeedBoth)
      break;
    if (Passes >= static_cast<long>(Orders.size()))
      Orders.push_back(Order.permutation(N));
    bool Traced = Cfg.Trace && Passes % 2 == 0;
    TracedPasses += Traced;
    for (int Idx : Orders[static_cast<std::size_t>(Passes)]) {
      SetUpIfDue();
      long Id = Res.Attempted++;
      Outcome O = Traced ? runVerdict(Progs, Idx, Id, T, &Counts)
                         : runVerdict(Progs, Idx, Id, Off, nullptr);
      (Traced ? TracedMs : UntracedMs).push_back(O.Seconds * 1e3);
      auto P = static_cast<std::size_t>(Idx);
      ++Verdicts[P];
      if (!verdictCorrect(Progs[P], O) && Wrong[P]++ == 0)
        std::printf("FAILED %s: %s, bound '%s' (expected '%s'), cert %s\n",
                    Progs[P].Name.c_str(), errorKindName(O.Kind),
                    O.Bound.c_str(), Progs[P].Expected.c_str(),
                    O.CertValid ? "valid" : "invalid");
      if (!First[P])
        First[P] = std::move(O);
    }
    ++Passes;
  }
  double Window = secondsSince(W0) - Paused;
  double Rss = peakRssMb();
  // A last verdict may end the window before the last set-up fell due.
  while (static_cast<int>(SetupTimes.size()) < SetupReps)
    (void)SetUp();

  // Every program's bound against the interpreter on seeded inputs; an
  // unsound bound fails all of the program's verdicts.
  for (std::size_t P = 0; P < First.size(); ++P) {
    if (First[P] && First[P]->BoundValue &&
        !semCheck(Progs[P], *First[P]->BoundValue,
                  Cfg.Seed * 1000003u + P, SemTrials))
      Wrong[P] = Verdicts[P];
    Res.Failed += Wrong[P];
  }

  std::vector<double> All = UntracedMs;
  All.insert(All.end(), TracedMs.begin(), TracedMs.end());
  std::printf("window: %.3f s, %ld passes of %d verdicts\n", Window, Passes, N);
  printSampleCount("verdict latency", All.size());

  if (!Cfg.Trace) {
    Res.Values["programs_per_s"] = static_cast<double>(All.size()) / Window;
    Res.Values["latency_p50_ms"] = median(All);
    Res.Values["latency_p95_ms"] = quantile(All, 0.95);
    Res.Values["peak_rss_mb"] = Rss;
    Res.Values["setup_s"] = median(SetupTimes);
    return Res;
  }

  auto Mean = [](const std::vector<double> &V) {
    double Sum = 0;
    for (double X : V)
      Sum += X;
    return V.empty() ? 0.0 : Sum / static_cast<double>(V.size());
  };
  double U = Mean(UntracedMs), Tr = Mean(TracedMs);
  double Overhead = U > 0 ? 100.0 * (Tr - U) / U : 0;
  std::printf("tracing overhead: %+.2f%% (mean default-path verdict %.4f ms "
              "traced over %zu verdicts vs %.4f ms untraced over %zu; the "
              "attribution re-run is excluded)\n",
              Overhead, Tr, TracedMs.size(), U, UntracedMs.size());
  printSelfTimes(T);
  addLayerMetrics(Res, Counts, TracedPasses, T, Overhead);
  if (!T.writeChrome(Cfg.TraceOut))
    std::printf("could not write trace file %s\n", Cfg.TraceOut.c_str());
  else
    std::printf("trace: %s\n", Cfg.TraceOut.c_str());
  return Res;
}
