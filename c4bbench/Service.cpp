//===--- Service.cpp - The service_edit workload ---------------------------===//
//
// An in-process BoundsServer (2 workers, memory-only cache and summary
// store) driven over its unix socket by 2 closed-loop Clients.  Set-up
// submits each client's own synthetic modules (call chains of depth 5)
// once, cold.  In the timed window each client replays a seeded sequence:
// three requests in four resubmit a module's current version (served from
// the cache); the fourth edits one function's tick amount into a version
// never seen before, which re-solves the dirty SCCs and reads and writes
// summaries.
//
// Why this workload: it is the only one on the daemon, the analysis cache
// and the summary store, and it mixes writes with reads, so a store change
// that speeds up hits but slows down stores shows up here.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include "c4b/corpus/Synthetic.h"
#include "c4b/pipeline/Batch.h"
#include "c4b/service/Client.h"
#include "c4b/service/Server.h"
#include "c4b/support/WorkSteal.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <thread>

using namespace c4b;
using namespace c4b::service;
using namespace c4bperf;

namespace {

constexpr int NumClients = 2;
constexpr int ModulesPerClient = 4;
/// One request in every EditEvery is an edit, at a seeded position in its
/// block; the rest resubmit a current version.  Reads (75%) are kept clear
/// of 50% so the median request is a cache read and p95 an edit, rather
/// than the median sitting on the boundary between the two.  An exact share
/// per block, not a per-request coin, because edits are ~99% of the
/// window's time: a seed that drew a few more of them would read as a
/// slower daemon.
constexpr int EditEvery = 4;
/// The daemon's stores keep every version they have seen, so resident
/// memory grows with each edit served.  Peak RSS is therefore read when
/// this many edits have completed, not at the end of the window: a faster
/// daemon serves more edits per window and would otherwise read as a
/// memory regression.
constexpr long RssAtEdits = 100;
/// Planned requests per client; a window consumes a prefix.
constexpr int PlannedOps = 12000;
/// How often a run repeats its set-up; setup_s is the median.  The first
/// SetupRepsBefore come before the window, the rest after it: the host's
/// speed shifts over seconds, and a median of set-ups spread over the run
/// follows it less than one of set-ups back to back.
constexpr int SetupReps = 7;
constexpr int SetupRepsBefore = 4;
/// Threads of the post-window one-shot oracle runs, one per core of a
/// 4-core host: the oracle re-analyses every edit cold, so its time grows
/// with the window's.
constexpr int OracleThreads = 4;

/// A synthetic module whose functions' first tick amounts can be edited.
struct EditableModule {
  std::string Name;
  std::string Source;            ///< As generated (every amount 1).
  std::vector<std::size_t> Slot; ///< Offset of each function's first amount.
  std::vector<long> Amount;      ///< Current amount per function.
  long NextAmount = 2;           ///< Never used yet in this module.

  std::string render() const {
    std::string Out;
    std::size_t Pos = 0;
    for (std::size_t F = 0; F < Slot.size(); ++F) {
      Out.append(Source, Pos, Slot[F] - Pos);
      Out += std::to_string(Amount[F]);
      Pos = Slot[F] + 1; // The generated amount is the single digit 1.
    }
    Out.append(Source, Pos, std::string::npos);
    return Out;
  }
};

EditableModule makeEditable(const SyntheticModule &M, int ModuleIndex,
                            int Functions) {
  EditableModule E;
  E.Name = M.Name;
  E.Source = M.Source;
  for (int F = 0; F < Functions; ++F) {
    std::string Head = "void m" + std::to_string(ModuleIndex) + "_f" +
                       std::to_string(F) + "(";
    std::size_t At = E.Source.find("tick(1)", E.Source.find(Head));
    E.Slot.push_back(At + 5);
    E.Amount.push_back(1);
  }
  return E;
}

struct Op {
  bool Edit = false;
  int Module = 0; ///< Index into the client's modules.
  int Func = 0;
};

/// One completed request.
struct Sample {
  bool Edit = false;
  bool Traced = false;
  double Seconds = 0;
  std::string Source;
  CallResult Result;
};

struct ClientState {
  std::vector<EditableModule> Modules;
  std::vector<Op> Plan;
  std::vector<Sample> Samples;
  std::unique_ptr<Client> Conn;
};

Request analyzeRequest(const std::string &Name, const std::string &Source) {
  Request R;
  R.Cmd = "analyze";
  R.Name = Name;
  R.Source = Source;
  return R;
}

ServerOptions serverOptions(const RunConfig &C) {
  ServerOptions O;
  O.SocketPath = C.SocketPath; // The defaults give 2 workers.
  // Connections stay open across the whole run.
  O.IdleTimeoutMs = 600000;
  return O;
}

/// Builds the clients' modules and seeded request plans.  Modules come from
/// the synthetic generator's own (default) seed, the same for every run, so
/// the cost of an edit does not swing with which modules a seed drew; the
/// run seed draws the request sequence.
std::vector<ClientState> makeClients(std::uint64_t Seed, Digest &D) {
  SyntheticSpec S;
  S.NumModules = NumClients * ModulesPerClient;
  S.ChainDepth = 5;
  std::vector<SyntheticModule> Mods = generateSyntheticCorpus(S);
  std::vector<ClientState> Clients(NumClients);
  for (int C = 0; C < NumClients; ++C) {
    ClientState &CS = Clients[static_cast<std::size_t>(C)];
    for (int M = 0; M < ModulesPerClient; ++M) {
      int Index = C * ModulesPerClient + M;
      CS.Modules.push_back(makeEditable(Mods[static_cast<std::size_t>(Index)],
                                        Index, S.FunctionsPerModule));
      D.add(CS.Modules.back().Source);
    }
    // Edits walk seeded permutations of every (module, function) pair, so
    // any stretch of the plan edits each function about equally often: the
    // cost and memory of a run's edits do not hinge on which functions a
    // seed happened to favour.
    Rng R(Seed * 7919u + static_cast<std::uint64_t>(C));
    const int Pairs = ModulesPerClient * S.FunctionsPerModule;
    std::vector<int> Cycle;
    std::size_t Next = 0;
    int EditAt = 0;
    for (int K = 0; K < PlannedOps; ++K) {
      if (K % EditEvery == 0)
        EditAt = K + static_cast<int>(R.inRange(0, EditEvery - 1));
      Op O;
      O.Edit = K == EditAt;
      if (O.Edit) {
        if (Next == Cycle.size()) {
          Cycle = R.permutation(Pairs);
          Next = 0;
        }
        O.Module = Cycle[Next] / S.FunctionsPerModule;
        O.Func = Cycle[Next++] % S.FunctionsPerModule;
      } else {
        O.Module = static_cast<int>(R.inRange(0, ModulesPerClient - 1));
      }
      CS.Plan.push_back(O);
      D.add(static_cast<std::uint64_t>(O.Edit * 10000 + O.Module * 100 +
                                       O.Func));
    }
  }
  return Clients;
}

/// Submits every module of every client once (clients in parallel).
/// False when a request failed.
bool prefill(std::vector<ClientState> &Clients, const std::string &Socket) {
  std::vector<int> Ok(Clients.size(), 1);
  std::vector<std::thread> Threads;
  for (std::size_t C = 0; C < Clients.size(); ++C)
    Threads.emplace_back([&, C] {
      ClientState &CS = Clients[C];
      CS.Conn = std::make_unique<Client>(Socket, 60000);
      for (const EditableModule &M : CS.Modules)
        if (!CS.Conn->call(analyzeRequest(M.Name, M.render())).ok())
          Ok[C] = 0;
    });
  for (std::thread &T : Threads)
    T.join();
  for (int X : Ok)
    if (!X)
      return false;
  return true;
}

/// State shared by the client threads of the timed window.
struct WindowState {
  std::atomic<long> EditsDone{0};
  /// Peak RSS when the RssAtEdits-th edit completed; written by exactly one
  /// thread, read after the threads are joined.
  double RssAtEdit = 0;
};

/// The closed loop of one client until \p Deadline.  In a traced run every
/// other request is traced; the untraced ones are the overhead base.
void clientLoop(ClientState &CS, int Id, Clock::time_point Deadline,
                Tracer &T, WindowState &W) {
  Tracer::setThread(Id);
  Tracer Off(false);
  for (std::size_t K = 0; K < CS.Plan.size() && Clock::now() < Deadline; ++K) {
    const Op &O = CS.Plan[K];
    EditableModule &M = CS.Modules[static_cast<std::size_t>(O.Module)];
    if (O.Edit)
      M.Amount[static_cast<std::size_t>(O.Func)] = M.NextAmount++;
    Sample S;
    S.Edit = O.Edit;
    S.Traced = T.enabled() && K % 2 == 0;
    S.Source = M.render();
    Request R = analyzeRequest(M.Name, S.Source);
    Tracer &Tr = S.Traced ? T : Off;
    long Verdict = static_cast<long>(Id) * PlannedOps + static_cast<long>(K);
    auto T0 = Clock::now();
    {
      Tracer::Scope V(Tr, "verdict", Verdict);
      Tracer::Scope Call(Tr, "service.call", Verdict);
      S.Result = CS.Conn->call(R);
    }
    S.Seconds = secondsSince(T0);
    if (O.Edit && W.EditsDone.fetch_add(1) + 1 == RssAtEdits)
      W.RssAtEdit = peakRssMb();
    CS.Samples.push_back(std::move(S));
  }
}

std::vector<double> latenciesMs(const std::vector<ClientState> &Clients,
                                int Edit, int Traced) {
  std::vector<double> Out;
  for (const ClientState &CS : Clients)
    for (const Sample &S : CS.Samples)
      if ((Edit < 0 || S.Edit == (Edit == 1)) &&
          (Traced < 0 || S.Traced == (Traced == 1)))
        Out.push_back(S.Seconds * 1e3);
  return Out;
}

} // namespace

RunResult c4bperf::runServiceEdit(const RunConfig &Cfg) {
  RunResult Res;

  // Set-up, SetupReps times: start a fresh daemon and pre-fill its stores
  // with every client's modules, cold.  SetupRepsBefore of them come before
  // the window, and the last of those daemons serves it; the rest come after
  // it.  Set-ups inside the window would run a second daemon beside the one
  // under test.
  std::vector<double> SetupTimes;
  auto SetUp = [&](std::vector<ClientState> &Clients,
                   Digest &D) -> std::unique_ptr<BoundsServer> {
    auto T0 = Clock::now();
    D = Digest();
    D.add("service_edit");
    Clients = makeClients(Cfg.Seed, D);
    auto Server = std::make_unique<BoundsServer>(serverOptions(Cfg));
    std::string Err;
    if (!Server->start(&Err)) {
      std::printf("daemon failed to start on %s: %s\n",
                  Cfg.SocketPath.c_str(), Err.c_str());
      return nullptr;
    }
    if (!prefill(Clients, Cfg.SocketPath)) {
      std::printf("a set-up request failed\n");
      Res.GatesOk = false;
    }
    SetupTimes.push_back(secondsSince(T0));
    return Server;
  };
  auto ShutDown = [](std::vector<ClientState> &Clients,
                     std::unique_ptr<BoundsServer> &Server) {
    for (ClientState &CS : Clients)
      CS.Conn.reset(); // Close the connections before the daemon drains.
    Server->requestShutdown();
    Server->wait();
    Server.reset();
  };
  std::unique_ptr<BoundsServer> Server;
  std::vector<ClientState> Clients;
  Digest D;
  for (int Rep = 0; Rep < SetupRepsBefore; ++Rep) {
    if (Server)
      ShutDown(Clients, Server);
    Server = SetUp(Clients, D);
    if (!Server) {
      Res.GatesOk = false;
      return Res;
    }
  }
  std::printf("inputs: %d clients x %d modules, %d planned requests each, "
              "digest %016llx\n",
              NumClients, ModulesPerClient, PlannedOps,
              static_cast<unsigned long long>(D.H));

  CacheStats Cache0 = Server->cache()->stats();
  SummaryStoreStats Store0 = Server->summaries()->stats();

  Tracer T(Cfg.Trace);
  WindowState WS;
  auto W0 = Clock::now();
  auto Deadline = W0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(Cfg.Seconds));
  {
    std::vector<std::thread> Threads;
    for (int C = 0; C < NumClients; ++C)
      Threads.emplace_back(clientLoop,
                           std::ref(Clients[static_cast<std::size_t>(C)]),
                           C + 1, Deadline, std::ref(T), std::ref(WS));
    for (std::thread &Th : Threads)
      Th.join();
  }
  double Window = secondsSince(W0);
  double Rss = WS.RssAtEdit;
  if (WS.EditsDone < RssAtEdits) {
    Rss = peakRssMb();
    std::printf("only %ld edits in the window: peak RSS read at its end\n",
                WS.EditsDone.load());
  }
  std::printf("peak RSS %.1f MB after %ld edits, %.1f MB at the end of the "
              "window\n",
              Rss, std::min<long>(WS.EditsDone, RssAtEdits), peakRssMb());
  CacheStats Cache1 = Server->cache()->stats();
  SummaryStoreStats Store1 = Server->summaries()->stats();
  ShutDown(Clients, Server);
  for (int Rep = SetupRepsBefore; Rep < SetupReps; ++Rep) {
    std::vector<ClientState> Extra;
    Digest Unused;
    std::unique_ptr<BoundsServer> S = SetUp(Extra, Unused);
    if (!S) {
      Res.GatesOk = false;
      break;
    }
    ShutDown(Extra, S);
  }

  // Correctness: every response against a one-shot BatchAnalyzer(1) run of
  // the same source (no cache, no summary store).
  std::map<std::string, std::size_t> JobOf;
  std::vector<BatchJob> Jobs;
  for (const ClientState &CS : Clients)
    for (const Sample &S : CS.Samples)
      if (JobOf.emplace(S.Source, Jobs.size()).second) {
        BatchJob J;
        J.Name = "oracle";
        J.Source = S.Source;
        Jobs.push_back(std::move(J));
      }
  std::vector<std::map<std::string, std::string>> Oracle(Jobs.size());
  std::vector<int> OracleOk(Jobs.size(), 0);
  WorkStealingPool::parallelFor(OracleThreads, Jobs.size(), [&](std::size_t I) {
    std::vector<BatchItem> Items = BatchAnalyzer(1).run({Jobs[I]});
    const AnalysisResult &A = Items.front().Result;
    OracleOk[I] = A.Success && !A.Degraded;
    for (const auto &[Fn, B] : A.Bounds)
      Oracle[I][Fn] = B.toString();
  });

  long Edits = 0, Solved = 0, Reused = 0, FromCache = 0;
  for (const ClientState &CS : Clients)
    for (const Sample &S : CS.Samples) {
      ++Res.Attempted;
      std::size_t J = JobOf.at(S.Source);
      bool Ok = S.Result.ok() && !S.Result.Resp->Degraded && OracleOk[J] &&
                S.Result.Resp->Bounds == Oracle[J];
      if (!Ok) {
        ++Res.Failed;
        std::printf("FAILED request (%s): %s\n", S.Edit ? "edit" : "read",
                    S.Result.Resp ? S.Result.Resp->Error.c_str()
                                  : S.Result.TransportError.c_str());
      }
      if (S.Result.Resp && S.Result.Resp->FromCache)
        ++FromCache;
      if (S.Edit && S.Result.Resp) {
        ++Edits;
        auto Get = [&](const char *K) {
          auto It = S.Result.Resp->Counters.find(K);
          return It == S.Result.Resp->Counters.end()
                     ? 0L
                     : static_cast<long>(It->second);
        };
        Solved += Get("sccs_solved");
        Reused += Get("summaries_reused");
      }
    }

  std::vector<double> All = latenciesMs(Clients, -1, -1);
  std::printf("window: %.3f s, %ld requests (%ld edits, %ld served from "
              "cache), %zu distinct sources checked against one-shot runs\n",
              Window, Res.Attempted, Edits, FromCache, Jobs.size());
  printSampleCount("request latency", All.size());

  if (!Cfg.Trace) {
    Res.Values["programs_per_s"] = static_cast<double>(All.size()) / Window;
    Res.Values["latency_p50_ms"] = median(All);
    Res.Values["latency_p95_ms"] = quantile(All, 0.95);
    Res.Values["peak_rss_mb"] = Rss;
    Res.Values["setup_s"] = median(SetupTimes);
    return Res;
  }

  double CallSeconds = 0;
  for (double Ms : All)
    CallSeconds += Ms / 1e3;
  const double EditsD = static_cast<double>(std::max<long>(Edits, 1));
  auto Delta = [](long After, long Before) {
    return static_cast<double>(After - Before);
  };
  auto &M = Res.Values;
  M["service.call_s"] =
      CallSeconds / static_cast<double>(std::max<std::size_t>(All.size(), 1));
  M["service.hit_call_ms_p50"] = median(latenciesMs(Clients, 0, -1));
  M["service.miss_call_ms_p50"] = median(latenciesMs(Clients, 1, -1));
  M["service.sccs_solved_per_edit"] = static_cast<double>(Solved) / EditsD;
  M["service.summaries_reused_per_edit"] = static_cast<double>(Reused) / EditsD;
  M["pipeline.cache_lookups"] = Delta(Cache1.Lookups, Cache0.Lookups);
  M["pipeline.cache_hits"] = Delta(Cache1.Hits, Cache0.Hits);
  M["pipeline.cache_stores"] = Delta(Cache1.Stores, Cache0.Stores);
  M["analysis.store_lookups"] = Delta(Store1.Lookups, Store0.Lookups);
  M["analysis.store_hits"] = Delta(Store1.Hits, Store0.Hits);
  M["analysis.store_stores"] = Delta(Store1.Stores, Store0.Stores);

  // Tracing overhead on cache reads, the requests whose time is mostly the
  // client's own: traced against untraced medians of the same run.
  double HitTraced = median(latenciesMs(Clients, 0, 1));
  double HitPlain = median(latenciesMs(Clients, 0, 0));
  double Overhead =
      HitPlain > 0 ? 100.0 * (HitTraced - HitPlain) / HitPlain : 0;
  M["trace.overhead_pct"] = Overhead;
  M["trace.spans"] = static_cast<double>(T.spans().size());
  std::printf("tracing overhead: %+.2f%% (median cache-read call %.4f ms "
              "traced vs %.4f ms untraced)\n",
              Overhead, HitTraced, HitPlain);
  std::printf("per edit (base: %ld edits): %.2f SCCs solved, %.2f summaries "
              "reused\n",
              Edits, static_cast<double>(Solved) / EditsD,
              static_cast<double>(Reused) / EditsD);
  std::map<std::string, Tracer::Totals> Tot = T.totals();
  std::printf("self time by span: service.call %.4f s of verdict %.4f s "
              "(queue wait vs service time inside the daemon is not visible "
              "from the client)\n",
              Tot["service.call"].SelfSeconds, Tot["verdict"].Seconds);
  if (T.writeChrome(Cfg.TraceOut))
    std::printf("trace: %s\n", Cfg.TraceOut.c_str());
  return Res;
}
