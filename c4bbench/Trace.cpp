//===--- Trace.cpp - In-memory span buffer for the benchmark ---------------===//

#include "Trace.h"

#include <cstdio>

using namespace c4bperf;

namespace {

/// The calling thread's open spans, innermost last.
thread_local std::vector<long> OpenStack;
thread_local int ThreadId = 0;

} // namespace

void Tracer::setThread(int Id) { ThreadId = Id; }

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Epoch)
      .count();
}

long Tracer::open(const char *Name, long Verdict) {
  Span S;
  S.Name = Name;
  S.Parent = OpenStack.empty() ? -1 : OpenStack.back();
  S.Verdict = Verdict;
  S.Thread = ThreadId;
  S.Start = now();
  long Index;
  {
    std::lock_guard<std::mutex> L(Mu);
    Index = static_cast<long>(Spans.size());
    Spans.push_back(S);
  }
  OpenStack.push_back(Index);
  return Index;
}

void Tracer::close(long Index) {
  double T = now();
  OpenStack.pop_back();
  std::lock_guard<std::mutex> L(Mu);
  Spans[static_cast<std::size_t>(Index)].End = T;
}

Tracer::Scope::Scope(Tracer &T, const char *Name, long Verdict) : T(T) {
  if (T.On)
    Index = T.open(Name, Verdict);
}

Tracer::Scope::~Scope() {
  if (Index >= 0)
    T.close(Index);
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> L(Mu);
  return Spans;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<Span> S = spans();
  std::vector<double> ChildSeconds(S.size(), 0.0);
  for (const Span &Sp : S)
    if (Sp.Parent >= 0)
      ChildSeconds[static_cast<std::size_t>(Sp.Parent)] += Sp.End - Sp.Start;
  std::map<std::string, Totals> Out;
  for (std::size_t I = 0; I < S.size(); ++I) {
    Totals &T = Out[S[I].Name];
    double D = S[I].End - S[I].Start;
    T.Seconds += D;
    T.SelfSeconds += D - ChildSeconds[I];
    ++T.Count;
  }
  return Out;
}

bool Tracer::writeChrome(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::vector<Span> S = spans();
  std::fprintf(F, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t I = 0; I < S.size(); ++I) {
    const Span &Sp = S[I];
    // Span names are fixed identifiers chosen by the benchmark, so they
    // need no JSON escaping.
    std::fprintf(F,
                 "%s{\"name\": \"%s\", \"cat\": \"c4b\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"span\": %zu, \"parent\": %ld, "
                 "\"verdict\": %ld}}",
                 I ? ",\n" : "", Sp.Name, Sp.Thread, Sp.Start * 1e6,
                 (Sp.End - Sp.Start) * 1e6, I, Sp.Parent, Sp.Verdict);
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}
