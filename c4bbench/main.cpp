//===--- main.cpp - c4b benchmark program ----------------------------------===//
//
//   c4b_perf --workload table3|service_edit --seed N
//            --seconds S --trace 0|1 --expected FILE --trace-out FILE
//            --socket PATH
//
// Prints a human-readable report, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "values": {...}}
// With --trace 0 the values are the end-to-end metrics; with --trace 1 the
// per-layer ones of the traced run.  Metric units live in BENCHMARK.json,
// which run.py reads.  Exit code 0 whenever a result line was printed; 2 on
// bad arguments.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "c4b/support/Hash.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>

using namespace c4bperf;

double c4bperf::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  auto Lo = static_cast<std::size_t>(std::floor(Pos));
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double c4bperf::peakRssMb() {
  // VmHWM is this process image's own high-water mark.  getrusage's
  // ru_maxrss is not: Linux carries the pre-exec peak of the forking
  // parent (here the Python wrapper) into it.
  if (std::FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    long Kb = -1;
    while (std::fgets(Line, sizeof(Line), F))
      if (std::sscanf(Line, "VmHWM: %ld kB", &Kb) == 1)
        break;
    std::fclose(F);
    if (Kb >= 0)
      return static_cast<double>(Kb) / 1024.0;
  }
  struct rusage RU;
  std::memset(&RU, 0, sizeof(RU));
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

void c4bperf::printSampleCount(const char *What, std::size_t N) {
  auto Beyond = static_cast<long>(N) -
                static_cast<long>(std::ceil(0.95 * static_cast<double>(N)));
  std::printf("%s: %zu samples, %ld beyond p95%s\n", What, N, Beyond,
              Beyond < 10 ? " (fewer than 10: p95 is a thin tail)" : "");
}

void Digest::add(const std::string &S) {
  // Length-prefixed so that ("ab","c") and ("a","bc") differ.
  H = c4b::stableHash64(std::to_string(S.size()) + ":", H);
  H = c4b::stableHash64(S, H);
}

std::uint64_t Rng::next() {
  std::uint64_t Z = (S += 0x9E3779B97F4A7C15ull);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

std::int64_t Rng::inRange(std::int64_t Lo, std::int64_t Hi) {
  auto Span = static_cast<std::uint64_t>(Hi - Lo) + 1;
  return Lo + static_cast<std::int64_t>(next() % Span);
}

std::vector<int> Rng::permutation(int N) {
  std::vector<int> P(static_cast<std::size_t>(N));
  std::iota(P.begin(), P.end(), 0);
  for (int I = N - 1; I > 0; --I)
    std::swap(P[static_cast<std::size_t>(I)],
              P[static_cast<std::size_t>(inRange(0, I))]);
  return P;
}

namespace {

int usage(const char *Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: c4b_perf --workload "
               "table3|service_edit --seed N --seconds S "
               "--trace 0|1 --expected FILE --trace-out FILE "
               "--socket PATH\n",
               Msg);
  return 2;
}

/// Prints every value the run computed under its metric name.  run.py
/// picks the metrics BENCHMARK.json names and attaches their units.
void printResult(const RunResult &R) {
  bool Correct = R.GatesOk && R.Failed == 0 && R.Attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"values\": {",
              Correct ? "true" : "false", R.Attempted, R.Failed);
  const char *Sep = "";
  for (const auto &[Name, V] : R.Values) {
    std::printf("%s\"%s\": %.12g", Sep, Name.c_str(),
                std::isfinite(V) ? V : 0.0);
    Sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig C;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      C.Workload = V;
    } else if (A == "--seed") {
      C.Seed = std::strtoull(V.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !V.empty();
    } else if (A == "--seconds") {
      C.Seconds = std::strtod(V.c_str(), &End);
      HaveSeconds = End && *End == '\0' && C.Seconds > 0;
    } else if (A == "--trace") {
      C.Trace = V == "1";
      HaveTrace = V == "0" || V == "1";
    } else if (A == "--expected") {
      C.ExpectedPath = V;
    } else if (A == "--trace-out") {
      C.TraceOut = V;
    } else if (A == "--socket") {
      C.SocketPath = V;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace || C.ExpectedPath.empty() ||
      C.TraceOut.empty() || C.SocketPath.empty())
    return usage("every argument is required");

  std::printf("c4b benchmark: workload=%s seed=%llu seconds=%g trace=%d\n",
              C.Workload.c_str(), static_cast<unsigned long long>(C.Seed),
              C.Seconds, C.Trace ? 1 : 0);
  RunResult R;
  if (C.Workload == "table3")
    R = runTable3(C);
  else if (C.Workload == "service_edit")
    R = runServiceEdit(C);
  else
    return usage(("unknown workload " + C.Workload).c_str());
  printResult(R);
  return 0;
}
