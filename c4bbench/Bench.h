//===--- Bench.h - Shared pieces of the c4b benchmark ------------*- C++ -*-===//
//
// The benchmark drives the library's public entry points from one process:
// it generates seeded inputs, runs a closed loop of verdicts for a fixed
// wall-time window, checks every verdict, and reports named metrics.  The
// unit of work is one verdict: source in, bound out, certificate checked.
//
//===----------------------------------------------------------------------===//

#ifndef C4B_PERF_BENCH_H
#define C4B_PERF_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace c4bperf {

struct RunConfig {
  std::string Workload;
  std::uint64_t Seed = 1;
  /// Length of the timed window.
  double Seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool Trace = false;
  /// table3: file of expected verdicts, one `name<TAB>bound` per line.
  std::string ExpectedPath;
  /// Traced runs write their spans here as Chrome trace-event JSON.
  std::string TraceOut;
  /// service_edit: unix socket of the in-process daemon.
  std::string SocketPath;
};

/// What one run reports: ops attempted in the timed window, how many of
/// them failed a correctness check, and the metrics.
struct RunResult {
  long Attempted = 0;
  long Failed = 0;
  /// False when a check outside the per-op accounting failed (a missing
  /// expected verdict, a daemon that would not start).
  bool GatesOk = true;
  /// Metric name -> value.  Names and units are listed in BENCHMARK.json;
  /// a per-layer metric a workload does not exercise is left out and
  /// reads 0.
  std::map<std::string, double> Values;
};

RunResult runTable3(const RunConfig &C);
RunResult runServiceEdit(const RunConfig &C);

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Linear-interpolated quantile, \p Q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> V, double Q);

/// Median of \p V (the 0.5 quantile).
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

/// Peak resident set of this process so far, in MiB.
double peakRssMb();

/// Prints "n samples, k beyond p95" for a latency sample.
void printSampleCount(const char *What, std::size_t N);

/// FNV-1a digest accumulator for the run's inputs.
struct Digest {
  std::uint64_t H = 1469598103934665603ull;
  void add(const std::string &S);
  void add(std::uint64_t V) { add(std::to_string(V)); }
};

/// splitmix64: small, seedable, identical on every platform.
class Rng {
public:
  explicit Rng(std::uint64_t Seed) : S(Seed) {}
  std::uint64_t next();
  /// Uniform in [Lo, Hi].
  std::int64_t inRange(std::int64_t Lo, std::int64_t Hi);
  /// Fisher-Yates shuffle of 0..N-1.
  std::vector<int> permutation(int N);

private:
  std::uint64_t S;
};

} // namespace c4bperf

#endif // C4B_PERF_BENCH_H
