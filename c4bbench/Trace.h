//===--- Trace.h - In-memory span buffer for the benchmark -------*- C++ -*-===//
//
// Spans recorded by the benchmark around its own calls into each layer's
// public entry points.  A span has a name, start, end, parent span and the
// id of the verdict it belongs to.  Spans stay in memory while the timed
// window runs; at exit they are written as Chrome trace-event JSON and
// folded into a per-layer self-time table.
//
// A disabled tracer records nothing: Scope then costs one branch.
//
//===----------------------------------------------------------------------===//

#ifndef C4B_PERF_TRACE_H
#define C4B_PERF_TRACE_H

#include <chrono>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace c4bperf {

class Tracer {
public:
  struct Span {
    const char *Name = "";
    double Start = 0; ///< Seconds since the tracer was created.
    double End = 0;
    long Parent = -1; ///< Index into spans(), -1 for a root.
    long Verdict = -1;
    int Thread = 0;
  };

  /// Per-name totals: wall time covered by the spans, the part not covered
  /// by their children (self time), and how many there were.
  struct Totals {
    double Seconds = 0;
    double SelfSeconds = 0;
    long Count = 0;
  };

  explicit Tracer(bool Enabled) : On(Enabled) {}
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  bool enabled() const { return On; }

  /// RAII span: opens on construction, closes on destruction.  The parent
  /// is the innermost open span of the calling thread.  \p Name must
  /// outlive the tracer (string literals).
  class Scope {
  public:
    Scope(Tracer &T, const char *Name, long Verdict);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    long Index = -1;
  };

  /// Marks the calling thread's spans with \p Id in the trace file.
  static void setThread(int Id);

  std::vector<Span> spans() const;
  std::map<std::string, Totals> totals() const;

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  bool writeChrome(const std::string &Path) const;

private:
  bool On;
  const std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  mutable std::mutex Mu;
  std::vector<Span> Spans; ///< Guarded by Mu.

  double now() const;
  long open(const char *Name, long Verdict);
  void close(long Index);
};

} // namespace c4bperf

#endif // C4B_PERF_TRACE_H
