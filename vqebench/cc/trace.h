// Benchmark-side span tracer.
//
// Spans are opened around every call the benchmark (or one of its timing
// decorators) makes into a layer of the program. Each span records its
// name, start, end, parent span and the request it belongs to (a frame,
// stream, trial or query id). Self time — the span's duration minus the
// part its child spans cover — is folded into per-thread, per-name totals
// the moment a span closes, so totals stay exact however many spans a run
// opens; only the first `keep_spans` spans are kept verbatim for the
// Chrome trace written at exit.
//
// Tracing is off unless Enable() was called: a disabled Span reads one
// relaxed atomic and nothing else, so untraced runs build no spans.
// Per-thread state is created on a thread's first span and registered
// under a mutex; Collect()/Reset() must only run while no traced work is
// in flight (the benchmark calls them between phases).

#ifndef VQEBENCH_TRACE_H_
#define VQEBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace vqebench {

/// Monotonic clock in nanoseconds.
int64_t NowNs();

/// Totals of one span name over every thread.
struct LayerTotals {
  uint64_t count = 0;
  double incl_ns = 0.0;
  double self_ns = 0.0;
};

/// One recorded span, kept for the Chrome trace export.
struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  ///< index of the parent span in the same thread
  uint64_t request = 0;
  uint32_t tid = 0;
};

class Tracer {
 public:
  static bool enabled() { return on_.load(std::memory_order_relaxed); }
  /// Turns tracing on or off. `keep_spans` caps the spans kept verbatim
  /// (over all threads) for WriteChromeTrace.
  static void Enable(bool on, size_t keep_spans = 50000);
  /// Drops every total and kept span on every thread.
  static void Reset();
  /// Per-name totals merged over every thread.
  static std::map<std::string, LayerTotals> Collect();
  /// Writes the kept spans as Chrome trace-event JSON, validates the text
  /// with the program's ValidateChromeTrace and writes it to `path`.
  static vqe::Status WriteChromeTrace(const std::string& path);
  /// Request id attached to spans opened by the calling thread.
  static void SetRequest(uint64_t request);
  /// A stable C string equal to `name` (span names must outlive the run).
  static const char* Intern(const std::string& name);

 private:
  friend class Span;
  static std::atomic<bool> on_;
};

/// RAII span; a no-op while tracing is disabled.
class Span {
 public:
  explicit Span(const char* name) {
    if (Tracer::enabled()) Begin(name);
  }
  ~Span() {
    if (open_) End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void Begin(const char* name);
  void End();
  bool open_ = false;
};

}  // namespace vqebench

#endif  // VQEBENCH_TRACE_H_
