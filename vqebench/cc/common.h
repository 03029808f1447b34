// Shared plumbing of the benchmark: arguments, the result record every
// workload fills, order statistics, output digests and the layer replay
// of fusion and AP scoring.

#ifndef VQEBENCH_COMMON_H_
#define VQEBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "core/frame_matrix.h"
#include "models/model_zoo.h"
#include "query/executor.h"
#include "sim/video.h"

namespace vqebench {

/// Number of recorded input sets per workload: --seed selects input set
/// seed % kInputSets, whose output digests are recorded in digests.txt.
inline constexpr uint64_t kInputSets = 32;

/// Set-ups per untraced run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

/// Where a traced run writes its Chrome trace, relative to the working
/// directory.
inline constexpr char kTraceDir[] = ".bench_out";

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Expected-digest table (path relative to the working directory).
  std::string digests = "vqebench/digests.txt";
  /// Print this input set's digest line instead of checking it.
  bool record = false;
  uint64_t input() const { return seed % kInputSets; }
};

/// What one workload run reports.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::map<std::string, double> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;

  /// False when the run could not measure a metric as defined; such a
  /// run prints no result and exits non-zero.
  bool measured = true;

  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("CORRECTNESS FAILURE: " + why);
  }
  void Unmeasured(const std::string& why) {
    measured = false;
    notes.push_back("MEASUREMENT FAILURE: " + why);
  }
};

/// Median / percentile (linear interpolation, p in [0, 100]).
double Percentile(std::vector<double> v, double p);
inline double Median(const std::vector<double>& v) {
  return Percentile(v, 50.0);
}

/// The p-th percentile of `samples` as `latency_tail_ms`. Each workload
/// fixes its own p, so the metric is the same percentile on every commit.
/// Notes p and the sample count; a run with fewer than ten samples beyond
/// p cannot measure that tail and is marked unmeasured.
double TailLatency(const std::vector<double>& samples, double p,
                   const std::string& what, Outcome* out);
/// True when `n` samples leave at least ten beyond the p-th percentile.
bool TailMeasurable(size_t n, double p);

/// One window of a run: the latencies of the operations in it (ms), and
/// the frames they processed in how much busy time.
struct Window {
  std::vector<double> latency_ms;
  double frames = 0.0;
  double busy_ms = 0.0;
};

/// Upper quartile over windows of each window's frames ÷ busy time.
double WindowedRate(const std::vector<Window>& windows);

/// Sets frames_per_s, latency_p50_ms and latency_tail_ms from a run cut
/// into windows of equal work: over windows, the quartile that favours
/// the program of each window's throughput (upper quartile), median and
/// p-th percentile latency (lower quartiles). Other tenants of a shared
/// host slow the program for seconds at a time. A slowdown of the
/// program shows in every window, but a slow spell of the host moves
/// these quartiles only when it covers most of the run. Each workload
/// fixes its p, so the tail is the same percentile on every commit; a
/// window with fewer than ten samples beyond p marks the run unmeasured.
void SetWindowedTimings(const std::vector<Window>& windows, double p,
                        const std::string& what, Outcome* out);

/// Peak resident set size of this process, MB (VmHWM).
double PeakRssMb();

/// Nominal number of hardware threads (>= 1).
int HostThreads();

/// FNV-1a over raw bit patterns.
class Digest {
 public:
  void Add(uint64_t v);
  void AddDouble(double v);
  void AddRun(const vqe::RunResult& r);
  void AddQuery(const vqe::QueryOutput& q);
  uint64_t value() const { return h_; }
  std::string Hex() const;

 private:
  uint64_t h_ = 14695981039346656037ull;
};

/// Compares `digest` with the digest recorded for (workload, input) in
/// args.digests, or prints the record line in --record mode. A missing
/// or different record is a correctness failure.
void CheckRecordedDigest(const Args& args, const std::string& digest,
                         Outcome* out);

/// Replays the fusion and AP layers on `frames` frames of `video`: runs
/// the pool's detectors and REF once per frame, then fuses and scores
/// every mask of the lattice exactly like the engine's per-frame kernel,
/// under "fusion.fuse" and "detection.ap" spans. Returns false when a
/// replayed cell differs from the program's own LazyFrameEvaluator.
bool ReplayFusionAndAp(const vqe::Video& video, const vqe::DetectorPool& pool,
                       uint64_t trial_seed, size_t frames);

/// Sets the fusion.* and detection.* metrics from traced totals.
void SetReplayMetrics(Outcome* out);

/// Per-layer metric names with units, in output order.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();
/// End-to-end metric names with units, in output order.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();

/// Median of repeated set-ups: runs `setup` `times` times, returns the
/// median wall seconds.
template <typename F>
double MedianSetupSeconds(int times, F&& setup);

}  // namespace vqebench

#include "trace.h"

namespace vqebench {

template <typename F>
double MedianSetupSeconds(int times, F&& setup) {
  std::vector<double> secs;
  for (int i = 0; i < times; ++i) {
    const int64_t start = NowNs();
    setup();
    secs.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  return Median(secs);
}

}  // namespace vqebench

#endif  // VQEBENCH_COMMON_H_
