#include "common.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/frame_eval.h"
#include "core/lazy_frame_evaluator.h"
#include "detection/ap.h"
#include "detection/frame_soa.h"
#include "fusion/ensemble_method.h"
#include "fusion/iou_cache.h"

namespace vqebench {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double TailLatency(const std::vector<double>& samples, double p,
                   const std::string& what, Outcome* out) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "latency: %s; tail = p%g of %zu samples",
                what.c_str(), p, samples.size());
  out->notes.push_back(buf);
  if (!TailMeasurable(samples.size(), p)) {
    out->Unmeasured(std::string("fewer than 10 samples beyond the p") +
                    std::to_string(p) + " tail");
  }
  return Percentile(samples, p);
}

bool TailMeasurable(size_t n, double p) {
  // In hundredths, with slack for the rounding of 100 - p.
  return (100.0 - p) * static_cast<double>(n) >= 1000.0 - 1e-6;
}

double WindowedRate(const std::vector<Window>& windows) {
  std::vector<double> rates;
  for (const Window& w : windows) rates.push_back(w.frames / (w.busy_ms / 1e3));
  return Percentile(rates, 75.0);
}

void SetWindowedTimings(const std::vector<Window>& windows, double p,
                        const std::string& what, Outcome* out) {
  std::vector<double> p50s;
  std::vector<double> tails;
  size_t fewest = windows.empty() ? 0 : windows[0].latency_ms.size();
  for (const Window& w : windows) {
    fewest = std::min(fewest, w.latency_ms.size());
    p50s.push_back(Median(w.latency_ms));
    tails.push_back(Percentile(w.latency_ms, p));
  }
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "latency: %s; tail = p%g; quartiles over %zu windows of at "
                "least %zu samples",
                what.c_str(), p, windows.size(), fewest);
  out->notes.push_back(buf);
  if (windows.empty() || !TailMeasurable(fewest, p)) {
    out->Unmeasured("a window has fewer than 10 samples beyond the p" +
                    std::to_string(p) + " tail");
  }
  out->metrics["frames_per_s"] = WindowedRate(windows);
  out->metrics["latency_p50_ms"] = Percentile(p50s, 25.0);
  out->metrics["latency_tail_ms"] = Percentile(tails, 25.0);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

int HostThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void Digest::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFF;
    h_ *= 1099511628211ull;
  }
}

void Digest::AddDouble(double v) { Add(std::bit_cast<uint64_t>(v)); }

void Digest::AddRun(const vqe::RunResult& r) {
  AddDouble(r.s_sum);
  AddDouble(r.charged_cost_ms);
  Add(r.frames_processed);
  Add(r.selection_counts.size());
  for (const uint64_t c : r.selection_counts) Add(c);
}

void Digest::AddQuery(const vqe::QueryOutput& q) {
  Add(q.frame_ids.size());
  for (const int64_t id : q.frame_ids) Add(static_cast<uint64_t>(id));
  AddDouble(q.charged_cost_ms);
  Add(q.frames_processed);
  Add(q.selection_counts.size());
  for (const uint64_t c : q.selection_counts) Add(c);
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void CheckRecordedDigest(const Args& args, const std::string& digest,
                         Outcome* out) {
  const std::string key = args.workload + " " + std::to_string(args.input());
  if (args.record) {
    std::printf("%s %s\n", key.c_str(), digest.c_str());
    return;
  }
  std::ifstream in(args.digests);
  if (!in) {
    out->Fail("cannot read digest table " + args.digests);
    return;
  }
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string workload, input, recorded;
    if (!(fields >> workload >> input >> recorded)) continue;
    if (workload + " " + input != key) continue;
    if (recorded != digest) {
      out->Fail("output digest " + digest + " != recorded " + recorded +
                " for " + key);
    }
    return;
  }
  out->Fail("no recorded digest for " + key);
}

bool ReplayFusionAndAp(const vqe::Video& video, const vqe::DetectorPool& pool,
                       uint64_t trial_seed, size_t frames) {
  const vqe::MatrixOptions options;
  auto fusion = std::move(vqe::CreateEnsembleMethod(options.fusion,
                                                    options.fusion_options))
                    .value();
  vqe::Video head;
  head.geometry = video.geometry;
  frames = std::min(frames, video.size());
  head.frames.assign(video.frames.begin(),
                     video.frames.begin() + static_cast<long>(frames));
  auto program = vqe::LazyFrameEvaluator::Create(head, pool, trial_seed,
                                                 options);
  if (!program.ok()) return false;
  const int m = static_cast<int>(pool.size());
  const uint32_t masks = vqe::NumEnsembles(m);
  bool same = true;
  std::vector<vqe::DetectionList> per_model(static_cast<size_t>(m));
  std::vector<const vqe::DetectionList*> inputs;
  vqe::DetectionList fused;
  for (size_t t = 0; t < frames; ++t) {
    const vqe::VideoFrame& frame = head.frames[t];
    for (int i = 0; i < m; ++i) {
      per_model[static_cast<size_t>(i)] =
          pool.detectors[static_cast<size_t>(i)]->Detect(frame, trial_seed);
    }
    const vqe::DetectionList ref = pool.reference->Detect(frame, trial_seed);
    const vqe::GroundTruthIndex ref_index = vqe::BuildGroundTruthIndex(
        vqe::DetectionsAsGroundTruth(ref, options.ref_confidence_threshold));
    const vqe::GroundTruthIndex gt_index =
        vqe::BuildGroundTruthIndex(frame.objects);
    const int num_ids = vqe::AssignFrameDetIds(per_model);
    const vqe::FrameSoA soa(per_model, num_ids);
    vqe::PairwiseIouCache iou;
    if (fusion->ConsumesIouCache()) iou = vqe::PairwiseIouCache(soa);
    for (vqe::EnsembleId mask = 1; mask <= masks; ++mask) {
      inputs.clear();
      for (int i = 0; i < m; ++i) {
        if (vqe::ContainsModel(mask, i)) {
          inputs.push_back(&per_model[static_cast<size_t>(i)]);
        }
      }
      {
        Span span("fusion.fuse");
        fusion->FuseInto(vqe::DetectionListSpan(inputs),
                         iou.enabled() ? &iou : nullptr, &soa, &fused);
      }
      double est = 0.0;
      double truth = 0.0;
      {
        Span span("detection.ap");
        est = vqe::FrameMeanAp(fused, ref_index, options.ap);
      }
      {
        Span span("detection.ap");
        truth = vqe::FrameMeanAp(fused, gt_index, options.ap);
      }
      const vqe::MaskEvaluation e = program.value()->Eval(t, mask);
      same = same && e.est_ap == est && e.true_ap == truth;
    }
  }
  return same;
}

void SetReplayMetrics(Outcome* out) {
  const auto totals = Tracer::Collect();
  auto per_call_us = [&](const char* name) {
    const auto it = totals.find(name);
    if (it == totals.end() || it->second.count == 0) return 0.0;
    return it->second.incl_ns / 1e3 / static_cast<double>(it->second.count);
  };
  out->metrics["fusion.fuse_us_per_mask"] = per_call_us("fusion.fuse");
  out->metrics["detection.ap_us_per_call"] = per_call_us("detection.ap");
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const auto* kMetrics =
      new std::vector<std::pair<std::string, std::string>>{
          {"setup_s", "s"},
          {"peak_rss_mb", "MB"},
          {"frames_per_s", "frames/s"},
          {"latency_p50_ms", "ms"},
          {"latency_tail_ms", "ms"},
      };
  return *kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const auto* kMetrics =
      new std::vector<std::pair<std::string, std::string>>{
          {"models.detect_calls_per_frame", "count"},
          {"models.detect_us_per_frame", "us"},
          {"models.useful_ratio", "ratio"},
          {"core.materialize_us_per_frame", "us"},
          {"core.materialize_self_us_per_frame", "us"},
          {"core.eval_us_per_mask", "us"},
          {"core.masks_per_frame", "count"},
          {"core.memo_hit_ratio", "ratio"},
          {"fusion.fuse_us_per_mask", "us"},
          {"detection.ap_us_per_call", "us"},
          {"core.select_us", "us"},
          {"core.observe_us", "us"},
          {"core.step_us", "us"},
          {"core.step_self_us", "us"},
          {"core.step_coverage", "ratio"},
          {"core.matrix_build_ms_per_trial", "ms"},
          {"core.run_ms.OPT", "ms"},
          {"core.run_ms.BF", "ms"},
          {"core.run_ms.SGL", "ms"},
          {"core.run_ms.RAND", "ms"},
          {"core.run_ms.EF", "ms"},
          {"core.run_ms.MES", "ms"},
          {"common.pool_speedup", "ratio"},
          {"serve.round_us_p50", "us"},
          {"serve.round_us_tail", "us"},
          {"serve.frames_per_round", "count"},
          {"serve.queue_wait_ms_p50", "ms"},
          {"serve.queue_wait_ms_tail", "ms"},
          {"serve.backlog_growth", "streams/s"},
          {"serve.overhead_ratio", "ratio"},
          {"serve.gen_lag_ms_tail", "ms"},
          {"serve.sustained_rate", "streams/s"},
          {"query.parse_us", "us"},
          {"query.exec_ms", "ms"},
          {"sim.sample_ms", "ms"},
          {"query.self_ms_per_frame", "ms"},
          {"trace.overhead_ratio", "ratio"},
      };
  return *kMetrics;
}

}  // namespace vqebench
