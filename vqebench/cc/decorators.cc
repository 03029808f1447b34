#include "decorators.h"

#include <bit>

#include "trace.h"

namespace vqebench {

vqe::DetectionList TimedDetector::Detect(const vqe::VideoFrame& frame,
                                         uint64_t trial_seed) const {
  Span span("models.detect");
  return inner_->Detect(frame, trial_seed);
}

double TimedDetector::InferenceCostMs(const vqe::VideoFrame& frame,
                                      uint64_t trial_seed) const {
  Span span("models.cost");
  return inner_->InferenceCostMs(frame, trial_seed);
}

vqe::DetectorPool TimePool(vqe::DetectorPool pool) {
  for (auto& det : pool.detectors) {
    det = std::make_unique<TimedDetector>(std::move(det));
  }
  return pool;
}

TimedSource::TimedSource(std::unique_ptr<vqe::EvaluationSource> inner)
    : inner_(std::move(inner)), touched_(inner_->num_frames(), 0) {}

vqe::FrameStats TimedSource::Stats(size_t t) {
  if (touched_[t] == 0) {
    touched_[t] = 1;
    Span span("core.materialize");
    return inner_->Stats(t);
  }
  Span span("core.stats");
  return inner_->Stats(t);
}

vqe::MaskEvaluation TimedSource::Eval(size_t t, vqe::EnsembleId mask) {
  Span span("core.eval");
  return inner_->Eval(t, mask);
}

vqe::SceneContext TimedSource::PeekContext(size_t t) {
  Span span("core.peek");
  return inner_->PeekContext(t);
}

vqe::Result<double> TimedSource::ScorePropagated(
    size_t t, const vqe::DetectionList& dets) {
  Span span("core.score_propagated");
  return inner_->ScorePropagated(t, dets);
}

const vqe::DetectionList* TimedSource::FusedOutput(size_t t,
                                                   vqe::EnsembleId mask) {
  Span span("core.fused_output");
  return inner_->FusedOutput(t, mask);
}

const std::vector<vqe::EnsembleId>* TimedSource::TrueFrontier(size_t t) {
  Span span("core.true_frontier");
  return inner_->TrueFrontier(t);
}

void TimedStrategy::BeginVideo(const vqe::StrategyContext& ctx) {
  Span span("core.begin_video");
  inner_->BeginVideo(ctx);
}

vqe::EnsembleId TimedStrategy::Select(size_t t) {
  if (sinks_.first_select_ns != nullptr && *sinks_.first_select_ns == 0) {
    *sinks_.first_select_ns = NowNs();
  }
  Span span("core.select");
  return inner_->Select(t);
}

void TimedStrategy::Observe(const vqe::FrameFeedback& feedback) {
  if (sinks_.realized_members != nullptr) {
    sinks_.realized_members->fetch_add(
        static_cast<uint64_t>(std::popcount(feedback.CreditMask())),
        std::memory_order_relaxed);
  }
  Span span("core.observe");
  inner_->Observe(feedback);
}

}  // namespace vqebench
