// Forwarding timing decorators for the three extension points the engine
// calls through: ObjectDetector, EvaluationSource and SelectionStrategy.
//
// Each decorator forwards every virtual of its interface unchanged to the
// wrapped object and opens a Span (trace.h) around the call, so a
// decorated run computes exactly what an undecorated one does — the
// benchmark's own test asserts this bit for bit. Spans are no-ops while
// tracing is off.
//
// Detectors are wrapped BENEATH any fault decorator: the retry layer
// dispatches on dynamic_cast<const FallibleDetector*>, so a timing wrapper
// around a FaultInjectingDetector would hide its attempt API. TimePool
// therefore wraps the plain simulated detectors of a freshly built pool,
// and fault scripts are applied on top of the timed pool.

#ifndef VQEBENCH_DECORATORS_H_
#define VQEBENCH_DECORATORS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluation_source.h"
#include "core/strategy.h"
#include "models/detector.h"
#include "models/model_zoo.h"

namespace vqebench {

class TimedDetector final : public vqe::ObjectDetector {
 public:
  explicit TimedDetector(std::unique_ptr<vqe::ObjectDetector> inner)
      : inner_(std::move(inner)) {}

  const std::string& name() const override { return inner_->name(); }
  vqe::DetectionList Detect(const vqe::VideoFrame& frame,
                            uint64_t trial_seed) const override;
  double InferenceCostMs(const vqe::VideoFrame& frame,
                         uint64_t trial_seed) const override;
  uint64_t param_count() const override { return inner_->param_count(); }
  const std::string& structure_name() const override {
    return inner_->structure_name();
  }

 private:
  std::unique_ptr<vqe::ObjectDetector> inner_;
};

/// Replaces every detector of `pool` with a TimedDetector that owns it.
/// The reference model is left as is: its time belongs to the frame
/// materialization layer (core.materialize self time).
vqe::DetectorPool TimePool(vqe::DetectorPool pool);

class TimedSource final : public vqe::EvaluationSource {
 public:
  explicit TimedSource(std::unique_ptr<vqe::EvaluationSource> inner);

  int num_models() const override { return inner_->num_models(); }
  size_t num_frames() const override { return inner_->num_frames(); }
  /// The first Stats() of a frame is the "core.materialize" span (it runs
  /// the detectors on a lazy source); later ones are "core.stats".
  vqe::FrameStats Stats(size_t t) override;
  vqe::MaskEvaluation Eval(size_t t, vqe::EnsembleId mask) override;
  vqe::SceneContext PeekContext(size_t t) override;
  bool SupportsPropagation() const override {
    return inner_->SupportsPropagation();
  }
  vqe::Result<double> ScorePropagated(
      size_t t, const vqe::DetectionList& dets) override;
  const vqe::DetectionList* FusedOutput(size_t t,
                                        vqe::EnsembleId mask) override;
  const std::vector<vqe::EnsembleId>* TrueFrontier(size_t t) override;
  vqe::Status SaveState(vqe::ByteWriter& writer) const override {
    return inner_->SaveState(writer);
  }
  vqe::Status RestoreState(vqe::ByteReader& reader) override {
    return inner_->RestoreState(reader);
  }

 private:
  std::unique_ptr<vqe::EvaluationSource> inner_;
  std::vector<uint8_t> touched_;
};

/// Where a TimedStrategy reports what it saw; null members are skipped.
struct StrategySinks {
  /// Σ |realized ensemble| over observed frames (models.useful_ratio).
  std::atomic<uint64_t>* realized_members = nullptr;
  /// Steady-clock ns of the first Select, written once (a served
  /// stream's admission time).
  int64_t* first_select_ns = nullptr;
};

class TimedStrategy final : public vqe::SelectionStrategy {
 public:
  explicit TimedStrategy(std::unique_ptr<vqe::SelectionStrategy> inner,
                         StrategySinks sinks = {})
      : inner_(std::move(inner)), sinks_(sinks) {}

  const std::string& name() const override { return inner_->name(); }
  void BeginVideo(const vqe::StrategyContext& ctx) override;
  vqe::EnsembleId Select(size_t t) override;
  void Observe(const vqe::FrameFeedback& feedback) override;
  bool UsesReferenceModel() const override {
    return inner_->UsesReferenceModel();
  }
  bool needs_full_lattice() const override {
    return inner_->needs_full_lattice();
  }
  void SetEligibleModels(vqe::EnsembleId eligible) override {
    inner_->SetEligibleModels(eligible);
  }
  vqe::Status SaveState(vqe::ByteWriter& writer) const override {
    return inner_->SaveState(writer);
  }
  vqe::Status RestoreState(vqe::ByteReader& reader) override {
    return inner_->RestoreState(reader);
  }

 private:
  std::unique_ptr<vqe::SelectionStrategy> inner_;
  StrategySinks sinks_;
};

}  // namespace vqebench

#endif  // VQEBENCH_DECORATORS_H_
