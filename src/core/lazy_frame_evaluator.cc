#include "core/lazy_frame_evaluator.h"

#include <algorithm>
#include <utility>

namespace vqe {

Result<std::unique_ptr<LazyFrameEvaluator>> LazyFrameEvaluator::Create(
    Video video, const DetectorPool& pool, uint64_t trial_seed,
    const MatrixOptions& options) {
  VQE_RETURN_NOT_OK(options.Validate());
  if (pool.detectors.empty()) {
    return Status::InvalidArgument("detector pool is empty");
  }
  if (pool.detectors.size() > static_cast<size_t>(kMaxPoolSize)) {
    return Status::InvalidArgument("detector pool exceeds kMaxPoolSize");
  }
  if (pool.reference == nullptr) {
    return Status::InvalidArgument("pool has no reference model");
  }
  VQE_ASSIGN_OR_RETURN(auto fusion,
                       CreateEnsembleMethod(options.fusion,
                                            options.fusion_options));
  return std::unique_ptr<LazyFrameEvaluator>(new LazyFrameEvaluator(
      std::move(video), pool, trial_seed, options, std::move(fusion)));
}

LazyFrameEvaluator::LazyFrameEvaluator(Video video, const DetectorPool& pool,
                                       uint64_t trial_seed,
                                       const MatrixOptions& options,
                                       std::unique_ptr<EnsembleMethod> fusion)
    : video_(std::move(video)),
      pool_(&pool),
      trial_seed_(trial_seed),
      options_(options),
      fusion_(std::move(fusion)),
      live_(options_, *fusion_) {
  const uint32_t num_masks = num_ensembles();
  memo_.resize(num_masks + 1);
  known_.assign(num_masks + 1, 0);
}

void LazyFrameEvaluator::Touch(size_t t) {
  if (live_t_ == t) return;
  // Reloading is deterministic, so a frame read again after the live
  // context moved on rebuilds exactly the context and cells it had before.
  live_.Load(video_.frames[t], *pool_, trial_seed_);
  live_t_ = t;
  live_max_cost_ms_ = live_.FullEnsembleCostMs();
  std::fill(known_.begin(), known_.end(), uint8_t{0});
  ++frames_touched_;
}

FrameStats LazyFrameEvaluator::Stats(size_t t) {
  Touch(t);
  FrameStats stats;
  stats.context = video_.frames[t].context;
  stats.model_cost_ms = &live_.model_cost_ms();
  stats.ref_cost_ms = live_.ref_cost_ms();
  stats.max_cost_ms = live_max_cost_ms_;
  stats.available_mask = live_.available_mask();
  stats.model_fault_ms = &live_.model_fault_ms();
  return stats;
}

MaskEvaluation LazyFrameEvaluator::Eval(size_t t, EnsembleId mask) {
  Touch(t);
  if (known_[mask]) {
    ++memo_hits_;
    return memo_[mask];
  }
  memo_[mask] = live_.Evaluate(mask);
  known_[mask] = 1;
  ++masks_materialized_;
  return memo_[mask];
}

Result<double> LazyFrameEvaluator::ScorePropagated(size_t t,
                                                   const DetectionList& dets) {
  const GroundTruthIndex index =
      BuildGroundTruthIndex(video_.frames[t].objects);
  return FrameMeanAp(dets, index, options_.ap);
}

const DetectionList* LazyFrameEvaluator::FusedOutput(size_t t,
                                                     EnsembleId mask) {
  Touch(t);
  // The scalar cell may already be memoized (the engine evaluates the
  // realized mask's subset lattice first); Evaluate is re-run regardless
  // because the memo keeps no boxes. One extra fusion per detect frame,
  // dwarfed by the m detector calls the frame already paid.
  live_.Evaluate(mask, &fused_buf_);
  return &fused_buf_;
}

Status LazyFrameEvaluator::SaveState(ByteWriter& writer) const {
  writer.U64(frames_touched_);
  writer.U64(masks_materialized_);
  writer.U64(memo_hits_);
  return Status::OK();
}

Status LazyFrameEvaluator::RestoreState(ByteReader& reader) {
  uint64_t frames_touched = 0, masks_materialized = 0, memo_hits = 0;
  VQE_RETURN_NOT_OK(reader.U64(&frames_touched));
  VQE_RETURN_NOT_OK(reader.U64(&masks_materialized));
  VQE_RETURN_NOT_OK(reader.U64(&memo_hits));
  // The live context and its memo (if any) stay: they are a pure function
  // of their frame, so they are as valid after the restore as before.
  frames_touched_ = static_cast<size_t>(frames_touched);
  masks_materialized_ = masks_materialized;
  memo_hits_ = memo_hits;
  return Status::OK();
}

}  // namespace vqe
