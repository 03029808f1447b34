#include "core/lazy_frame_evaluator.h"

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
  slots_.resize(video_.size());
}

LazyFrameEvaluator::FrameSlot& LazyFrameEvaluator::Touch(size_t t) {
  if (live_t_ != t) {
    // Reloading is deterministic, so a frame read again after the live
    // context moved on (an out-of-order read, or a slot restored from a
    // snapshot) rebuilds exactly the context it had before.
    live_.Load(video_.frames[t], *pool_, trial_seed_);
    live_t_ = t;
  }
  FrameSlot& slot = slots_[t];
  // A slot restored from a snapshot already has its memo and normalizer,
  // and was counted as touched in the restored counters.
  if (slot.memo.empty()) {
    const uint32_t num_masks = num_ensembles();
    slot.max_cost_ms = live_.FullEnsembleCostMs();
    slot.memo.resize(num_masks + 1);
    slot.known.assign(num_masks + 1, 0);
    ++frames_touched_;
  }
  return slot;
}

FrameStats LazyFrameEvaluator::Stats(size_t t) {
  FrameSlot& slot = Touch(t);
  FrameStats stats;
  stats.context = video_.frames[t].context;
  stats.model_cost_ms = &live_.model_cost_ms();
  stats.ref_cost_ms = live_.ref_cost_ms();
  stats.max_cost_ms = slot.max_cost_ms;
  stats.available_mask = live_.available_mask();
  stats.model_fault_ms = &live_.model_fault_ms();
  return stats;
}

MaskEvaluation LazyFrameEvaluator::Eval(size_t t, EnsembleId mask) {
  // Known cells are served straight from the memo, whichever frame is
  // live — including cells restored from a snapshot.
  FrameSlot& cached = slots_[t];
  if (!cached.memo.empty() && cached.known[mask]) {
    ++memo_hits_;
    return cached.memo[mask];
  }
  FrameSlot& slot = Touch(t);
  slot.memo[mask] = live_.Evaluate(mask);
  slot.known[mask] = 1;
  ++masks_materialized_;
  return slot.memo[mask];
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
  uint64_t populated = 0;
  for (const FrameSlot& slot : slots_) {
    if (!slot.memo.empty()) ++populated;
  }
  writer.U64(populated);
  for (size_t t = 0; t < slots_.size(); ++t) {
    const FrameSlot& slot = slots_[t];
    if (slot.memo.empty()) continue;
    writer.U64(t);
    writer.F64(slot.max_cost_ms);
    uint64_t known = 0;
    for (uint8_t k : slot.known) known += k;
    writer.U64(known);
    for (uint32_t mask = 1; mask < slot.known.size(); ++mask) {
      if (!slot.known[mask]) continue;
      const MaskEvaluation& e = slot.memo[mask];
      writer.U32(mask);
      writer.F64(e.est_ap);
      writer.F64(e.true_ap);
      writer.F64(e.cost_ms);
      writer.F64(e.fusion_overhead_ms);
    }
  }
  return Status::OK();
}

Status LazyFrameEvaluator::RestoreState(ByteReader& reader) {
  uint64_t frames_touched = 0, masks_materialized = 0, memo_hits = 0, populated = 0;
  VQE_RETURN_NOT_OK(reader.U64(&frames_touched));
  VQE_RETURN_NOT_OK(reader.U64(&masks_materialized));
  VQE_RETURN_NOT_OK(reader.U64(&memo_hits));
  VQE_RETURN_NOT_OK(reader.U64(&populated));
  if (populated > slots_.size()) {
    return Status::DataLoss("lazy memo frame count exceeds video length");
  }
  const uint32_t num_masks = num_ensembles();
  std::vector<FrameSlot> slots(slots_.size());
  for (uint64_t i = 0; i < populated; ++i) {
    uint64_t t = 0, known = 0;
    double max_cost_ms = 0;
    VQE_RETURN_NOT_OK(reader.U64(&t));
    VQE_RETURN_NOT_OK(reader.F64(&max_cost_ms));
    VQE_RETURN_NOT_OK(reader.U64(&known));
    if (t >= slots.size()) {
      return Status::DataLoss("lazy memo frame index out of range");
    }
    FrameSlot& slot = slots[t];
    if (!slot.memo.empty()) {
      return Status::DataLoss("duplicate lazy memo frame");
    }
    if (known > num_masks) {
      return Status::DataLoss("lazy memo known-mask count out of range");
    }
    slot.max_cost_ms = max_cost_ms;
    slot.memo.resize(num_masks + 1);
    slot.known.assign(num_masks + 1, 0);
    for (uint64_t k = 0; k < known; ++k) {
      uint32_t mask = 0;
      MaskEvaluation e;
      VQE_RETURN_NOT_OK(reader.U32(&mask));
      VQE_RETURN_NOT_OK(reader.F64(&e.est_ap));
      VQE_RETURN_NOT_OK(reader.F64(&e.true_ap));
      VQE_RETURN_NOT_OK(reader.F64(&e.cost_ms));
      VQE_RETURN_NOT_OK(reader.F64(&e.fusion_overhead_ms));
      if (mask == 0 || mask > num_masks) {
        return Status::DataLoss("lazy memo mask out of range");
      }
      if (slot.known[mask]) {
        return Status::DataLoss("duplicate lazy memo mask");
      }
      slot.memo[mask] = e;
      slot.known[mask] = 1;
    }
  }
  // The live context (if any) stays: it is a pure function of its frame,
  // so it is as valid against the restored memo as it was before, and a
  // restored slot without a context is rebuilt on its next uncached read.
  slots_ = std::move(slots);
  frames_touched_ = static_cast<size_t>(frames_touched);
  masks_materialized_ = masks_materialized;
  memo_hits_ = memo_hits;
  return Status::OK();
}

}  // namespace vqe
