#include "core/frame_eval.h"

#include <utility>

#include "runtime/retry.h"

namespace vqe {

FrameEvalContext::FrameEvalContext(const MatrixOptions& options,
                                   const EnsembleMethod& fusion)
    : options_(&options), fusion_(&fusion) {}

FrameEvalContext::FrameEvalContext(const VideoFrame& frame,
                                   const DetectorPool& pool,
                                   uint64_t trial_seed,
                                   const MatrixOptions& options,
                                   const EnsembleMethod& fusion)
    : FrameEvalContext(options, fusion) {
  Load(frame, pool, trial_seed);
}

void FrameEvalContext::Load(const VideoFrame& frame, const DetectorPool& pool,
                            uint64_t trial_seed) {
  const size_t m = pool.detectors.size();
  model_out_.resize(m);
  model_cost_ms_.resize(m);
  model_fault_ms_.assign(m, 0.0);
  available_mask_ = 0;
  // Materialize per-model outputs once (the reuse of Alg. 1 lines 9-10),
  // each call routed through the deadline/retry choke point. The default
  // policy on a plain detector reduces to Detect + InferenceCostMs in the
  // historical order, so no-fault runs stay bit-identical. A failed call
  // contributes an empty output and only wasted time — the mask lattice
  // over the surviving models stays fully evaluable.
  for (size_t i = 0; i < m; ++i) {
    DetectorCallOutcome call =
        DetectWithRetries(*pool.detectors[i], frame, trial_seed,
                          options_->retry);
    model_cost_ms_[i] = call.charged_ms();
    model_fault_ms_[i] = call.fault_ms;
    if (call.ok()) {
      model_out_[i] = std::move(call.detections);
      available_mask_ |= Singleton(static_cast<int>(i));
    } else {
      model_out_[i].clear();
    }
  }
  const DetectionList ref_out = pool.reference->Detect(frame, trial_seed);
  ref_cost_ms_ = pool.reference->InferenceCostMs(frame, trial_seed);
  const GroundTruthList ref_gt =
      DetectionsAsGroundTruth(ref_out, options_->ref_confidence_threshold);
  IndexFrame(&ref_gt, &frame.objects);
}

void FrameEvalContext::Load(std::vector<DetectionList>* model_out,
                            std::vector<double>* model_cost_ms,
                            EnsembleId available_mask,
                            const GroundTruthList* ref_gt) {
  model_out_.swap(*model_out);
  model_cost_ms_.swap(*model_cost_ms);
  model_fault_ms_.clear();
  available_mask_ = available_mask;
  ref_cost_ms_ = 0.0;
  IndexFrame(ref_gt, /*gt=*/nullptr);
}

void FrameEvalContext::IndexFrame(const GroundTruthList* ref_gt,
                                  const GroundTruthList* gt) {
  // Per-frame invariants of the mask loop, built once and reused across
  // every evaluation.
  has_ref_ = ref_gt != nullptr;
  has_gt_ = gt != nullptr;
  if (has_ref_) RebuildGroundTruthIndex(*ref_gt, &ref_index_);
  if (has_gt_) RebuildGroundTruthIndex(*gt, &gt_index_);
  // The SoA store is built for every fusion method: its per-class,
  // presorted pools feed the grouped flatten of all 2^m − 1 mask
  // evaluations. The pairwise-IoU tile on top of it pays off only for
  // methods whose IoU queries are raw-pair (NMS family, NMW, Consensus);
  // WBF queries derived cluster boxes, so the tile would be pure
  // construction overhead there.
  const int num_ids = AssignFrameDetIds(model_out_);
  soa_.Rebuild(model_out_, num_ids);
  if (fusion_->ConsumesIouCache()) {
    iou_cache_.Rebuild(soa_);
  }
  // Warm the reused fused-output buffer: no fusion method emits more
  // boxes than it was given, so the mask loop never regrows it.
  size_t total_boxes = 0;
  for (const auto& out : model_out_) total_boxes += out.size();
  fused_scratch_.reserve(total_boxes);
}

double FrameEvalContext::FullEnsembleCostMs() const {
  size_t num_boxes = 0;
  double model_cost = 0.0;
  for (size_t i = 0; i < model_out_.size(); ++i) {
    num_boxes += model_out_[i].size();
    model_cost += model_cost_ms_[i];
  }
  return model_cost + SimulatedFusionOverheadMs(num_boxes);
}

MaskEvaluation FrameEvalContext::Evaluate(EnsembleId mask,
                                          DetectionList* fused_out) {
  size_t num_inputs = 0;
  size_t num_boxes = 0;
  double model_cost = 0.0;
  const int m = num_models();
  for (int i = 0; i < m; ++i) {
    if (!ContainsModel(mask, i)) continue;
    const DetectionList& out_i = model_out_[static_cast<size_t>(i)];
    inputs_[num_inputs++] = &out_i;
    num_boxes += out_i.size();
    model_cost += model_cost_ms_[static_cast<size_t>(i)];
  }
  fusion_->FuseInto(DetectionListSpan(inputs_.data(), num_inputs),
                    iou_cache_.enabled() ? &iou_cache_ : nullptr, &soa_,
                    &fused_scratch_);

  MaskEvaluation e;
  e.fusion_overhead_ms = SimulatedFusionOverheadMs(num_boxes);
  e.cost_ms = model_cost + e.fusion_overhead_ms;
  if (has_ref_) {
    e.est_ap = FrameMeanAp(fused_scratch_, ref_index_, options_->ap);
  }
  if (has_gt_) {
    e.true_ap = FrameMeanAp(fused_scratch_, gt_index_, options_->ap);
  }
  if (fused_out != nullptr) *fused_out = fused_scratch_;
  return e;
}

}  // namespace vqe
