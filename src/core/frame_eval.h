// Shared per-frame evaluation kernel: caches one frame's per-model
// detector outputs and the per-class ground-truth indexes, and evaluates
// any ensemble mask on demand. Both the eager BuildFrameMatrix (which
// materializes all 2^m − 1 masks, one context per frame) and the
// LazyFrameEvaluator (which materializes only what a strategy touches,
// reloading one live context from frame to frame) run their mask
// evaluations through this one code path, so lazy and eager results are
// bit-identical *by construction*, not by parallel maintenance of two
// arithmetic pipelines. The online query executor scores its realized
// subset lattice (the Alg. 1 subset reuse) through the same kernel, over
// member outputs it ran itself: it has no ground truth, and runs REF only
// when its strategy learns from it, so those indexes are optional.

#ifndef VQE_CORE_FRAME_EVAL_H_
#define VQE_CORE_FRAME_EVAL_H_

#include <array>
#include <vector>

#include "core/ensemble_id.h"
#include "core/frame_matrix.h"
#include "detection/ap.h"
#include "detection/frame_soa.h"
#include "fusion/ensemble_method.h"
#include "fusion/iou_cache.h"
#include "models/model_zoo.h"
#include "sim/video.h"

namespace vqe {

/// Simulated box-fusion overhead c^e: a fixed dispatch cost plus a per-box
/// term. Kept ≪ any model's inference cost, per the paper's assumption.
/// The single definition shared by matrix construction, the lazy
/// evaluator, and the online query executor.
inline double SimulatedFusionOverheadMs(size_t num_input_boxes) {
  return 0.01 + 0.002 * static_cast<double>(num_input_boxes);
}

/// One mask's evaluation on one frame — the ⟨est_ap, true_ap, cost,
/// fusion_overhead⟩ cell of the frame matrix.
struct MaskEvaluation {
  /// AP of the fused output vs. the reference model (what MES observes).
  double est_ap = 0.0;
  /// AP vs. ground truth (measurement/oracle only).
  double true_ap = 0.0;
  /// Full ensemble cost per Eq. (1), ms.
  double cost_ms = 0.0;
  /// Fusion-only overhead c^e_{S|v}, ms.
  double fusion_overhead_ms = 0.0;
};

/// All per-frame state the mask loop reuses: cached per-model detections
/// and costs, the reference pseudo-ground-truth index and the true
/// ground-truth index (each when given), and (when the fusion method
/// consumes it) the pairwise-IoU tile over the cached detections.
///
/// Pools hold at most kMaxPoolSize models (BuildFrameMatrix,
/// LazyFrameEvaluator::Create and BuildPool enforce it).
///
/// Not thread-safe: Evaluate reuses a scratch buffer. Parallel callers
/// build one context per frame (frames are independent pure functions of
/// (frame, trial_seed), which is what makes the parallel eager build
/// bit-identical for any worker count). A serial caller that walks frames
/// one at a time keeps one context and Load()s each frame into it, reusing
/// the per-model lists, the SoA lanes and the fused scratch.
class FrameEvalContext {
 public:
  /// An empty context holding no frame; Load() fills it. `options` and
  /// `fusion` must outlive the context.
  FrameEvalContext(const MatrixOptions& options, const EnsembleMethod& fusion);

  /// Runs all m detectors and the reference model on `frame`. `pool`,
  /// `options` and `fusion` must outlive the context.
  FrameEvalContext(const VideoFrame& frame, const DetectorPool& pool,
                   uint64_t trial_seed, const MatrixOptions& options,
                   const EnsembleMethod& fusion);

  /// Replaces the cached frame with `frame`, exactly as the running
  /// constructor (which delegates here) would build it: every detector
  /// and the reference model run again, and the REF, ground-truth and SoA
  /// indexes are rebuilt in place, keeping their buffers' capacity. The
  /// result is a pure function of (frame, pool, trial_seed), so reloading
  /// a frame seen before reproduces its evaluations bit for bit.
  /// References returned by model_cost_ms(), model_fault_ms() and soa()
  /// now describe `frame`.
  void Load(const VideoFrame& frame, const DetectorPool& pool,
            uint64_t trial_seed);

  /// Replaces the cached frame with member outputs the caller already
  /// ran, rebuilding the indexes in place like the running Load:
  /// `model_out` and `model_cost_ms` are index-aligned with the pool
  /// (empty output and zero cost for a model that did not run or failed),
  /// and `available_mask` marks the models whose output exists. Both
  /// vectors are swapped in, so the caller gets the previous frame's
  /// buffers back to refill. The REF index is built only when `ref_gt` is
  /// non-null (else Evaluate leaves est_ap at 0), and no ground-truth
  /// index is built (true_ap stays 0). model_fault_ms() is empty: the
  /// caller accounts its own fault time.
  void Load(std::vector<DetectionList>* model_out,
            std::vector<double>* model_cost_ms, EnsembleId available_mask,
            const GroundTruthList* ref_gt);

  int num_models() const { return static_cast<int>(model_out_.size()); }
  const std::vector<double>& model_cost_ms() const { return model_cost_ms_; }
  double ref_cost_ms() const { return ref_cost_ms_; }

  /// Models whose call succeeded on this frame (after the retry policy in
  /// MatrixOptions ran its course). Full when nothing failed.
  EnsembleId available_mask() const { return available_mask_; }
  /// Per-model wasted time (failed attempts + backoff); part of
  /// model_cost_ms, split out so callers can report fault time separately.
  const std::vector<double>& model_fault_ms() const { return model_fault_ms_; }

  /// c_{M|v} of the full pool: Σ over all models (ascending index) plus
  /// the fusion overhead of every cached box. Bit-identical to
  /// Evaluate(FullEnsemble(m)).cost_ms without fusing anything, and equal
  /// to max_S c_{S|v}: every accumulator folds non-negative terms in the
  /// same ascending-index order, and IEEE round-to-nearest folds of
  /// non-negative terms are monotone under term inclusion, so no subset's
  /// rounded sum can exceed the full pool's.
  double FullEnsembleCostMs() const;

  /// Fuses and scores one mask from the cached outputs. When `fused_out`
  /// is non-null it receives the fused detection list.
  ///
  /// Steady-state allocation-free: the fused output lands in a reused
  /// member buffer (warmed to the frame's total box count at
  /// construction), fusion/scoring scratch lives in the calling thread's
  /// FrameArena, and the per-frame IoU tile was built up front.
  MaskEvaluation Evaluate(EnsembleId mask, DetectionList* fused_out = nullptr);

  /// The frame's SoA detection store (empty unless the fusion method
  /// consumes the IoU cache, which is when the tile kernel needs it).
  const FrameSoA& soa() const { return soa_; }

 private:
  /// Builds the per-frame invariants of the mask loop over model_out_, in
  /// place: the indexes, the SoA lanes and the IoU tile keep their buffers.
  void IndexFrame(const GroundTruthList* ref_gt, const GroundTruthList* gt);

  const MatrixOptions* options_;
  const EnsembleMethod* fusion_;
  std::vector<DetectionList> model_out_;
  std::vector<double> model_cost_ms_;
  std::vector<double> model_fault_ms_;
  EnsembleId available_mask_ = 0;
  double ref_cost_ms_ = 0.0;
  bool has_ref_ = false;
  bool has_gt_ = false;
  GroundTruthIndex ref_index_;
  GroundTruthIndex gt_index_;
  FrameSoA soa_;
  PairwiseIouCache iou_cache_;
  // Evaluate's member list: fixed capacity, so building a context per
  // frame allocates nothing for it.
  std::array<const DetectionList*, kMaxPoolSize> inputs_{};
  DetectionList fused_scratch_;               // reused fused-output buffer
};

}  // namespace vqe

#endif  // VQE_CORE_FRAME_EVAL_H_
