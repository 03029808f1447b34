// Lazy, memoized evaluation source: the dual of Alg. 1's subset reuse.
// BuildFrameMatrix eagerly fuses and scores all 2^m − 1 masks per frame;
// online strategies (MES / MES-B / SW-MES / SGL / RAND / EF) only ever
// read the subset lattice of the mask they selected, so an eager build
// does exponentially more fusion work than the run observes. This source
// runs a frame's detectors when a read first needs them and materializes
// a mask's ⟨est_ap, true_ap, cost, overhead⟩ cell on first read, memoized
// for the live frame; repeated reads of that frame — the subset updates
// of one step, the oracle probes, the other strategies of a lockstep
// experiment — are free.
//
// One frame is live at a time. Subset reuse only needs the current
// frame's member outputs, so the evaluator keeps a single
// FrameEvalContext and reloads it in place (FrameEvalContext::Load) when
// a read moves to another frame, together with a fixed-size memo of 2^m
// cells and the frame's cost normalizer, both cleared on every load.
// Memory therefore does not grow with the video. Readers are expected to
// walk frames in ascending order, as EngineRun does. Any other order is
// correct but pays: every read of a frame other than the live one re-runs
// that frame's detectors and forgets the live frame's memo. That is why
// RunExperiment steps a trial's strategies in frame lockstep and SGL's
// calibration scans frame-major.
//
// All evaluation goes through the same FrameEvalContext kernel as the
// eager build, so every materialized cell is bit-identical to the
// corresponding FrameMatrix entry, whichever order it was read in. The
// cost normalizer max_S c_{S|v} needs no lattice scan: it is the full
// pool's cost, computable from the cached box counts alone (see
// FrameEvalContext::FullEnsembleCostMs).

#ifndef VQE_CORE_LAZY_FRAME_EVALUATOR_H_
#define VQE_CORE_LAZY_FRAME_EVALUATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/evaluation_source.h"
#include "core/frame_eval.h"
#include "models/model_zoo.h"
#include "sim/video.h"

namespace vqe {

/// Lazy evaluation source over a sampled video. Owns the video; `pool`
/// must outlive the evaluator. Not thread-safe (the engine drives
/// strategies serially); distinct evaluators are independent.
class LazyFrameEvaluator final : public EvaluationSource {
 public:
  /// Validates exactly like BuildFrameMatrix (non-empty pool within
  /// kMaxPoolSize, reference model present, options ranges) but runs no
  /// detector: all work is deferred to first access.
  static Result<std::unique_ptr<LazyFrameEvaluator>> Create(
      Video video, const DetectorPool& pool, uint64_t trial_seed,
      const MatrixOptions& options = {});

  int num_models() const override {
    return static_cast<int>(pool_->detectors.size());
  }
  size_t num_frames() const override { return video_.size(); }

  /// Makes t the live frame. The returned pointers refer to the live
  /// context and stay valid until a read moves to another frame.
  FrameStats Stats(size_t t) override;
  MaskEvaluation Eval(size_t t, EnsembleId mask) override;
  /// Always nullptr: a true-score Pareto frontier requires the full
  /// lattice. Engine runs that need regret either use the eager matrix or
  /// accept the exhaustive (lattice-materializing) fallback.
  const std::vector<EnsembleId>* TrueFrontier(size_t) override {
    return nullptr;
  }

  /// Reads the sampled video's metadata — never touches the frame. This
  /// is what lets a skip-gated run decide a frame's fate for the cost of
  /// one byte read: the detectors only run if the gate says detect.
  SceneContext PeekContext(size_t t) override {
    return video_.frames[t].context;
  }

  /// The lazy source owns the video (ground truth included), so it can
  /// always score propagated boxes and extract fused outputs.
  bool SupportsPropagation() const override { return true; }

  /// Scores against the frame's ground truth directly from the owned
  /// video; runs no detector and does not materialize the frame.
  Result<double> ScorePropagated(size_t t,
                                 const DetectionList& dets) override;

  /// Materializes the frame (this IS the detect path's detector work) and
  /// fuses `mask` into a reused buffer, bypassing the memo counters: the
  /// boxes, not the scalars, are the product here.
  const DetectionList* FusedOutput(size_t t, EnsembleId mask) override;

  const Video& video() const { return video_; }

  /// Instrumentation: frame loads, i.e. how many times a read made a frame
  /// live and ran its detectors. An ascending walk loads each frame once;
  /// a frame read again after another one went live counts again.
  size_t frames_touched() const { return frames_touched_; }
  /// Cells fused and scored on a miss of the live frame's memo. An eager
  /// build does num_frames() · num_ensembles() of these; the gap is the
  /// work lazy evaluation skipped.
  uint64_t masks_materialized() const { return masks_materialized_; }
  /// Eval calls served from the memo without fusing.
  uint64_t memo_hits() const { return memo_hits_; }

  /// Serializes the three counters above, nothing else: a fixed-size
  /// payload whatever the run's progress. No cell is carried, since every
  /// cell is a pure function of (frame, mask) and a resumed run reads from
  /// its cursor frame on. Restoring keeps the live context and its memo,
  /// which depend only on their frame.
  Status SaveState(ByteWriter& writer) const override;
  Status RestoreState(ByteReader& reader) override;

 private:
  LazyFrameEvaluator(Video video, const DetectorPool& pool,
                     uint64_t trial_seed, const MatrixOptions& options,
                     std::unique_ptr<EnsembleMethod> fusion);

  /// Makes frame t the live frame unless it already is: reloads the
  /// context (running its detectors) and clears the memo.
  void Touch(size_t t);

  static constexpr size_t kNoFrame = static_cast<size_t>(-1);

  Video video_;
  const DetectorPool* pool_;
  uint64_t trial_seed_;
  MatrixOptions options_;
  std::unique_ptr<EnsembleMethod> fusion_;
  /// The one materialized frame, reloaded in place when a read moves to
  /// another frame; empty until the first touch.
  FrameEvalContext live_;
  size_t live_t_ = kNoFrame;
  /// The live frame's cost normalizer and memo. The memo is indexed by
  /// mask (index 0 unused), sized once and cleared on every load.
  double live_max_cost_ms_ = 0.0;
  std::vector<MaskEvaluation> memo_;
  std::vector<uint8_t> known_;
  size_t frames_touched_ = 0;
  uint64_t masks_materialized_ = 0;
  uint64_t memo_hits_ = 0;
  /// Reused FusedOutput buffer (valid until the next call).
  DetectionList fused_buf_;
};

}  // namespace vqe

#endif  // VQE_CORE_LAZY_FRAME_EVALUATOR_H_
