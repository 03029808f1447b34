// Lazy, memoized evaluation source: the dual of Alg. 1's subset reuse.
// BuildFrameMatrix eagerly fuses and scores all 2^m − 1 masks per frame;
// online strategies (MES / MES-B / SW-MES / SGL / RAND / EF) only ever
// read the subset lattice of the mask they selected, so an eager build
// does exponentially more fusion work than the run observes. This source
// runs a frame's detectors when a read first needs them and materializes
// a mask's ⟨est_ap, true_ap, cost, overhead⟩ cell on first read, memoized
// per (frame, mask); repeated reads — subset updates, window replays,
// oracle probes — are free.
//
// One frame is live at a time. Subset reuse only needs the current
// frame's member outputs, so the evaluator keeps a single
// FrameEvalContext and reloads it in place (FrameEvalContext::Load) when
// a read moves to another frame; per frame it keeps only the cost
// normalizer and the memo, and memory does not grow with the detector
// outputs of past frames. Readers are expected to walk frames in
// ascending order, as EngineRun does. Any other order is correct but
// pays: an uncached cell or a Stats() read on a frame other than the
// live one re-runs that frame's detectors. That is why RunExperiment
// steps a trial's strategies in frame lockstep and SGL's calibration
// scans frame-major.
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

  /// Instrumentation: distinct frames whose detectors have run (a frame
  /// reloaded by an out-of-order read counts once).
  size_t frames_touched() const { return frames_touched_; }
  /// Distinct (frame, mask) cells fused and scored. An eager build does
  /// num_frames() · num_ensembles() of these; the gap is the work lazy
  /// evaluation skipped.
  uint64_t masks_materialized() const { return masks_materialized_; }
  /// Eval calls served from the memo without fusing.
  uint64_t memo_hits() const { return memo_hits_; }

  /// Serializes the memo (counters + every known cell per touched frame).
  /// Restored cells are served without re-running detectors; a frame's
  /// detectors run again only if an unknown mask or Stats() is requested
  /// for it while another frame is live (deterministic, so values match).
  /// Restoring keeps the live context: it depends only on its frame.
  Status SaveState(ByteWriter& writer) const override;
  Status RestoreState(ByteReader& reader) override;

 private:
  LazyFrameEvaluator(Video video, const DetectorPool& pool,
                     uint64_t trial_seed, const MatrixOptions& options,
                     std::unique_ptr<EnsembleMethod> fusion);

  /// What outlives the live frame: the normalizer and the memo.
  struct FrameSlot {
    double max_cost_ms = 0.0;
    /// Memo indexed by mask (index 0 unused), allocated on frame touch.
    std::vector<MaskEvaluation> memo;
    std::vector<uint8_t> known;
  };

  /// Makes frame t the live frame (running its detectors unless it
  /// already is) and allocates its memo on first access.
  FrameSlot& Touch(size_t t);

  static constexpr size_t kNoFrame = static_cast<size_t>(-1);

  Video video_;
  const DetectorPool* pool_;
  uint64_t trial_seed_;
  MatrixOptions options_;
  std::unique_ptr<EnsembleMethod> fusion_;
  std::vector<FrameSlot> slots_;
  /// The one materialized frame, reloaded in place when a read moves to
  /// another frame; empty until the first touch.
  FrameEvalContext live_;
  size_t live_t_ = kNoFrame;
  size_t frames_touched_ = 0;
  uint64_t masks_materialized_ = 0;
  uint64_t memo_hits_ = 0;
  /// Reused FusedOutput buffer (valid until the next call).
  DetectionList fused_buf_;
};

}  // namespace vqe

#endif  // VQE_CORE_LAZY_FRAME_EVALUATOR_H_
