// Structure-of-arrays mirror of a frame's cached per-model detections.
// The per-frame fusion hot path evaluates up to 2^m − 1 masks over the
// same m detection lists; kernels that sweep many box pairs (the pairwise
// IoU tile, vectorized overlap scans) pay for Detection's AoS layout twice
// — 64-byte strides for 8-byte coordinate reads, plus a pointer chase per
// box. FrameSoA is built once per frame, right after AssignFrameDetIds,
// and exposes the coordinates as contiguous parallel arrays indexed by
// frame_det_id so those kernels stream over dense lanes instead.
//
// Two views are maintained:
//   * id-indexed arrays (x1/y1/x2/y2/score/area/label/model): slot i is
//     the detection whose frame_det_id == i, matching the ids a prior
//     AssignFrameDetIds assigned. Slots no detection claims are zeroed
//     and excluded from the label blocks.
//   * label-sorted packed blocks: ids grouped by ascending class label
//     (ids ascending within a block), with the block's coordinates packed
//     contiguously. Fusion only compares boxes within a class, so a
//     kernel that walks one block touches exactly the pairs it needs,
//     over unit-stride lanes the compiler can vectorize.
//
// The SoA arrays are plain copies — coordinate and area values are the
// exact doubles the source Detections carry (area via BBox::Area(), the
// same expression scalar IoU evaluates) — so SoA kernels can promise
// bit-identical results to their pointer-chasing predecessors.

#ifndef VQE_DETECTION_FRAME_SOA_H_
#define VQE_DETECTION_FRAME_SOA_H_

#include <cstdint>
#include <vector>

#include "detection/detection.h"

namespace vqe {

class FrameSoA {
 public:
  /// One class's contiguous run in the packed arrays: slots
  /// [begin, end) of packed_*() all carry `label`.
  struct LabelBlock {
    ClassId label = 0;
    size_t begin = 0;
    size_t end = 0;
  };

  /// An empty store (num_ids() == 0).
  FrameSoA() = default;

  /// Builds the store over `per_model`, whose detections must carry the
  /// ids a prior AssignFrameDetIds(per_model) assigned; `num_ids` is its
  /// return value. Detections with out-of-range ids are skipped; when two
  /// detections claim one id the later one wins (matching the historical
  /// id→detection map used by the IoU tile). The source vector must
  /// outlive the store for per_model_view() to remain valid; the SoA
  /// arrays themselves are self-contained copies.
  FrameSoA(const std::vector<DetectionList>& per_model, int num_ids);

  /// Same contract as the building constructor, but refills this store in
  /// place: every lane keeps its capacity, so a store rebuilt frame after
  /// frame stops allocating once it has seen the largest frame.
  void Rebuild(const std::vector<DetectionList>& per_model, int num_ids);

  int num_ids() const { return num_ids_; }
  bool empty() const { return num_ids_ == 0; }

  /// Id-indexed parallel arrays (size num_ids()).
  const double* x1() const { return x1_.data(); }
  const double* y1() const { return y1_.data(); }
  const double* x2() const { return x2_.data(); }
  const double* y2() const { return y2_.data(); }
  const double* score() const { return score_.data(); }
  /// BBox::Area() of each box, precomputed with the exact expression
  /// scalar IoU uses.
  const double* area() const { return area_.data(); }
  const int32_t* label() const { return label_.data(); }
  /// Producing model's pool index (Detection::model_index).
  const int32_t* model() const { return model_.data(); }
  /// True when slot i was claimed by a detection.
  bool id_filled(int i) const {
    return filled_[static_cast<size_t>(i)] != 0;
  }

  /// Label-sorted packed view: blocks() partitions the packed arrays by
  /// ascending class; packed_id()[s] maps packed slot s back to the
  /// frame_det_id whose coordinates packed_x1()[s] … hold.
  const std::vector<LabelBlock>& blocks() const { return blocks_; }
  const int32_t* packed_id() const { return packed_id_.data(); }
  const double* packed_x1() const { return packed_x1_.data(); }
  const double* packed_y1() const { return packed_y1_.data(); }
  const double* packed_x2() const { return packed_x2_.data(); }
  const double* packed_y2() const { return packed_y2_.data(); }
  const double* packed_area() const { return packed_area_.data(); }
  size_t packed_size() const { return packed_id_.size(); }

  /// Per packed slot: the index within the *source vector* of the list the
  /// slot's detection came from (not Detection::model_index, which
  /// producers may leave unset). Fusion's grouped flatten uses this to
  /// filter the packed blocks down to a mask's member lists.
  const int32_t* packed_list() const { return packed_list_.data(); }
  /// Per packed slot: pointer to the source Detection (valid while the
  /// source lists are unmodified). Lets fusion copy full records —
  /// box_variance and all — straight from the block walk.
  const Detection* const* packed_src() const { return packed_src_.data(); }
  /// Per-block stable descending-score permutation: for s in
  /// [block.begin, block.end), sorted_slot()[s] visits the block's packed
  /// slots from highest to lowest score, ties in packed (id-ascending =
  /// model-major input) order. Because a stable sort of a sequence,
  /// filtered to any subset, equals the stable sort of that filtered
  /// subset, fusion reuses this one per-frame permutation for every mask's
  /// descending-confidence pool instead of re-sorting per mask.
  const int32_t* sorted_slot() const { return sorted_slot_.data(); }

  /// The source per-model vector the store was built over (nullptr for an
  /// empty store). Fusion's fast path uses address identity against this
  /// vector to map a mask's input lists back to packed_list() indices.
  const std::vector<DetectionList>* source() const { return source_; }

  /// Non-owning view of the source per-model lists, so call sites that
  /// still speak EnsembleMethod::Fuse(DetectionListSpan) can be handed a
  /// FrameSoA without re-plumbing. Valid while the source vector lives.
  DetectionListSpan per_model_view() const {
    return source_ != nullptr ? DetectionListSpan(*source_)
                              : DetectionListSpan();
  }

 private:
  int num_ids_ = 0;
  std::vector<double> x1_, y1_, x2_, y2_, score_, area_;
  std::vector<int32_t> label_, model_;
  std::vector<uint8_t> filled_;
  std::vector<LabelBlock> blocks_;
  std::vector<int32_t> packed_id_;
  std::vector<double> packed_x1_, packed_y1_, packed_x2_, packed_y2_,
      packed_area_;
  std::vector<int32_t> packed_list_;
  std::vector<const Detection*> packed_src_;
  std::vector<int32_t> sorted_slot_;
  // Build scratch (id-indexed winning writer's list index and address,
  // packing sort keys), kept as members so Rebuild reuses their capacity.
  std::vector<int32_t> src_list_;
  std::vector<const Detection*> src_ptr_;
  std::vector<uint64_t> sort_keys_;
  const std::vector<DetectionList>* source_ = nullptr;
};

}  // namespace vqe

#endif  // VQE_DETECTION_FRAME_SOA_H_
