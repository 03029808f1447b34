#include "detection/frame_soa.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace vqe {
namespace {

/// Sort key that orders doubles by descending value: equal values (−0.0
/// and +0.0 included) get equal keys, and NaN gets a fixed place, so the
/// order is total for every input a detector can emit.
uint64_t DescendingKey(double value) {
  value += 0.0;  // −0.0 → +0.0
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  const uint64_t ascending = (bits >> 63) != 0 ? ~bits : bits | (1ULL << 63);
  return ~ascending;
}

}  // namespace

FrameSoA::FrameSoA(const std::vector<DetectionList>& per_model, int num_ids) {
  Rebuild(per_model, num_ids);
}

void FrameSoA::Rebuild(const std::vector<DetectionList>& per_model,
                       int num_ids) {
  source_ = &per_model;
  blocks_.clear();
  num_ids_ = num_ids > 0 ? num_ids : 0;
  const size_t n = static_cast<size_t>(num_ids_);
  x1_.assign(n, 0.0);
  y1_.assign(n, 0.0);
  x2_.assign(n, 0.0);
  y2_.assign(n, 0.0);
  score_.assign(n, 0.0);
  area_.assign(n, 0.0);
  label_.assign(n, 0);
  model_.assign(n, -1);
  filled_.assign(n, 0);

  // Scatter each detection into its id slot, later writers winning — the
  // same id→detection resolution the tile's historical by_id map applied.
  // `src_list_`/`src_ptr_` record the winning writer's source-list index and
  // address for the packed provenance arrays below.
  src_list_.assign(n, -1);
  src_ptr_.assign(n, nullptr);
  for (size_t li = 0; li < per_model.size(); ++li) {
    for (const auto& d : per_model[li]) {
      if (d.frame_det_id < 0 || d.frame_det_id >= num_ids_) continue;
      const size_t i = static_cast<size_t>(d.frame_det_id);
      x1_[i] = d.box.x1;
      y1_[i] = d.box.y1;
      x2_[i] = d.box.x2;
      y2_[i] = d.box.y2;
      score_[i] = d.confidence;
      area_[i] = d.box.Area();
      label_[i] = d.label;
      model_[i] = d.model_index;
      filled_[i] = 1;
      src_list_[i] = static_cast<int32_t>(li);
      src_ptr_[i] = &d;
    }
  }

  // Pack the filled ids into ascending-(label, id) order and record each
  // class's run. Ids are unique keys, so the order is total. Sorting one
  // integer key per id — the label's bits with the sign flipped (which
  // maps int32 order onto uint32 order) above the id — is the same order
  // as comparing (label, id) through the lanes, at a fraction of the cost.
  sort_keys_.clear();
  for (size_t i = 0; i < n; ++i) {
    if (filled_[i] == 0) continue;
    const uint32_t label_bits = static_cast<uint32_t>(label_[i]) ^ 0x80000000u;
    sort_keys_.push_back((static_cast<uint64_t>(label_bits) << 32) | i);
  }
  std::sort(sort_keys_.begin(), sort_keys_.end());
  packed_id_.resize(sort_keys_.size());
  for (size_t s = 0; s < sort_keys_.size(); ++s) {
    packed_id_[s] = static_cast<int32_t>(sort_keys_[s] & 0xFFFFFFFFu);
  }

  const size_t p = packed_id_.size();
  packed_x1_.resize(p);
  packed_y1_.resize(p);
  packed_x2_.resize(p);
  packed_y2_.resize(p);
  packed_area_.resize(p);
  packed_list_.resize(p);
  packed_src_.resize(p);
  for (size_t s = 0; s < p; ++s) {
    const size_t i = static_cast<size_t>(packed_id_[s]);
    packed_x1_[s] = x1_[i];
    packed_y1_[s] = y1_[i];
    packed_x2_[s] = x2_[i];
    packed_y2_[s] = y2_[i];
    packed_area_[s] = area_[i];
    packed_list_[s] = src_list_[i];
    packed_src_[s] = src_ptr_[i];
    const ClassId cls = label_[i];
    if (blocks_.empty() || blocks_.back().label != cls) {
      blocks_.push_back(LabelBlock{cls, s, s + 1});
    } else {
      blocks_.back().end = s + 1;
    }
  }

  // Per-block stable descending-score order, computed once per frame.
  // AssignFrameDetIds hands out ids monotonically in (list, position)
  // order, so packed (id-ascending) order within a block IS the
  // model-major flatten order fusion pools in — a stable sort over it
  // produces exactly the tie-breaks the per-mask SortGroupDesc produced,
  // and stays exact under any subset filter (stable-sort-then-filter ==
  // filter-then-stable-sort). Breaking score ties by ascending slot makes
  // the order total, so an in-place sort yields that stable order without
  // the temporary buffer std::stable_sort allocates.
  sorted_slot_.resize(p);
  for (size_t s = 0; s < p; ++s) sorted_slot_[s] = static_cast<int32_t>(s);
  auto slot_key = [this](int32_t slot) {
    return DescendingKey(
        score_[static_cast<size_t>(packed_id_[static_cast<size_t>(slot)])]);
  };
  for (const LabelBlock& block : blocks_) {
    std::sort(sorted_slot_.begin() + static_cast<std::ptrdiff_t>(block.begin),
              sorted_slot_.begin() + static_cast<std::ptrdiff_t>(block.end),
              [&slot_key](int32_t a, int32_t b) {
                const uint64_t ka = slot_key(a);
                const uint64_t kb = slot_key(b);
                return ka != kb ? ka < kb : a < b;
              });
  }
}

}  // namespace vqe
