// Shared helpers for tests: synthetic frame matrices with controlled
// per-arm reward structure (and optional concept drift), and a keeper for
// the eager matrices serving sessions view.

#ifndef VQE_TESTS_TEST_UTIL_H_
#define VQE_TESTS_TEST_UTIL_H_

#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "core/evaluation_source.h"
#include "core/frame_matrix.h"

namespace vqe {
namespace test {

/// Builds a synthetic matrix with per-arm mean true APs (arm_ap indexed by
/// mask; index 0 unused) and per-model costs. When drift_flip is set, the
/// AP profile of every arm is swapped with its complement arm at the
/// midpoint frame — an abrupt breakpoint in the §2.4 sense. Estimated AP is
/// true AP plus independent noise (reference-model estimation error).
inline FrameMatrix SyntheticMatrix(int m, size_t frames,
                                   std::vector<double> arm_ap,
                                   std::vector<double> model_cost,
                                   bool drift_flip = false,
                                   double noise = 0.05, uint64_t seed = 1) {
  const uint32_t num_masks = NumEnsembles(m);
  FrameMatrix matrix;
  matrix.num_models = m;
  for (int i = 0; i < m; ++i) {
    matrix.model_names.push_back("M" + std::to_string(i));
  }
  Rng rng(seed);
  for (size_t t = 0; t < frames; ++t) {
    FrameEvaluation fe;
    fe.context = SceneContext::kClear;
    fe.est_ap.assign(num_masks + 1, 0.0);
    fe.true_ap.assign(num_masks + 1, 0.0);
    fe.cost_ms.assign(num_masks + 1, 0.0);
    fe.fusion_overhead_ms.assign(num_masks + 1, 0.01);
    fe.model_cost_ms = model_cost;
    fe.available_mask = FullEnsemble(m);
    fe.model_fault_ms.assign(static_cast<size_t>(m), 0.0);
    fe.ref_cost_ms = 1.0;
    const bool flipped = drift_flip && t >= frames / 2;
    for (EnsembleId s = 1; s <= num_masks; ++s) {
      EnsembleId key = s;
      if (flipped) {
        const EnsembleId complement = num_masks ^ s;
        if (complement != 0) key = complement;
      }
      fe.true_ap[s] = Clamp(arm_ap[key] + rng.Gaussian(0, noise), 0, 1);
      fe.est_ap[s] = Clamp(fe.true_ap[s] + rng.Gaussian(0, noise), 0, 1);
      double cost = 0.01;
      for (int i = 0; i < m; ++i) {
        if (ContainsModel(s, i)) cost += model_cost[static_cast<size_t>(i)];
      }
      fe.cost_ms[s] = cost;
      if (cost > fe.max_cost_ms) fe.max_cost_ms = cost;
    }
    matrix.frames.push_back(std::move(fe));
  }
  return matrix;
}

/// Two-model matrix: arm {M0} good & cheap (AP 0.8), {M1} poor (0.3),
/// {M0,M1} marginally better AP (0.85) at double cost. Best arm: 1.
inline FrameMatrix SimpleTwoModelMatrix(size_t frames, uint64_t seed = 1,
                                        double noise = 0.05) {
  return SyntheticMatrix(2, frames, {0.0, 0.8, 0.3, 0.85}, {10.0, 10.0},
                         false, noise, seed);
}

/// Keeps the eager matrices a test's serving sessions view: a session
/// owns its EvaluationSource, but a MatrixEvaluationSource only views its
/// matrix, so the test holds the matrices next to its pools. Declare it
/// before the scheduler or server whose sessions it backs. Thread-safe:
/// fleet shards build sessions concurrently.
class MatrixKeeper {
 public:
  std::unique_ptr<EvaluationSource> View(FrameMatrix matrix) {
    std::lock_guard<std::mutex> lock(mu_);
    matrices_.push_back(std::move(matrix));
    return std::make_unique<MatrixEvaluationSource>(matrices_.back());
  }

 private:
  std::mutex mu_;
  std::deque<FrameMatrix> matrices_;  // push_back keeps references valid
};

}  // namespace test
}  // namespace vqe

#endif  // VQE_TESTS_TEST_UTIL_H_
