// Serialization of the engine's snapshot sections: the run identity
// (configuration fingerprint a snapshot must match before resuming), the
// partial RunResult accumulators, the TimeBreakdown, and the per-model
// breaker section. Exposed as free functions so tests can round-trip
// accounting structures directly and so the query executor reuses the
// same wire helpers (its checkpoints carry the same identity core and the
// same breakers section).
//
// Section layout inside a RunStrategy checkpoint (container format in
// snapshot/snapshot.h):
//
//   engine.meta    — identity fingerprint (strategy name, pool size, video
//                    length, seed, budget, scoring weights, breaker knobs);
//                    a mismatch means "wrong directory / wrong config" and
//                    resume refuses with FailedPrecondition.
//   engine.cursor  — next frame to process + accumulated algorithm seconds.
//   engine.result  — the RunResult accumulators as they stand mid-loop
//                    (avg_* fields hold running SUMS until the run ends).
//   strategy       — SelectionStrategy::SaveState payload.
//   breakers       — per-model CircuitBreaker state machines.
//   source         — EvaluationSource::SaveState payload: empty for the
//                    eager matrix, the lazy evaluator's three counters
//                    (fixed size; no memo cell is carried).

#ifndef VQE_CORE_ENGINE_SNAPSHOT_H_
#define VQE_CORE_ENGINE_SNAPSHOT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "snapshot/checkpoint.h"
#include "snapshot/snapshot.h"
#include "snapshot/wire.h"

namespace vqe {

// Section names shared by the engine and the resume tests.
inline constexpr char kEngineMetaSection[] = "engine.meta";
inline constexpr char kEngineCursorSection[] = "engine.cursor";
inline constexpr char kEngineResultSection[] = "engine.result";
inline constexpr char kStrategySection[] = "strategy";
inline constexpr char kBreakersSection[] = "breakers";
inline constexpr char kSourceSection[] = "source";
/// Temporal fast-path state (gate + skip policy + propagation tracker +
/// the carried cost normalizer); present only in skip-enabled runs.
inline constexpr char kTemporalSection[] = "temporal";

/// The configuration fingerprint a checkpoint was taken under. Resuming
/// under a different fingerprint would silently change results, so the
/// engine compares every field and refuses on mismatch.
struct EngineRunIdentity {
  std::string strategy_name;
  int num_models = 0;
  uint64_t num_frames = 0;
  uint64_t strategy_seed = 0;
  double budget_ms = 0.0;
  ScoringFunction sc;
  bool compute_regret = true;
  bool record_cost_curve = false;
  CircuitBreakerOptions breaker;
  /// Temporal-skip knobs: a snapshot taken under different skip settings
  /// would replay a different skip/detect sequence.
  SkipOptions skip;

  /// OK when `other` describes the same run; FailedPrecondition naming the
  /// first differing field otherwise.
  Status ExpectMatches(const EngineRunIdentity& other) const;
};

void WriteEngineIdentity(ByteWriter& w, const EngineRunIdentity& id);
Status ReadEngineIdentity(ByteReader& r, EngineRunIdentity* id);

/// The breakers section: a count, then each breaker's state machine.
/// ReadBreakers restores into `breakers` in place and returns DataLoss
/// when the count differs from its size.
Status WriteBreakers(ByteWriter& w,
                     const std::vector<CircuitBreaker>& breakers);
Status ReadBreakers(ByteReader& r, std::vector<CircuitBreaker>* breakers);

void WriteTimeBreakdown(ByteWriter& w, const TimeBreakdown& tb);
Status ReadTimeBreakdown(ByteReader& r, TimeBreakdown* tb);

/// Serializes every RunResult field except the per-invocation
/// CheckpointReport (which describes the process, not the run).
void WriteRunResult(ByteWriter& w, const RunResult& result);
Status ReadRunResult(ByteReader& r, RunResult* result);

}  // namespace vqe

#endif  // VQE_CORE_ENGINE_SNAPSHOT_H_
