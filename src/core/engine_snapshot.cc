#include "core/engine_snapshot.h"

#include <cmath>

namespace vqe {

Status EngineRunIdentity::ExpectMatches(const EngineRunIdentity& other) const {
  if (strategy_name != other.strategy_name) {
    return Status::FailedPrecondition(
        "checkpoint belongs to strategy '" + strategy_name + "', not '" +
        other.strategy_name + "'");
  }
  if (num_models != other.num_models || num_frames != other.num_frames) {
    return Status::FailedPrecondition(
        "checkpoint pool/video shape differs from this run");
  }
  if (strategy_seed != other.strategy_seed) {
    return Status::FailedPrecondition("checkpoint strategy seed differs");
  }
  if (!SameBits(budget_ms, other.budget_ms)) {
    return Status::FailedPrecondition("checkpoint budget differs");
  }
  if (!SameBits(sc.w1, other.sc.w1) || !SameBits(sc.w2, other.sc.w2) ||
      sc.form != other.sc.form) {
    return Status::FailedPrecondition("checkpoint scoring function differs");
  }
  if (compute_regret != other.compute_regret ||
      record_cost_curve != other.record_cost_curve) {
    return Status::FailedPrecondition("checkpoint measurement flags differ");
  }
  if (breaker.failure_threshold != other.breaker.failure_threshold ||
      breaker.open_frames != other.breaker.open_frames ||
      breaker.half_open_probes != other.breaker.half_open_probes) {
    return Status::FailedPrecondition("checkpoint breaker options differ");
  }
  return ExpectSkipOptionsMatch(skip, other.skip);
}

void WriteEngineIdentity(ByteWriter& w, const EngineRunIdentity& id) {
  w.Str(id.strategy_name);
  w.I64(id.num_models);
  w.U64(id.num_frames);
  w.U64(id.strategy_seed);
  w.F64(id.budget_ms);
  w.F64(id.sc.w1);
  w.F64(id.sc.w2);
  w.U8(static_cast<uint8_t>(id.sc.form));
  w.Bool(id.compute_regret);
  w.Bool(id.record_cost_curve);
  w.I64(id.breaker.failure_threshold);
  w.U64(id.breaker.open_frames);
  w.I64(id.breaker.half_open_probes);
  WriteSkipOptionsIdentity(w, id.skip);
}

Status ReadEngineIdentity(ByteReader& r, EngineRunIdentity* id) {
  int64_t num_models = 0, failure_threshold = 0, half_open_probes = 0;
  uint64_t open_frames = 0;
  uint8_t form = 0;
  VQE_RETURN_NOT_OK(r.Str(&id->strategy_name));
  VQE_RETURN_NOT_OK(r.I64(&num_models));
  VQE_RETURN_NOT_OK(r.U64(&id->num_frames));
  VQE_RETURN_NOT_OK(r.U64(&id->strategy_seed));
  VQE_RETURN_NOT_OK(r.F64(&id->budget_ms));
  VQE_RETURN_NOT_OK(r.F64(&id->sc.w1));
  VQE_RETURN_NOT_OK(r.F64(&id->sc.w2));
  VQE_RETURN_NOT_OK(r.U8(&form));
  VQE_RETURN_NOT_OK(r.Bool(&id->compute_regret));
  VQE_RETURN_NOT_OK(r.Bool(&id->record_cost_curve));
  VQE_RETURN_NOT_OK(r.I64(&failure_threshold));
  VQE_RETURN_NOT_OK(r.U64(&open_frames));
  VQE_RETURN_NOT_OK(r.I64(&half_open_probes));
  VQE_RETURN_NOT_OK(ReadSkipOptionsIdentity(r, &id->skip));
  if (num_models < 1 || num_models > kMaxPoolSize) {
    return Status::DataLoss("identity num_models out of range");
  }
  if (form > static_cast<uint8_t>(ScoreForm::kLinear)) {
    return Status::DataLoss("identity score form out of range");
  }
  id->num_models = static_cast<int>(num_models);
  id->sc.form = static_cast<ScoreForm>(form);
  id->breaker.failure_threshold = static_cast<int>(failure_threshold);
  id->breaker.open_frames = static_cast<size_t>(open_frames);
  id->breaker.half_open_probes = static_cast<int>(half_open_probes);
  return Status::OK();
}

Status WriteBreakers(ByteWriter& w,
                     const std::vector<CircuitBreaker>& breakers) {
  w.U64(breakers.size());
  for (const CircuitBreaker& b : breakers) {
    VQE_RETURN_NOT_OK(b.SaveState(w));
  }
  return Status::OK();
}

Status ReadBreakers(ByteReader& r, std::vector<CircuitBreaker>* breakers) {
  uint64_t count = 0;
  VQE_RETURN_NOT_OK(r.U64(&count));
  if (count != breakers->size()) {
    return Status::DataLoss("checkpoint breaker count mismatch");
  }
  for (CircuitBreaker& b : *breakers) {
    VQE_RETURN_NOT_OK(b.RestoreState(r));
  }
  return Status::OK();
}

void WriteTimeBreakdown(ByteWriter& w, const TimeBreakdown& tb) {
  w.F64(tb.detector_ms);
  w.F64(tb.reference_ms);
  w.F64(tb.ensembling_ms);
  w.F64(tb.fault_ms);
  w.F64(tb.tracker_ms);
  w.F64(tb.algorithm_ms);
}

Status ReadTimeBreakdown(ByteReader& r, TimeBreakdown* tb) {
  VQE_RETURN_NOT_OK(r.F64(&tb->detector_ms));
  VQE_RETURN_NOT_OK(r.F64(&tb->reference_ms));
  VQE_RETURN_NOT_OK(r.F64(&tb->ensembling_ms));
  VQE_RETURN_NOT_OK(r.F64(&tb->fault_ms));
  VQE_RETURN_NOT_OK(r.F64(&tb->tracker_ms));
  VQE_RETURN_NOT_OK(r.F64(&tb->algorithm_ms));
  return Status::OK();
}

void WriteRunResult(ByteWriter& w, const RunResult& result) {
  w.F64(result.s_sum);
  w.F64(result.avg_true_ap);
  w.F64(result.avg_norm_cost);
  w.U64(result.frames_processed);
  w.F64(result.regret);
  w.Bool(result.regret_available);
  w.F64(result.charged_cost_ms);
  WriteTimeBreakdown(w, result.breakdown);
  WriteVecU64(w, result.selection_counts);
  w.U64(result.cost_curve.size());
  for (const auto& [iter, cost] : result.cost_curve) {
    w.U64(iter);
    w.F64(cost);
  }
  w.U64(result.model_availability.size());
  for (const auto& health : result.model_availability) {
    w.U64(health.frames_selected);
    w.U64(health.frames_failed);
    w.U64(health.breaker_opens);
    w.F64(health.fault_ms);
  }
  w.U64(result.fallback_frames);
  w.U64(result.failed_frames);
  w.U64(result.skip.skipped_frames);
  w.U64(result.skip.detect_frames);
  w.U64(result.skip.forced_detects);
  w.F64(result.skip.propagated_ap_sum);
}

Status ReadRunResult(ByteReader& r, RunResult* result) {
  uint64_t frames_processed = 0;
  VQE_RETURN_NOT_OK(r.F64(&result->s_sum));
  VQE_RETURN_NOT_OK(r.F64(&result->avg_true_ap));
  VQE_RETURN_NOT_OK(r.F64(&result->avg_norm_cost));
  VQE_RETURN_NOT_OK(r.U64(&frames_processed));
  VQE_RETURN_NOT_OK(r.F64(&result->regret));
  VQE_RETURN_NOT_OK(r.Bool(&result->regret_available));
  VQE_RETURN_NOT_OK(r.F64(&result->charged_cost_ms));
  VQE_RETURN_NOT_OK(ReadTimeBreakdown(r, &result->breakdown));
  VQE_RETURN_NOT_OK(ReadVecU64(r, &result->selection_counts));
  uint64_t curve_len = 0;
  VQE_RETURN_NOT_OK(r.U64(&curve_len));
  if (curve_len > r.remaining() / 16) {
    return Status::DataLoss("cost-curve length exceeds payload");
  }
  result->cost_curve.clear();
  result->cost_curve.reserve(static_cast<size_t>(curve_len));
  for (uint64_t i = 0; i < curve_len; ++i) {
    uint64_t iter = 0;
    double cost = 0;
    VQE_RETURN_NOT_OK(r.U64(&iter));
    VQE_RETURN_NOT_OK(r.F64(&cost));
    result->cost_curve.emplace_back(static_cast<size_t>(iter), cost);
  }
  uint64_t num_models = 0;
  VQE_RETURN_NOT_OK(r.U64(&num_models));
  if (num_models > static_cast<uint64_t>(kMaxPoolSize)) {
    return Status::DataLoss("model-availability count out of range");
  }
  result->model_availability.clear();
  result->model_availability.reserve(static_cast<size_t>(num_models));
  for (uint64_t i = 0; i < num_models; ++i) {
    RunResult::ModelAvailability health;
    VQE_RETURN_NOT_OK(r.U64(&health.frames_selected));
    VQE_RETURN_NOT_OK(r.U64(&health.frames_failed));
    VQE_RETURN_NOT_OK(r.U64(&health.breaker_opens));
    VQE_RETURN_NOT_OK(r.F64(&health.fault_ms));
    result->model_availability.push_back(health);
  }
  VQE_RETURN_NOT_OK(r.U64(&result->fallback_frames));
  VQE_RETURN_NOT_OK(r.U64(&result->failed_frames));
  VQE_RETURN_NOT_OK(r.U64(&result->skip.skipped_frames));
  VQE_RETURN_NOT_OK(r.U64(&result->skip.detect_frames));
  VQE_RETURN_NOT_OK(r.U64(&result->skip.forced_detects));
  VQE_RETURN_NOT_OK(r.F64(&result->skip.propagated_ap_sum));
  result->frames_processed = static_cast<size_t>(frames_processed);
  return Status::OK();
}

}  // namespace vqe
