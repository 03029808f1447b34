#include "core/experiment.h"

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/strategy_factory.h"

namespace vqe {
namespace {

/// Strategy labels become path components of per-run checkpoint
/// directories; anything outside [A-Za-z0-9._-] is mapped to '_'.
std::string SanitizeLabel(const std::string& label) {
  std::string out = label.empty() ? std::string("strategy") : label;
  for (char& c : out) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

/// One trial's video and seed, shared by both backends so they sample
/// identically.
struct TrialVideo {
  Video video;
  uint64_t seed = 0;
};

Result<TrialVideo> SampleTrialVideo(const ExperimentConfig& config,
                                    uint64_t trial_index) {
  VQE_RETURN_NOT_OK(config.Validate());
  TrialVideo trial;
  trial.seed = HashCombine(config.base_seed, trial_index);
  SampleOptions sample;
  sample.scene_scale = config.scene_scale;
  sample.seed = trial.seed;
  VQE_ASSIGN_OR_RETURN(trial.video, SampleVideo(*config.dataset, sample));
  if (config.video_transform) config.video_transform(trial.video, trial.seed);
  return trial;
}

}  // namespace

Status ExperimentConfig::Validate() const {
  if (dataset == nullptr) {
    return Status::InvalidArgument("experiment has no dataset");
  }
  if (scene_scale <= 0.0 || scene_scale > 1.0) {
    return Status::InvalidArgument("scene_scale must be in (0, 1]");
  }
  if (trials < 1) return Status::InvalidArgument("trials must be >= 1");
  if (parallelism < 0) {
    return Status::InvalidArgument("parallelism must be >= 0");
  }
  for (const FaultScript& script : fault_scripts) {
    VQE_RETURN_NOT_OK(script.Validate());
  }
  if (evaluation == EvaluationMode::kEager && engine.skip.enabled()) {
    return Status::InvalidArgument(
        "skip-enabled experiments need lazy evaluation: the eager matrix "
        "keeps no fused boxes or ground truth for the temporal gate");
  }
  VQE_RETURN_NOT_OK(matrix.Validate());
  return engine.Validate();
}

Result<DetectorPool> ApplyFaultScripts(
    const DetectorPool& pool, const std::vector<FaultScript>& scripts) {
  if (scripts.size() != pool.detectors.size()) {
    return Status::InvalidArgument(
        "fault_scripts size must equal the pool size");
  }
  if (pool.reference == nullptr) {
    return Status::InvalidArgument("pool has no reference model");
  }
  for (const FaultScript& script : scripts) {
    VQE_RETURN_NOT_OK(script.Validate());
  }
  DetectorPool decorated;
  decorated.detectors.reserve(pool.detectors.size());
  for (size_t i = 0; i < pool.detectors.size(); ++i) {
    decorated.detectors.push_back(std::make_unique<FaultInjectingDetector>(
        pool.detectors[i].get(), scripts[i]));
  }
  // The reference channel is the estimator, not a candidate arm — it is
  // cloned, never fault-injected (its profile fully determines it).
  decorated.reference =
      std::make_unique<ReferenceDetector>(pool.reference->profile());
  return decorated;
}

const StrategyOutcome* ExperimentResult::Find(const std::string& label) const {
  for (const auto& o : outcomes) {
    if (o.label == label) return &o;
  }
  return nullptr;
}

Result<FrameMatrix> BuildTrialMatrix(const ExperimentConfig& config,
                                     const DetectorPool& pool,
                                     uint64_t trial_index) {
  VQE_ASSIGN_OR_RETURN(TrialVideo trial,
                       SampleTrialVideo(config, trial_index));
  return BuildFrameMatrix(trial.video, pool, trial.seed, config.matrix);
}

Result<std::unique_ptr<LazyFrameEvaluator>> BuildTrialEvaluator(
    const ExperimentConfig& config, const DetectorPool& pool,
    uint64_t trial_index) {
  VQE_ASSIGN_OR_RETURN(TrialVideo trial,
                       SampleTrialVideo(config, trial_index));
  return LazyFrameEvaluator::Create(std::move(trial.video), pool, trial.seed,
                                    config.matrix);
}

Result<ExperimentResult> RunExperiment(
    const ExperimentConfig& config, const DetectorPool& pool,
    const std::vector<StrategySpec>& strategies) {
  VQE_RETURN_NOT_OK(config.Validate());
  if (strategies.empty()) {
    return Status::InvalidArgument("no strategies to run");
  }

  // With fault scripts configured, run every trial against the decorated
  // pool. The decoration is non-owning, so `pool` (a parameter with caller
  // lifetime) safely backs it for the whole experiment.
  const DetectorPool* run_pool = &pool;
  DetectorPool faulty_pool;
  if (!config.fault_scripts.empty()) {
    VQE_ASSIGN_OR_RETURN(faulty_pool,
                         ApplyFaultScripts(pool, config.fault_scripts));
    run_pool = &faulty_pool;
  }

  ExperimentResult result;
  result.outcomes.resize(strategies.size());
  for (size_t i = 0; i < strategies.size(); ++i) {
    result.outcomes[i].label = strategies[i].label;
  }
  for (auto& o : result.outcomes) {
    o.runs.resize(static_cast<size_t>(config.trials));
  }

  // Resolve the evaluation mode once, before any trial runs. kAuto goes
  // lazy when the run skips frames (only the lazy source serves the
  // temporal gate), and otherwise only when laziness can pay off: every
  // strategy in the line-up is online (!needs_full_lattice()) and the
  // engine will not run the full-lattice regret scan. Factories are
  // instantiated once here purely to read the flag; trial runs make fresh
  // instances as before.
  bool lazy = config.evaluation == EvaluationMode::kLazy ||
              (config.evaluation == EvaluationMode::kAuto &&
               config.engine.skip.enabled());
  if (config.evaluation == EvaluationMode::kAuto && !lazy &&
      !config.engine.compute_regret) {
    lazy = true;
    for (const auto& spec : strategies) {
      auto probe = spec.make == nullptr ? nullptr : spec.make();
      if (probe == nullptr) {
        return Status::Internal("strategy factory returned null");
      }
      if (probe->needs_full_lattice()) {
        lazy = false;
        break;
      }
    }
  }

  // One trial = sample video, build matrix, run every strategy. Trials are
  // independent and deterministically seeded, so they can run on worker
  // threads; results land in pre-sized slots, making the outcome identical
  // for any thread count. Trial- and frame-level parallelism share the
  // process pool: when trials occupy the workers, BuildFrameMatrix's inner
  // ParallelFor detects the enclosing region and stays serial.
  std::vector<double> frames_per_trial(static_cast<size_t>(config.trials),
                                       0.0);
  std::vector<Status> trial_status(static_cast<size_t>(config.trials));
  auto run_trial = [&](size_t trial) {
    // Either backend yields bit-identical runs (shared FrameEvalContext
    // kernel); lazy skips the masks no strategy touches. One evaluator is
    // shared across the trial's strategies, and they step in frame
    // lockstep: the lazy evaluator keeps one live frame, so every strategy
    // reads frame t while it is materialized, and a cell another strategy
    // already evaluated is a memo hit.
    std::unique_ptr<LazyFrameEvaluator> evaluator;
    FrameMatrix matrix;
    EvaluationSource* source = nullptr;
    Status& status = trial_status[trial];
    if (lazy) {
      auto eval_result =
          BuildTrialEvaluator(config, *run_pool, static_cast<uint64_t>(trial));
      if (!eval_result.ok()) {
        status = eval_result.status();
        return;
      }
      evaluator = std::move(eval_result).value();
      source = evaluator.get();
    } else {
      auto matrix_result =
          BuildTrialMatrix(config, *run_pool, static_cast<uint64_t>(trial));
      if (!matrix_result.ok()) {
        status = matrix_result.status();
        return;
      }
      matrix = std::move(matrix_result).value();
    }
    MatrixEvaluationSource matrix_source(matrix);
    if (source == nullptr) source = &matrix_source;
    frames_per_trial[trial] = static_cast<double>(source->num_frames());

    EngineOptions engine = config.engine;
    engine.strategy_seed =
        HashCombine(config.base_seed, 0xABCD0000ULL + trial);

    std::vector<std::unique_ptr<SelectionStrategy>> owned(strategies.size());
    std::vector<std::unique_ptr<EngineRun>> runs(strategies.size());
    for (size_t i = 0; i < strategies.size(); ++i) {
      owned[i] = strategies[i].make();
      if (owned[i] == nullptr) {
        status = Status::Internal("strategy factory returned null");
        return;
      }
      // Each (trial, strategy) run checkpoints into its own directory so
      // concurrent trials never share generation files and a resumed
      // experiment picks every run up exactly where it stopped.
      if (config.engine.checkpoint.enabled()) {
        engine.checkpoint.directory = config.engine.checkpoint.directory +
                                      "/trial-" + std::to_string(trial) + "/" +
                                      SanitizeLabel(strategies[i].label);
      }
      auto run = EngineRun::Create(*source, owned[i].get(), engine);
      if (!run.ok()) {
        status = run.status();
        return;
      }
      runs[i] = std::move(run).value();
    }
    // A run steps only when frame t is its next frame: runs resumed from
    // different checkpoints wait for the lockstep to reach them, and runs
    // whose TCVI budget is spent drop out.
    for (size_t t = 0; t < source->num_frames(); ++t) {
      for (auto& run : runs) {
        if (run->done() || run->next_frame() != t) continue;
        status = run->StepFrame();
        if (!status.ok()) return;
      }
    }
    for (size_t i = 0; i < strategies.size(); ++i) {
      auto result_i = runs[i]->Finish();
      if (!result_i.ok()) {
        status = result_i.status();
        return;
      }
      result.outcomes[i].runs[trial] = std::move(result_i).value();
    }
  };

  ParallelFor(static_cast<size_t>(config.trials), config.parallelism,
              run_trial);

  double total_frames = 0.0;
  for (int trial = 0; trial < config.trials; ++trial) {
    VQE_RETURN_NOT_OK(trial_status[static_cast<size_t>(trial)]);
    total_frames += frames_per_trial[static_cast<size_t>(trial)];
  }
  result.avg_video_frames = total_frames / config.trials;

  for (auto& outcome : result.outcomes) {
    outcome.regret_available = config.engine.compute_regret;
    std::vector<double> s_sum, ap, cost, regret, frames;
    std::vector<double> fallback, failed, fault;
    std::vector<double> simulated, algo_wall;
    for (const auto& run : outcome.runs) {
      s_sum.push_back(run.s_sum);
      ap.push_back(run.avg_true_ap);
      cost.push_back(run.avg_norm_cost);
      regret.push_back(run.regret);
      frames.push_back(static_cast<double>(run.frames_processed));
      fallback.push_back(static_cast<double>(run.fallback_frames));
      failed.push_back(static_cast<double>(run.failed_frames));
      fault.push_back(run.breakdown.fault_ms);
      simulated.push_back(run.breakdown.SimulatedMs());
      algo_wall.push_back(run.breakdown.algorithm_ms);
    }
    outcome.s_sum = Summarize(s_sum);
    outcome.avg_true_ap = Summarize(ap);
    outcome.avg_norm_cost = Summarize(cost);
    outcome.regret = Summarize(regret);
    outcome.frames_processed = Summarize(frames);
    outcome.fallback_frames = Summarize(fallback);
    outcome.failed_frames = Summarize(failed);
    outcome.fault_ms = Summarize(fault);
    // Two separate clocks on purpose: simulated per-run frame time sums
    // cleanly across concurrent trials, strategy wall time overlaps and
    // must stay its own ledger (see StrategyOutcome docs).
    outcome.simulated_ms = Summarize(simulated);
    outcome.algorithm_wall_ms = Summarize(algo_wall);
  }
  return result;
}

std::vector<StrategySpec> DefaultTuviStrategies(size_t gamma,
                                                size_t ef_explore) {
  StrategyParams params;
  params.gamma = gamma;
  params.ef_explore = ef_explore;
  std::vector<StrategySpec> specs;
  for (const char* name : {"OPT", "BF", "SGL", "RAND", "EF", "MES"}) {
    specs.push_back({name, [name, params] {
                       return std::move(MakeStrategy(name, params)).value();
                     }});
  }
  return specs;
}

}  // namespace vqe
