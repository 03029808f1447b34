// experiment: the reproduction harness. RunExperiment runs the Figure 4
// line-up (OPT, BF, SGL, RAND, EF, MES) with regret on over an eagerly
// built full lattice per trial, trials spread over every hardware thread.
// Every frame fuses and scores all 31 masks (ground-truth AP included),
// and the oracle/regret scan and the shared thread pool run here.

#include <atomic>
#include <memory>

#include "common/rng.h"
#include "core/experiment.h"
#include "decorators.h"
#include "sim/dataset.h"
#include "workloads.h"

namespace vqebench {
namespace {

constexpr int kTrials = 8;
/// ≈ 530 frames per trial: small jobs, so a run holds enough of them for
/// a latency tail.
constexpr double kSceneScale = 0.0125;
constexpr size_t kReplayFrames = 60;
/// Tail percentile of one call. A 20 s run holds about 125 calls, so p75
/// keeps ten samples beyond it until calls get 3x slower.
constexpr double kTailPercentile = 75.0;

vqe::ExperimentConfig Config(uint64_t input) {
  vqe::ExperimentConfig config;
  config.dataset = *vqe::DatasetCatalog::Default().Find("nusc");
  config.scene_scale = kSceneScale;
  config.trials = kTrials;
  config.pool_size = 5;
  config.base_seed = 5001 + input;
  config.parallelism = HostThreads();
  config.engine.sc = vqe::ScoringFunction{0.5, 0.5};
  config.engine.compute_regret = true;
  config.evaluation = vqe::EvaluationMode::kEager;
  return config;
}

std::vector<vqe::StrategySpec> Lineup() {
  return vqe::DefaultTuviStrategies(10, 2);
}

/// The line-up with every strategy wrapped in a TimedStrategy.
std::vector<vqe::StrategySpec> TimedLineup(std::atomic<uint64_t>* realized) {
  std::vector<vqe::StrategySpec> specs = Lineup();
  for (auto& spec : specs) {
    auto make = spec.make;
    spec.make = [make, realized]() -> std::unique_ptr<vqe::SelectionStrategy> {
      return std::make_unique<TimedStrategy>(make(), StrategySinks{realized});
    };
  }
  return specs;
}

std::string ResultDigest(const vqe::ExperimentResult& result) {
  Digest d;
  for (const auto& outcome : result.outcomes) {
    for (const auto& run : outcome.runs) d.AddRun(run);
  }
  return d.Hex();
}

struct Phase {
  std::vector<double> call_ms;
  /// Trials × frames ÷ wall time, per call.
  std::vector<double> call_rate;
};

/// Calls RunExperiment until `seconds` elapsed (at least once); every call
/// must reproduce the recorded digest.
Phase RunPhase(const Args& args, const vqe::ExperimentConfig& config,
               const vqe::DetectorPool& pool,
               const std::vector<vqe::StrategySpec>& lineup, double seconds,
               Outcome* out) {
  Phase phase;
  const int64_t start = NowNs();
  do {
    const int64_t t0 = NowNs();
    auto result = vqe::RunExperiment(config, pool, lineup);
    const double ms = static_cast<double>(NowNs() - t0) / 1e6;
    ++out->attempted;
    if (!result.ok()) {
      ++out->failed;
      out->notes.push_back("RunExperiment failed: " +
                           result.status().ToString());
      break;
    }
    phase.call_ms.push_back(ms);
    phase.call_rate.push_back(result.value().avg_video_frames *
                              config.trials / (ms / 1e3));
    CheckRecordedDigest(args, ResultDigest(result.value()), out);
    if (args.record || !out->correct) break;
  } while (static_cast<double>(NowNs() - start) / 1e9 < seconds);
  return phase;
}

/// Serial traced replay of every trial through the decorators: the matrix
/// build, then each strategy stepped frame by frame. Its results must
/// equal RunExperiment's.
void ReplayTrials(const vqe::ExperimentConfig& pooled,
                  const vqe::DetectorPool& timed_pool,
                  const std::string& expected_digest, double* serial_ms,
                  Outcome* out) {
  vqe::ExperimentConfig config = pooled;
  config.matrix.parallelism = 1;
  const std::vector<vqe::StrategySpec> lineup = Lineup();
  std::vector<std::vector<vqe::RunResult>> runs(
      lineup.size(), std::vector<vqe::RunResult>(kTrials));
  std::atomic<uint64_t> realized{0};
  const int64_t start = NowNs();
  for (int trial = 0; trial < kTrials; ++trial) {
    Tracer::SetRequest(static_cast<uint64_t>(trial));
    vqe::FrameMatrix matrix;
    {
      Span span("core.matrix_build");
      matrix = std::move(vqe::BuildTrialMatrix(config, timed_pool,
                                               static_cast<uint64_t>(trial)))
                   .value();
    }
    vqe::EngineOptions engine = config.engine;
    engine.strategy_seed = vqe::HashCombine(
        config.base_seed, 0xABCD0000ULL + static_cast<uint64_t>(trial));
    for (size_t i = 0; i < lineup.size(); ++i) {
      Span span(Tracer::Intern("core.run." + lineup[i].label));
      TimedSource source(
          std::make_unique<vqe::MatrixEvaluationSource>(matrix));
      TimedStrategy strategy(lineup[i].make(), StrategySinks{&realized});
      auto run = std::move(vqe::EngineRun::Create(source, &strategy, engine))
                     .value();
      while (!run->done()) {
        Span step("core.step");
        const vqe::Status st = run->StepFrame();
        if (!st.ok()) {
          out->Fail("replayed StepFrame failed: " + st.ToString());
          return;
        }
      }
      runs[i][static_cast<size_t>(trial)] = std::move(run->Finish()).value();
    }
  }
  *serial_ms = static_cast<double>(NowNs() - start) / 1e6;
  Digest d;
  for (const auto& per_trial : runs) {
    for (const auto& run : per_trial) d.AddRun(run);
  }
  if (d.Hex() != expected_digest) {
    out->Fail("decorated serial replay " + d.Hex() +
              " != RunExperiment digest " + expected_digest);
  }
}

}  // namespace

void RunExperimentWorkload(const Args& args, Outcome* out) {
  vqe::DetectorPool pool;
  const vqe::ExperimentConfig config = Config(args.input());
  const double setup_s = MedianSetupSeconds(
      args.trace || args.record ? 1 : kSetupRepeats, [&] {
        pool = std::move(vqe::BuildNuscenesPool(5)).value();
        // Warm-up: one full-size call on videos that are the same for
        // every seed fills the thread pool and the arenas.
        vqe::ExperimentConfig warm = config;
        warm.base_seed = 4999;
        (void)vqe::RunExperiment(warm, pool, Lineup());
      });
  out->notes.push_back("experiment: " + std::to_string(kTrials) +
                       " trials of nusc at scale " +
                       std::to_string(kSceneScale) + " over " +
                       std::to_string(config.parallelism) + " workers");
  if (!args.trace) {
    Phase phase = RunPhase(args, config, pool, Lineup(), args.seconds, out);
    out->metrics["setup_s"] = setup_s;
    out->metrics["frames_per_s"] = Median(phase.call_rate);
    out->metrics["latency_p50_ms"] = Median(phase.call_ms);
    out->metrics["latency_tail_ms"] = TailLatency(
        phase.call_ms, kTailPercentile, "one RunExperiment call", out);
    return;
  }

  // Traced run: untraced pooled calls, traced pooled calls (per-thread
  // accumulators under the worker pool), then a serial traced replay.
  const vqe::DetectorPool timed_pool =
      TimePool(std::move(vqe::BuildNuscenesPool(5)).value());
  Phase plain =
      RunPhase(args, config, pool, Lineup(), args.seconds * 0.3, out);
  std::atomic<uint64_t> realized{0};
  Tracer::Reset();
  Tracer::Enable(true);
  Phase traced = RunPhase(args, config, timed_pool, TimedLineup(&realized),
                          args.seconds * 0.3, out);
  Tracer::Enable(false);
  const auto pooled_totals = Tracer::Collect();
  auto get = [](const std::map<std::string, LayerTotals>& totals,
                const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? LayerTotals{} : it->second;
  };
  double frames = 0.0;
  for (size_t i = 0; i < traced.call_ms.size(); ++i) {
    frames += traced.call_rate[i] * traced.call_ms[i] / 1e3;
  }
  const LayerTotals detect = get(pooled_totals, "models.detect");
  const LayerTotals cost = get(pooled_totals, "models.cost");
  const LayerTotals select = get(pooled_totals, "core.select");
  const LayerTotals observe = get(pooled_totals, "core.observe");
  auto& m = out->metrics;
  m["models.detect_calls_per_frame"] =
      static_cast<double>(detect.count) / frames;
  m["models.detect_us_per_frame"] =
      (detect.incl_ns + cost.incl_ns) / 1e3 / frames;
  // Every strategy of the line-up reads the same per-frame detector
  // outputs, so the useful share is taken per strategy run.
  m["models.useful_ratio"] =
      static_cast<double>(realized.load()) /
      (static_cast<double>(detect.count) *
       static_cast<double>(Lineup().size()));
  m["core.select_us"] =
      select.incl_ns / 1e3 / static_cast<double>(select.count);
  m["core.observe_us"] =
      observe.incl_ns / 1e3 / static_cast<double>(observe.count);
  m["trace.overhead_ratio"] =
      Median(traced.call_rate) / Median(plain.call_rate);

  Tracer::Reset();
  Tracer::Enable(true);
  double serial_ms = 0.0;
  auto reference = vqe::RunExperiment(config, pool, Lineup());
  ReplayTrials(config, timed_pool,
               reference.ok() ? ResultDigest(reference.value()) : "",
               &serial_ms, out);
  Tracer::Enable(false);
  const auto serial = Tracer::Collect();
  const LayerTotals build = get(serial, "core.matrix_build");
  const LayerTotals eval = get(serial, "core.eval");
  const LayerTotals step = get(serial, "core.step");
  m["core.matrix_build_ms_per_trial"] =
      build.incl_ns / 1e6 / static_cast<double>(build.count);
  for (const auto& spec : Lineup()) {
    const LayerTotals run = get(serial, "core.run." + spec.label);
    m["core.run_ms." + spec.label] =
        run.incl_ns / 1e6 / static_cast<double>(run.count);
  }
  m["core.eval_us_per_mask"] =
      eval.incl_ns / 1e3 / static_cast<double>(eval.count);
  m["core.masks_per_frame"] =
      static_cast<double>(eval.count) / static_cast<double>(step.count);
  m["core.step_us"] = step.incl_ns / 1e3 / static_cast<double>(step.count);
  m["core.step_self_us"] =
      step.self_ns / 1e3 / static_cast<double>(step.count);
  m["common.pool_speedup"] = serial_ms / Median(plain.call_ms);
  const vqe::Status written =
      Tracer::WriteChromeTrace(std::string(kTraceDir) +
                               "/trace-experiment.json");
  if (!written.ok()) out->Fail("chrome trace: " + written.ToString());

  Tracer::Reset();
  Tracer::Enable(true);
  auto video = vqe::SampleVideo(
      *config.dataset,
      vqe::SampleOptions{config.scene_scale,
                         vqe::HashCombine(config.base_seed, 0)});
  if (!video.ok() ||
      !ReplayFusionAndAp(video.value(), pool,
                         vqe::HashCombine(config.base_seed, 0),
                         kReplayFrames)) {
    out->Fail("fusion/AP replay differs from the program's evaluator");
  }
  Tracer::Enable(false);
  SetReplayMetrics(out);
}

}  // namespace vqebench
