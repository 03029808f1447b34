// Lazy memoized evaluation: every cell a LazyFrameEvaluator materializes
// must be bit-identical to the eagerly built FrameMatrix (both run the
// shared FrameEvalContext kernel — these tests pin the contract) in any
// read order, engine runs must be indistinguishable across backends, lazy
// MES runs must actually skip most of the lattice, and an experiment must
// materialize each frame once per pass, not once per strategy.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/baselines.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "core/lazy_frame_evaluator.h"
#include "core/mes.h"
#include "core/strategy_factory.h"
#include "models/model_zoo.h"
#include "sim/dataset.h"
#include "temporal/skip_policy.h"

namespace vqe {
namespace {

// Eight distinct structure@context detectors; pools take the first m.
DetectorPool MakePool(int m) {
  const std::vector<std::string> names = {
      "yolov7-tiny@clear", "yolov7-tiny@night", "yolov7-tiny@rainy",
      "yolov7@clear",      "yolov7-micro@clear", "yolov7@night",
      "faster-rcnn@clear", "yolov7-micro@rainy"};
  std::vector<DetectorProfile> profiles;
  for (int i = 0; i < m; ++i) {
    profiles.push_back(
        std::move(ParseDetectorName(names[static_cast<size_t>(i)])).value());
  }
  return std::move(BuildPool(profiles)).value();
}

Video MakeVideo(double scene_scale, uint64_t seed) {
  const DatasetSpec* spec = *DatasetCatalog::Default().Find("nusc-night");
  SampleOptions sample;
  sample.scene_scale = scene_scale;
  sample.seed = seed;
  return std::move(SampleVideo(*spec, sample)).value();
}

/// Borrows a detector and counts its Detect calls into a shared counter.
class CountingDetector final : public ObjectDetector {
 public:
  CountingDetector(const ObjectDetector* inner, std::atomic<uint64_t>* calls)
      : inner_(inner), calls_(calls) {}

  const std::string& name() const override { return inner_->name(); }
  DetectionList Detect(const VideoFrame& frame,
                       uint64_t trial_seed) const override {
    calls_->fetch_add(1, std::memory_order_relaxed);
    return inner_->Detect(frame, trial_seed);
  }
  double InferenceCostMs(const VideoFrame& frame,
                         uint64_t trial_seed) const override {
    return inner_->InferenceCostMs(frame, trial_seed);
  }
  uint64_t param_count() const override { return inner_->param_count(); }
  const std::string& structure_name() const override {
    return inner_->structure_name();
  }

 private:
  const ObjectDetector* inner_;
  std::atomic<uint64_t>* calls_;
};

/// `pool` with every member wrapped in a CountingDetector; the reference
/// model is cloned and not counted.
DetectorPool CountingPool(const DetectorPool& pool,
                          std::atomic<uint64_t>* calls) {
  DetectorPool counted;
  for (const auto& detector : pool.detectors) {
    counted.detectors.push_back(
        std::make_unique<CountingDetector>(detector.get(), calls));
  }
  counted.reference =
      std::make_unique<ReferenceDetector>(pool.reference->profile());
  return counted;
}

/// Asserts one lazy cell equals the eager matrix's, bit for bit.
void ExpectCellMatches(const FrameMatrix& matrix, LazyFrameEvaluator& lazy,
                       size_t t, EnsembleId mask) {
  const FrameEvaluation& fe = matrix.frames[t];
  const MaskEvaluation e = lazy.Eval(t, mask);
  ASSERT_EQ(e.est_ap, fe.est_ap[mask]) << "t=" << t << " mask=" << mask;
  ASSERT_EQ(e.true_ap, fe.true_ap[mask]) << "t=" << t << " mask=" << mask;
  ASSERT_EQ(e.cost_ms, fe.cost_ms[mask]) << "t=" << t << " mask=" << mask;
  ASSERT_EQ(e.fusion_overhead_ms, fe.fusion_overhead_ms[mask])
      << "t=" << t << " mask=" << mask;
}

/// Asserts frame t's stats equal the eager matrix's, bit for bit.
void ExpectStatsMatch(const FrameMatrix& matrix, LazyFrameEvaluator& lazy,
                      size_t t) {
  const FrameEvaluation& fe = matrix.frames[t];
  const FrameStats stats = lazy.Stats(t);
  ASSERT_EQ(*stats.model_cost_ms, fe.model_cost_ms) << "t=" << t;
  ASSERT_EQ(stats.ref_cost_ms, fe.ref_cost_ms) << "t=" << t;
  ASSERT_EQ(stats.max_cost_ms, fe.max_cost_ms) << "t=" << t;
  ASSERT_EQ(stats.available_mask, fe.available_mask) << "t=" << t;
}

void ExpectSameRun(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.s_sum, b.s_sum);
  EXPECT_EQ(a.avg_true_ap, b.avg_true_ap);
  EXPECT_EQ(a.avg_norm_cost, b.avg_norm_cost);
  EXPECT_EQ(a.frames_processed, b.frames_processed);
  EXPECT_EQ(a.regret, b.regret);
  EXPECT_EQ(a.regret_available, b.regret_available);
  EXPECT_EQ(a.charged_cost_ms, b.charged_cost_ms);
  EXPECT_EQ(a.breakdown.detector_ms, b.breakdown.detector_ms);
  EXPECT_EQ(a.breakdown.reference_ms, b.breakdown.reference_ms);
  EXPECT_EQ(a.breakdown.ensembling_ms, b.breakdown.ensembling_ms);
  EXPECT_EQ(a.breakdown.tracker_ms, b.breakdown.tracker_ms);
  EXPECT_EQ(a.selection_counts, b.selection_counts);
  EXPECT_EQ(a.skip.skipped_frames, b.skip.skipped_frames);
  EXPECT_EQ(a.skip.detect_frames, b.skip.detect_frames);
  EXPECT_EQ(a.skip.propagated_ap_sum, b.skip.propagated_ap_sum);
}

// Every cell and every frame stat, for each fusion family the cache
// treats differently (WBF bypasses the IoU tile; NMS and Consensus
// consume it), and for eager builds at several worker counts.
TEST(LazyEvalTest, EveryCellBitIdenticalToEagerMatrix) {
  const int m = 4;
  const DetectorPool pool = MakePool(m);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/11);
  ASSERT_GT(video.size(), 0u);

  for (const FusionKind kind :
       {FusionKind::kWbf, FusionKind::kNms, FusionKind::kConsensus}) {
    MatrixOptions options;
    options.fusion = kind;
    for (const int workers : {1, 2, 8}) {
      options.parallelism = workers;
      const auto matrix =
          std::move(BuildFrameMatrix(video, pool, /*trial_seed=*/7, options))
              .value();
      auto lazy = std::move(LazyFrameEvaluator::Create(video, pool,
                                                       /*trial_seed=*/7,
                                                       options))
                      .value();
      ASSERT_EQ(lazy->num_frames(), matrix.size());
      ASSERT_EQ(lazy->num_models(), matrix.num_models);
      const uint32_t num_masks = matrix.num_ensembles();
      for (size_t t = 0; t < matrix.size(); ++t) {
        const FrameEvaluation& fe = matrix.frames[t];
        const FrameStats stats = lazy->Stats(t);
        EXPECT_EQ(stats.context, fe.context);
        EXPECT_EQ(*stats.model_cost_ms, fe.model_cost_ms);
        EXPECT_EQ(stats.ref_cost_ms, fe.ref_cost_ms);
        EXPECT_EQ(stats.max_cost_ms, fe.max_cost_ms)
            << "FullEnsembleCostMs must equal the eager running max";
        for (EnsembleId mask = 1; mask <= num_masks; ++mask) {
          const MaskEvaluation e = lazy->Eval(t, mask);
          ASSERT_EQ(e.est_ap, fe.est_ap[mask])
              << FusionKindToString(kind) << " t=" << t << " mask=" << mask;
          ASSERT_EQ(e.true_ap, fe.true_ap[mask]);
          ASSERT_EQ(e.cost_ms, fe.cost_ms[mask]);
          ASSERT_EQ(e.fusion_overhead_ms, fe.fusion_overhead_ms[mask]);
        }
      }
      EXPECT_EQ(lazy->frames_touched(), matrix.size());
      EXPECT_EQ(lazy->masks_materialized(),
                static_cast<uint64_t>(matrix.size()) * num_masks);
    }
  }
}

// The evaluator keeps one live frame and rebuilds any other frame on
// demand, so reads in reverse or shuffled frame order, and reads after a
// state snapshot round trip, must still return exactly the eager cells.
TEST(LazyEvalTest, OutOfOrderReadsMatchEager) {
  const int m = 3;
  const DetectorPool pool = MakePool(m);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/23);
  ASSERT_GT(video.size(), 8u);
  MatrixOptions options;
  options.fusion = FusionKind::kNms;  // rebuilds the IoU tile per load too
  const auto matrix =
      std::move(BuildFrameMatrix(video, pool, /*trial_seed=*/5, options))
          .value();
  const uint32_t num_masks = matrix.num_ensembles();
  auto make_lazy = [&] {
    return std::move(LazyFrameEvaluator::Create(video, pool,
                                                /*trial_seed=*/5, options))
        .value();
  };

  {
    SCOPED_TRACE("reverse frame order");
    auto lazy = make_lazy();
    for (size_t t = matrix.size(); t-- > 0;) {
      ExpectStatsMatch(matrix, *lazy, t);
      for (EnsembleId mask = num_masks; mask >= 1; --mask) {
        ExpectCellMatches(matrix, *lazy, t, mask);
      }
    }
    EXPECT_EQ(lazy->frames_touched(), matrix.size());
  }

  // Every (frame, mask) cell once, interleaved with Stats reads, so nearly
  // every read lands on a frame other than the live one.
  std::vector<std::pair<size_t, EnsembleId>> cells;
  for (size_t t = 0; t < matrix.size(); ++t) {
    for (EnsembleId mask = 1; mask <= num_masks; ++mask) {
      cells.emplace_back(t, mask);
    }
  }
  std::mt19937_64 rng(0x5EED);
  std::shuffle(cells.begin(), cells.end(), rng);
  {
    SCOPED_TRACE("shuffled order");
    auto lazy = make_lazy();
    for (const auto& [t, mask] : cells) {
      ExpectCellMatches(matrix, *lazy, t, mask);
      ExpectStatsMatch(matrix, *lazy, (t * 7 + mask) % matrix.size());
    }
    EXPECT_EQ(lazy->masks_materialized(),
              static_cast<uint64_t>(matrix.size()) * num_masks);
  }

  {
    SCOPED_TRACE("save, restore, revisit");
    // The saved evaluator has read part of the first half of the frames,
    // one cell per frame twice.
    auto saved = make_lazy();
    const size_t half = matrix.size() / 2;
    for (size_t t = 0; t < half; ++t) {
      for (EnsembleId mask = 1; mask <= num_masks; mask += 2) {
        ExpectCellMatches(matrix, *saved, t, mask);
      }
      ExpectCellMatches(matrix, *saved, t, 1);
    }
    const size_t saved_frames = saved->frames_touched();
    const uint64_t saved_masks = saved->masks_materialized();
    const uint64_t saved_hits = saved->memo_hits();
    EXPECT_EQ(saved_frames, half);
    EXPECT_EQ(saved_hits, half);
    ByteWriter w;
    ASSERT_TRUE(saved->SaveState(w).ok());
    EXPECT_EQ(w.size(), 3 * sizeof(uint64_t))
        << "the payload is the counters, whatever was read";

    // Restore into a fresh evaluator, into one whose live frame lies
    // outside the saved run's frames, and back into the saved one, whose
    // live frame is inside them. The counters round-trip; then every cell
    // and stat is revisited in shuffled order.
    auto fresh = make_lazy();
    auto elsewhere = make_lazy();
    const size_t last = matrix.size() - 1;
    ExpectCellMatches(matrix, *elsewhere, last, 1);
    // Each target with the frame its first read after the restore targets.
    const std::pair<LazyFrameEvaluator*, size_t> targets[] = {
        {fresh.get(), 0}, {elsewhere.get(), last}, {saved.get(), half - 1}};
    for (const auto& [target, live] : targets) {
      ByteReader r(w.bytes().data(), w.size());
      ASSERT_TRUE(target->RestoreState(r).ok());
      ASSERT_TRUE(r.ExpectEnd().ok());
      EXPECT_EQ(target->frames_touched(), saved_frames);
      EXPECT_EQ(target->masks_materialized(), saved_masks);
      EXPECT_EQ(target->memo_hits(), saved_hits);
      // An unknown cell, then the stats, of that frame first.
      ExpectCellMatches(matrix, *target, live, 2);
      ExpectStatsMatch(matrix, *target, live);
      for (const auto& [t, mask] : cells) {
        ExpectCellMatches(matrix, *target, t, mask);
        ExpectStatsMatch(matrix, *target, t);
      }
    }
  }
}

// Memoization: re-reading a cell serves the memo and returns the same
// value; instrumentation counts distinct cells, not reads.
TEST(LazyEvalTest, EvalIsMemoized) {
  const DetectorPool pool = MakePool(3);
  auto lazy = std::move(LazyFrameEvaluator::Create(
                            MakeVideo(0.02, 3), pool, /*trial_seed=*/3))
                  .value();
  ASSERT_GT(lazy->num_frames(), 0u);
  const MaskEvaluation first = lazy->Eval(0, 5);
  EXPECT_EQ(lazy->masks_materialized(), 1u);
  EXPECT_EQ(lazy->memo_hits(), 0u);
  const MaskEvaluation again = lazy->Eval(0, 5);
  EXPECT_EQ(lazy->masks_materialized(), 1u);
  EXPECT_EQ(lazy->memo_hits(), 1u);
  EXPECT_EQ(first.est_ap, again.est_ap);
  EXPECT_EQ(first.true_ap, again.true_ap);
  EXPECT_EQ(first.cost_ms, again.cost_ms);
  EXPECT_EQ(first.fusion_overhead_ms, again.fusion_overhead_ms);
}

// An MES run observes only the subset lattices of its selections, so the
// lazy backend must (a) reproduce the eager run bit-for-bit and (b)
// materialize strictly less than the full 2^m − 1 masks per frame on
// average — the whole point of laziness at m = 8.
TEST(LazyEvalTest, MesM8RunsBitIdenticalAndMaterializesSparsely) {
  const int m = 8;
  const DetectorPool pool = MakePool(m);
  const Video video = MakeVideo(/*scene_scale=*/0.03, /*seed=*/17);
  ASSERT_GT(video.size(), 20u);

  EngineOptions engine;
  engine.sc = ScoringFunction{};
  engine.strategy_seed = 99;
  engine.compute_regret = false;

  MesOptions mes;
  mes.gamma = 2;

  const auto matrix =
      std::move(BuildFrameMatrix(video, pool, /*trial_seed=*/17)).value();
  MesStrategy eager_mes(mes);
  const RunResult eager =
      std::move(RunStrategy(matrix, &eager_mes, engine)).value();

  auto lazy = std::move(LazyFrameEvaluator::Create(video, pool,
                                                   /*trial_seed=*/17))
                  .value();
  MesStrategy lazy_mes(mes);
  const RunResult lazy_run =
      std::move(RunStrategy(*lazy, &lazy_mes, engine)).value();

  ExpectSameRun(eager, lazy_run);

  const uint64_t full_lattice =
      static_cast<uint64_t>(lazy->num_frames()) * matrix.num_ensembles();
  EXPECT_LT(lazy->masks_materialized(), full_lattice)
      << "lazy MES run materialized the whole lattice";
}

// With compute_regret on, a lazy source has no Pareto frontier, so the
// engine falls back to the exhaustive scan — slower, but the regret it
// reports must still match the eager frontier-accelerated scan.
TEST(LazyEvalTest, LazyRegretMatchesEagerFrontierRegret) {
  const DetectorPool pool = MakePool(4);
  const Video video = MakeVideo(0.02, 5);

  EngineOptions engine;
  engine.strategy_seed = 21;
  engine.compute_regret = true;

  const auto matrix =
      std::move(BuildFrameMatrix(video, pool, /*trial_seed=*/5)).value();
  RandomStrategy eager_rand;
  const RunResult eager =
      std::move(RunStrategy(matrix, &eager_rand, engine)).value();

  auto lazy =
      std::move(LazyFrameEvaluator::Create(video, pool, /*trial_seed=*/5))
          .value();
  RandomStrategy lazy_rand;
  const RunResult lazy_run =
      std::move(RunStrategy(*lazy, &lazy_rand, engine)).value();

  EXPECT_TRUE(eager.regret_available);
  ExpectSameRun(eager, lazy_run);
  // The exhaustive fallback materialized everything.
  EXPECT_EQ(lazy->masks_materialized(),
            static_cast<uint64_t>(lazy->num_frames()) *
                matrix.num_ensembles());
}

TEST(LazyEvalTest, RegretSkippedWhenDisabled) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(0.02, 5);
  EngineOptions engine;
  engine.compute_regret = false;
  const auto matrix =
      std::move(BuildFrameMatrix(video, pool, /*trial_seed=*/5)).value();
  BruteForceStrategy bf;
  const RunResult run = std::move(RunStrategy(matrix, &bf, engine)).value();
  EXPECT_FALSE(run.regret_available);
  EXPECT_EQ(run.regret, 0.0);
}

TEST(LazyEvalTest, FullLatticeFlags) {
  EXPECT_TRUE(OptStrategy().needs_full_lattice());
  EXPECT_TRUE(BruteForceStrategy().needs_full_lattice());
  EXPECT_FALSE(SingleBestStrategy().needs_full_lattice());
  EXPECT_FALSE(RandomStrategy().needs_full_lattice());
  EXPECT_FALSE(ExploreFirstStrategy().needs_full_lattice());
  EXPECT_FALSE(MesStrategy(MesOptions{}).needs_full_lattice());
}

// The experiment harness must produce identical outcomes whichever
// backend a config picks — including kAuto, which goes lazy here (all
// online strategies, regret off).
TEST(LazyEvalTest, ExperimentBackendsAgree) {
  const DetectorPool pool = MakePool(3);
  const DatasetSpec* spec = *DatasetCatalog::Default().Find("nusc-night");

  ExperimentConfig config;
  config.dataset = spec;
  config.scene_scale = 0.02;
  config.trials = 2;
  config.pool_size = 3;
  config.base_seed = 77;
  config.engine.compute_regret = false;

  std::vector<StrategySpec> strategies = {
      {"MES",
       [] {
         MesOptions opt;
         opt.gamma = 2;
         return std::make_unique<MesStrategy>(opt);
       }},
      {"RAND", [] { return std::make_unique<RandomStrategy>(); }},
      {"SGL", [] { return std::make_unique<SingleBestStrategy>(); }},
  };

  config.evaluation = EvaluationMode::kEager;
  const auto eager =
      std::move(RunExperiment(config, pool, strategies)).value();
  config.evaluation = EvaluationMode::kLazy;
  const auto lazy = std::move(RunExperiment(config, pool, strategies)).value();
  config.evaluation = EvaluationMode::kAuto;
  const auto autom = std::move(RunExperiment(config, pool, strategies)).value();

  ASSERT_EQ(eager.outcomes.size(), strategies.size());
  for (size_t i = 0; i < strategies.size(); ++i) {
    for (const auto* other : {&lazy, &autom}) {
      ASSERT_EQ(other->outcomes[i].runs.size(), eager.outcomes[i].runs.size());
      for (size_t trial = 0; trial < eager.outcomes[i].runs.size(); ++trial) {
        ExpectSameRun(eager.outcomes[i].runs[trial],
                      other->outcomes[i].runs[trial]);
      }
      EXPECT_FALSE(other->outcomes[i].regret_available);
    }
  }
}

// The experiment walks frames in lockstep across its strategies, so the
// lazy backend runs each frame's m detectors once per trial, however many
// strategies share it. SGL's calibration reads every frame's singletons
// before the first step, which costs one more pass, never m more.
TEST(LazyEvalTest, ExperimentRunsEachFrameDetectorsOncePerPass) {
  const int m = 3;
  const DetectorPool base = MakePool(m);
  std::atomic<uint64_t> calls{0};
  const DetectorPool pool = CountingPool(base, &calls);

  ExperimentConfig config;
  config.dataset = *DatasetCatalog::Default().Find("nusc-night");
  config.scene_scale = 0.02;
  config.trials = 2;
  config.pool_size = m;
  config.base_seed = 31;
  config.parallelism = 1;
  config.evaluation = EvaluationMode::kLazy;
  config.engine.compute_regret = false;

  uint64_t frames = 0;
  for (int trial = 0; trial < config.trials; ++trial) {
    frames += std::move(BuildTrialEvaluator(config, pool,
                                            static_cast<uint64_t>(trial)))
                  .value()
                  ->num_frames();
  }
  ASSERT_GT(frames, 0u);
  ASSERT_EQ(calls.load(), 0u) << "creating an evaluator runs no detector";
  const uint64_t one_pass = static_cast<uint64_t>(m) * frames;

  auto spec = [](const char* name) {
    return StrategySpec{
        name, [name] { return std::move(MakeStrategy(name)).value(); }};
  };
  std::vector<StrategySpec> online = {spec("MES"), spec("RAND"), spec("EF")};
  ASSERT_TRUE(RunExperiment(config, pool, online).ok());
  EXPECT_EQ(calls.load(), one_pass);

  calls = 0;
  online.push_back(spec("SGL"));
  ASSERT_TRUE(RunExperiment(config, pool, online).ok());
  EXPECT_GT(calls.load(), one_pass);
  EXPECT_LE(calls.load(), 2 * one_pass);
}

// kAuto must stay eager when a full-lattice strategy (OPT) is in the
// line-up: the run still works and reports regret when asked.
TEST(LazyEvalTest, AutoKeepsEagerForOracleLineup) {
  const DetectorPool pool = MakePool(3);
  const DatasetSpec* spec = *DatasetCatalog::Default().Find("nusc-night");

  ExperimentConfig config;
  config.dataset = spec;
  config.scene_scale = 0.02;
  config.trials = 1;
  config.pool_size = 3;
  config.base_seed = 13;
  config.evaluation = EvaluationMode::kAuto;  // regret on -> eager

  std::vector<StrategySpec> strategies = {
      {"OPT", [] { return std::make_unique<OptStrategy>(); }},
  };
  const auto result =
      std::move(RunExperiment(config, pool, strategies)).value();
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_TRUE(result.outcomes[0].regret_available);
  // OPT's regret against its own argmax baseline is exactly zero.
  EXPECT_EQ(result.outcomes[0].runs[0].regret, 0.0);
}

// The eager matrix keeps no fused boxes or ground truth, so an experiment
// that forces it together with frame skipping is a configuration error.
TEST(LazyEvalTest, EagerExperimentWithSkipIsRejected) {
  ExperimentConfig config;
  config.dataset = *DatasetCatalog::Default().Find("nusc-night");
  config.scene_scale = 0.02;
  config.trials = 1;
  config.evaluation = EvaluationMode::kEager;
  config.engine.skip.mode = SkipMode::kFixedInterval;
  config.engine.skip.skip_budget = 2;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);

  const DetectorPool pool = MakePool(2);
  const std::vector<StrategySpec> mes = {
      {"MES", [] { return std::move(MakeStrategy("MES")).value(); }}};
  EXPECT_EQ(RunExperiment(config, pool, mes).status().code(),
            StatusCode::kInvalidArgument);

  for (const EvaluationMode mode :
       {EvaluationMode::kAuto, EvaluationMode::kLazy}) {
    config.evaluation = mode;
    EXPECT_TRUE(config.Validate().ok());
  }
  config.evaluation = EvaluationMode::kEager;
  config.engine.skip.skip_budget = 0;  // skipping disabled
  EXPECT_TRUE(config.Validate().ok());
}

// Skipping overrides kAuto's eager choice for OPT and regret: only the
// lazy source serves the temporal gate. Every trial must equal a solo
// RunStrategy over that trial's BuildTrialEvaluator source, bit for bit.
TEST(LazyEvalTest, AutoGoesLazyForSkipWithOracleAndRegret) {
  const DetectorPool pool = MakePool(3);

  ExperimentConfig config;
  config.dataset = *DatasetCatalog::Default().Find("nusc-lowmotion");
  config.scene_scale = 0.004;
  config.trials = 2;
  config.pool_size = 3;
  config.base_seed = 19;
  config.engine.compute_regret = true;
  config.engine.skip.mode = SkipMode::kFixedInterval;
  config.engine.skip.skip_budget = 3;
  ASSERT_EQ(config.evaluation, EvaluationMode::kAuto);

  auto spec = [](const char* name) {
    return StrategySpec{
        name, [name] { return std::move(MakeStrategy(name)).value(); }};
  };
  const std::vector<StrategySpec> strategies = {spec("OPT"), spec("MES")};
  const ExperimentResult result =
      std::move(RunExperiment(config, pool, strategies)).value();
  ASSERT_EQ(result.outcomes.size(), strategies.size());

  for (size_t i = 0; i < strategies.size(); ++i) {
    EXPECT_TRUE(result.outcomes[i].regret_available);
    for (int trial = 0; trial < config.trials; ++trial) {
      SCOPED_TRACE(strategies[i].label + "/trial" + std::to_string(trial));
      const uint64_t trial_index = static_cast<uint64_t>(trial);
      auto source =
          std::move(BuildTrialEvaluator(config, pool, trial_index)).value();
      EngineOptions engine = config.engine;
      engine.strategy_seed =
          HashCombine(config.base_seed, 0xABCD0000ULL + trial_index);
      const std::unique_ptr<SelectionStrategy> strategy =
          strategies[i].make();
      const RunResult solo =
          std::move(RunStrategy(*source, strategy.get(), engine)).value();
      EXPECT_GT(solo.skip.skipped_frames, 0u);
      ExpectSameRun(solo, result.outcomes[i].runs[trial_index]);
    }
  }
}

}  // namespace
}  // namespace vqe
