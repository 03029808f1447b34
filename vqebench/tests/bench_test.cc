// The benchmark's own tests: timing decorators must not change what the
// program computes (bit for bit, on an ingest run, a faulted skip-enabled
// served session and an OPT experiment trial), the tracer's self times
// must partition a span, and a wrong recorded digest must fail a run.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>

#include "common.h"
#include "core/baselines.h"
#include "core/experiment.h"
#include "core/lazy_frame_evaluator.h"
#include "core/mes.h"
#include "decorators.h"
#include "obs/export.h"
#include "serve/scheduler.h"
#include "sim/dataset.h"

namespace vqebench {
namespace {

vqe::Video SampleClip(const char* dataset, double frames, uint64_t seed) {
  const vqe::DatasetSpec& spec = **vqe::DatasetCatalog::Default().Find(dataset);
  vqe::SampleOptions sample;
  sample.scene_scale = frames / static_cast<double>(spec.TotalFrames());
  sample.seed = seed;
  return std::move(vqe::SampleVideo(spec, sample)).value();
}

void ExpectSameRun(const vqe::RunResult& a, const vqe::RunResult& b) {
  Digest x;
  Digest y;
  x.AddRun(a);
  y.AddRun(b);
  EXPECT_EQ(x.Hex(), y.Hex());
  EXPECT_EQ(a.avg_true_ap, b.avg_true_ap);
  EXPECT_EQ(a.regret, b.regret);
  EXPECT_EQ(a.fallback_frames, b.fallback_frames);
  EXPECT_EQ(a.failed_frames, b.failed_frames);
  EXPECT_EQ(a.skip.skipped_frames, b.skip.skipped_frames);
  EXPECT_EQ(a.skip.detect_frames, b.skip.detect_frames);
  EXPECT_EQ(a.breakdown.SimulatedMs(), b.breakdown.SimulatedMs());
}

/// Tracing on for the test's scope, totals dropped on both ends.
class TracingOn {
 public:
  TracingOn() {
    Tracer::Reset();
    Tracer::Enable(true, 1000);
  }
  ~TracingOn() {
    Tracer::Enable(false);
    Tracer::Reset();
  }
};

TEST(DecoratorIdentity, IngestRun) {
  const vqe::Video video = SampleClip("nusc", 600, 11);
  vqe::EngineOptions engine;
  engine.compute_regret = false;
  engine.strategy_seed = 5;

  const vqe::DetectorPool plain = std::move(vqe::BuildNuscenesPool(5)).value();
  auto source =
      std::move(vqe::LazyFrameEvaluator::Create(video, plain, 3)).value();
  vqe::MesStrategy mes;
  const vqe::RunResult expected =
      std::move(vqe::RunStrategy(*source, &mes, engine)).value();

  TracingOn tracing;
  const vqe::DetectorPool timed =
      TimePool(std::move(vqe::BuildNuscenesPool(5)).value());
  TimedSource timed_source(
      std::move(vqe::LazyFrameEvaluator::Create(video, timed, 3)).value());
  std::atomic<uint64_t> realized{0};
  TimedStrategy timed_mes(std::make_unique<vqe::MesStrategy>(),
                          StrategySinks{&realized});
  const vqe::RunResult actual =
      std::move(vqe::RunStrategy(timed_source, &timed_mes, engine)).value();
  ExpectSameRun(expected, actual);
  const auto totals = Tracer::Collect();
  EXPECT_EQ(totals.at("models.detect").count, 5 * video.size());
  EXPECT_EQ(totals.at("core.materialize").count, video.size());
  EXPECT_EQ(totals.at("core.select").count, video.size());
  EXPECT_GT(realized.load(), 0u);
}

TEST(DecoratorIdentity, FaultedSkipServedSession) {
  const vqe::Video video = SampleClip("nusc-night", 300, 21);
  vqe::EngineOptions engine;
  engine.compute_regret = false;
  engine.strategy_seed = 9;
  engine.skip.mode = vqe::SkipMode::kBandit;
  engine.skip.skip_budget = 4;
  vqe::MatrixOptions matrix;
  matrix.retry.max_attempts = 2;
  std::vector<vqe::FaultScript> scripts(5);
  scripts[1].error_rate = 0.4;
  scripts[1].salt = 77;
  // A long outage trips model 1's breaker, so the engine narrows the
  // strategy's eligible models through the decorator.
  scripts[1].bursts.push_back({20, 200, vqe::FaultKind::kError, -1});

  // Solo, undecorated.
  const vqe::DetectorPool plain = std::move(vqe::BuildNuscenesPool(5)).value();
  const vqe::DetectorPool plain_faulty =
      std::move(vqe::ApplyFaultScripts(plain, scripts)).value();
  auto solo_source = std::move(vqe::LazyFrameEvaluator::Create(
                                   video, plain_faulty, 4, matrix))
                         .value();
  vqe::MesStrategy solo_mes;
  const vqe::RunResult expected =
      std::move(vqe::RunStrategy(*solo_source, &solo_mes, engine)).value();
  EXPECT_GT(expected.skip.skipped_frames, 0u);

  // Served, decorated: timing beneath the fault decorator.
  TracingOn tracing;
  const vqe::DetectorPool timed =
      TimePool(std::move(vqe::BuildNuscenesPool(5)).value());
  auto faulty = std::make_unique<vqe::DetectorPool>(
      std::move(vqe::ApplyFaultScripts(timed, scripts)).value());
  std::unique_ptr<vqe::EvaluationSource> source = std::make_unique<TimedSource>(
      std::move(vqe::LazyFrameEvaluator::Create(video, *faulty, 4, matrix))
          .value());
  vqe::StreamSessionConfig cfg;
  cfg.name = "faulted-skip";
  cfg.engine = engine;
  for (const auto& det : faulty->detectors) {
    cfg.model_names.push_back(det->name());
  }
  std::vector<std::unique_ptr<vqe::DetectorPool>> owned;
  owned.push_back(std::move(faulty));
  auto session =
      std::move(vqe::StreamSession::Create(
                    std::move(cfg), std::move(source),
                    std::make_unique<TimedStrategy>(
                        std::make_unique<vqe::MesStrategy>()),
                    std::move(owned)))
          .value();
  vqe::ServeOptions opt;
  opt.parallelism = 2;
  vqe::StreamScheduler scheduler(opt);
  ASSERT_TRUE(scheduler.Submit(std::move(session)).ok());
  const vqe::ServeReport report =
      std::move(scheduler.RunUntilDrained()).value();
  ASSERT_EQ(report.streams.size(), 1u);
  ASSERT_TRUE(report.streams[0].status.ok());
  ExpectSameRun(expected, report.streams[0].result);
  EXPECT_GT(expected.model_availability[1].breaker_opens, 0u);
  EXPECT_GT(Tracer::Collect().at("core.peek").count, 0u);
}

TEST(DecoratorIdentity, OptExperimentTrial) {
  vqe::ExperimentConfig config;
  config.dataset = *vqe::DatasetCatalog::Default().Find("nusc");
  config.scene_scale = 0.008;
  config.trials = 2;
  config.base_seed = 31;
  config.parallelism = 2;
  config.engine.compute_regret = true;
  config.evaluation = vqe::EvaluationMode::kEager;
  const vqe::StrategySpec opt{
      "OPT", [] { return std::make_unique<vqe::OptStrategy>(); }};
  const vqe::DetectorPool plain = std::move(vqe::BuildNuscenesPool(5)).value();
  const vqe::ExperimentResult expected =
      std::move(vqe::RunExperiment(config, plain, {opt})).value();

  TracingOn tracing;
  const vqe::DetectorPool timed =
      TimePool(std::move(vqe::BuildNuscenesPool(5)).value());
  const vqe::StrategySpec timed_opt{"OPT", [] {
                                      return std::make_unique<TimedStrategy>(
                                          std::make_unique<vqe::OptStrategy>());
                                    }};
  const vqe::ExperimentResult pooled =
      std::move(vqe::RunExperiment(config, timed, {timed_opt})).value();
  ASSERT_EQ(pooled.outcomes[0].runs.size(), 2u);
  for (size_t trial = 0; trial < 2; ++trial) {
    ExpectSameRun(expected.outcomes[0].runs[trial],
                  pooled.outcomes[0].runs[trial]);
  }
  // The same trial through a decorated matrix source, stepped serially.
  const vqe::FrameMatrix matrix =
      std::move(vqe::BuildTrialMatrix(config, timed, 1)).value();
  TimedSource source(std::make_unique<vqe::MatrixEvaluationSource>(matrix));
  TimedStrategy strategy(std::make_unique<vqe::OptStrategy>());
  vqe::EngineOptions engine = config.engine;
  engine.strategy_seed =
      vqe::HashCombine(config.base_seed, 0xABCD0000ULL + 1);
  ExpectSameRun(expected.outcomes[0].runs[1],
                std::move(vqe::RunStrategy(source, &strategy, engine)).value());
  // Spans from the pool's worker threads land in per-thread totals.
  EXPECT_EQ(Tracer::Collect().at("core.select").count,
            expected.outcomes[0].runs[0].frames_processed +
                2 * expected.outcomes[0].runs[1].frames_processed);
}

TEST(Tracer, SelfTimePartitionsTheParent) {
  TracingOn tracing;
  {
    Span outer("outer");
    {
      Span inner("inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto totals = Tracer::Collect();
  const LayerTotals outer = totals.at("outer");
  const LayerTotals inner = totals.at("inner");
  EXPECT_DOUBLE_EQ(outer.self_ns + inner.incl_ns, outer.incl_ns);
  EXPECT_DOUBLE_EQ(inner.self_ns, inner.incl_ns);
  EXPECT_GT(outer.self_ns, 0.5e6);

  const std::string path = testing::TempDir() + "/vqebench_trace.json";
  ASSERT_TRUE(Tracer::WriteChromeTrace(path).ok());
  std::ifstream in(path);
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_TRUE(vqe::ValidateChromeTrace(json).ok());
  EXPECT_NE(json.find("\"parent\":\"outer\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Tracer, DisabledSpansRecordNothing) {
  Tracer::Reset();
  Tracer::Enable(false);
  { Span span("ghost"); }
  EXPECT_EQ(Tracer::Collect().count("ghost"), 0u);
}

TEST(OutputCheck, WrongDigestFailsTheRun) {
  const std::string path = testing::TempDir() + "/vqebench_digests.txt";
  {
    std::ofstream out(path);
    out << "query 3 00000000000000ff\n";
  }
  Args args;
  args.workload = "query";
  args.seed = 3 + kInputSets;  // same input set as seed 3
  args.digests = path;
  Outcome wrong;
  CheckRecordedDigest(args, "00000000000000fe", &wrong);
  EXPECT_FALSE(wrong.correct);
  Outcome right;
  CheckRecordedDigest(args, "00000000000000ff", &right);
  EXPECT_TRUE(right.correct);
  Outcome missing;
  args.workload = "ingest";
  CheckRecordedDigest(args, "00000000000000ff", &missing);
  EXPECT_FALSE(missing.correct);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vqebench
