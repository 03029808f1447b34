// Crash-injection matrix for ISSUE 4: a run that is killed mid-video and
// resumed from its newest good checkpoint generation must be bit-identical
// to the same run left uninterrupted — across all six online strategies,
// both evaluation backends (eager matrix / lazy evaluator), multiple worker
// counts, and with PR 3 fault scripts active. Also covers the corruption
// fallback (newest generation damaged → previous one used), fresh-start
// behaviour when every generation is damaged, resume-identity validation,
// and end-to-end query resume including tracker (TRACKS) state.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/baselines.h"
#include "core/ducb.h"
#include "core/engine.h"
#include "core/engine_snapshot.h"
#include "core/experiment.h"
#include "core/lazy_frame_evaluator.h"
#include "core/mes.h"
#include "core/mes_b.h"
#include "models/model_zoo.h"
#include "query/executor.h"
#include "runtime/fault_injection.h"
#include "sim/dataset.h"
#include "snapshot/checkpoint.h"
#include "snapshot/snapshot.h"
#include "snapshot/wire.h"

namespace vqe {
namespace {

DetectorPool MakePool(int m) {
  const std::vector<std::string> names = {
      "yolov7-tiny@clear", "yolov7-tiny@night", "yolov7-tiny@rainy",
      "yolov7@clear",      "yolov7-micro@clear"};
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

/// Fresh (empty) checkpoint directory under the test temp root.
std::string ScratchDir(const std::string& name) {
  const std::string dir =
      ::testing::TempDir() + "vqe_resume_test/" + name;
  const int rc = std::system(("rm -rf '" + dir + "'").c_str());
  EXPECT_EQ(rc, 0);
  return dir;  // CheckpointManager::Init mkdir -p's it
}

std::unique_ptr<SelectionStrategy> MakeStrategy(const std::string& kind) {
  if (kind == "MES") {
    MesOptions o;
    o.gamma = 2;
    return std::make_unique<MesStrategy>(o);
  }
  if (kind == "MES-B") {
    MesBOptions o;
    o.gamma = 2;
    return std::make_unique<MesBStrategy>(o);
  }
  if (kind == "SW-MES") {
    SwMesOptions o;
    o.gamma = 2;
    o.window = 8;  // small enough that the window actually evicts
    return std::make_unique<SwMesStrategy>(o);
  }
  if (kind == "D-MES") {
    DucbOptions o;
    o.gamma = 2;
    return std::make_unique<DucbMesStrategy>(o);
  }
  if (kind == "RAND") return std::make_unique<RandomStrategy>();
  if (kind == "EF") return std::make_unique<ExploreFirstStrategy>(2);
  ADD_FAILURE() << "unknown strategy kind " << kind;
  return nullptr;
}

/// Bit-identity over every deterministic RunResult field. algorithm_ms and
/// the checkpoint report are wall-clock/process bookkeeping and are the
/// only exclusions.
void ExpectSameRun(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.s_sum, b.s_sum);
  EXPECT_EQ(a.avg_true_ap, b.avg_true_ap);
  EXPECT_EQ(a.avg_norm_cost, b.avg_norm_cost);
  EXPECT_EQ(a.frames_processed, b.frames_processed);
  EXPECT_EQ(a.regret_available, b.regret_available);
  EXPECT_EQ(a.regret, b.regret);
  EXPECT_EQ(a.charged_cost_ms, b.charged_cost_ms);
  EXPECT_EQ(a.breakdown.detector_ms, b.breakdown.detector_ms);
  EXPECT_EQ(a.breakdown.reference_ms, b.breakdown.reference_ms);
  EXPECT_EQ(a.breakdown.ensembling_ms, b.breakdown.ensembling_ms);
  EXPECT_EQ(a.breakdown.fault_ms, b.breakdown.fault_ms);
  EXPECT_EQ(a.selection_counts, b.selection_counts);
  EXPECT_EQ(a.cost_curve, b.cost_curve);
  EXPECT_EQ(a.fallback_frames, b.fallback_frames);
  EXPECT_EQ(a.failed_frames, b.failed_frames);
  ASSERT_EQ(a.model_availability.size(), b.model_availability.size());
  for (size_t i = 0; i < a.model_availability.size(); ++i) {
    EXPECT_EQ(a.model_availability[i].frames_selected,
              b.model_availability[i].frames_selected);
    EXPECT_EQ(a.model_availability[i].frames_failed,
              b.model_availability[i].frames_failed);
    EXPECT_EQ(a.model_availability[i].breaker_opens,
              b.model_availability[i].breaker_opens);
    EXPECT_EQ(a.model_availability[i].fault_ms,
              b.model_availability[i].fault_ms);
  }
}

/// One engine invocation: builds a fresh source + strategy (as a restarted
/// process would) and runs it under `engine`.
using RunOnce = std::function<Result<RunResult>(const EngineOptions&)>;

/// Drives run_once to completion through repeated crash injections: every
/// invocation but the last must die with kAborted; the survivor's result is
/// returned. Invocation state is rebuilt from scratch each time — only the
/// checkpoint directory carries information across "crashes".
RunResult RunWithCrashes(const RunOnce& run_once, const EngineOptions& engine,
                         int* invocations = nullptr) {
  for (int attempt = 1; attempt <= 64; ++attempt) {
    Result<RunResult> run = run_once(engine);
    if (run.ok()) {
      if (invocations != nullptr) *invocations = attempt;
      return std::move(run).value();
    }
    EXPECT_EQ(run.status().code(), StatusCode::kAborted)
        << run.status().ToString();
  }
  ADD_FAILURE() << "crash-resume loop never completed";
  return RunResult{};
}

/// Builds the per-cell run_once closure for one backend/worker-count
/// combination. The eager matrix and the lazy evaluator are reconstructed
/// on every invocation — a real restart loses them with the process.
RunOnce MakeRunOnce(const Video& video, const DetectorPool& pool,
                    const std::string& kind, bool lazy_backend, int workers,
                    MatrixOptions matrix_options, uint64_t trial_seed) {
  matrix_options.parallelism = workers;
  return [&video, &pool, kind, lazy_backend, matrix_options,
          trial_seed](const EngineOptions& engine) -> Result<RunResult> {
    std::unique_ptr<SelectionStrategy> strategy = MakeStrategy(kind);
    if (lazy_backend) {
      auto lazy =
          LazyFrameEvaluator::Create(video, pool, trial_seed, matrix_options);
      if (!lazy.ok()) return lazy.status();
      return RunStrategy(**lazy, strategy.get(), engine);
    }
    auto matrix = BuildFrameMatrix(video, pool, trial_seed, matrix_options);
    if (!matrix.ok()) return matrix.status();
    return RunStrategy(*matrix, strategy.get(), engine);
  };
}

/// Flips one bit in the middle of a generation file.
void CorruptFile(const std::string& path) {
  std::fstream f(path,
                 std::ios::in | std::ios::out | std::ios::binary |
                     std::ios::ate);
  ASSERT_TRUE(f.is_open()) << path;
  const std::streampos size = f.tellg();
  ASSERT_GT(size, std::streampos(0));
  const std::streampos mid = size / 2;
  f.seekg(mid);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(mid);
  f.write(&byte, 1);
  ASSERT_TRUE(f.good());
}

// ---------------------------------------------------------------------------
// The crash matrix (tentpole acceptance): six strategies × {eager, lazy} ×
// worker counts, clean pool.

void RunCrashMatrix(const Video& video, const DetectorPool& pool,
                    const MatrixOptions& matrix_options,
                    const EngineOptions& base_engine, const std::string& tag) {
  const std::vector<std::string> kinds = {"MES",   "MES-B", "SW-MES",
                                          "D-MES", "RAND",  "EF"};
  for (const std::string& kind : kinds) {
    for (const bool lazy_backend : {false, true}) {
      for (const int workers : {1, 4}) {
        SCOPED_TRACE(tag + "/" + kind +
                     (lazy_backend ? "/lazy" : "/eager") + "/w" +
                     std::to_string(workers));
        const RunOnce run_once = MakeRunOnce(video, pool, kind, lazy_backend,
                                             workers, matrix_options,
                                             /*trial_seed=*/9);
        const Result<RunResult> baseline = run_once(base_engine);
        ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

        EngineOptions ck = base_engine;
        ck.checkpoint.every_frames = 4;
        ck.checkpoint.crash_after_frames = 6;
        ck.checkpoint.directory = ScratchDir(
            tag + "/" + kind + (lazy_backend ? "-lazy" : "-eager") + "-w" +
            std::to_string(workers));
        int invocations = 0;
        const RunResult resumed = RunWithCrashes(run_once, ck, &invocations);
        ExpectSameRun(*baseline, resumed);
        EXPECT_GT(invocations, 1) << "the crash must actually fire";
        EXPECT_TRUE(resumed.checkpoint.resumed);
        EXPECT_GT(resumed.checkpoint.resumed_from_frame, 0u);
      }
    }
  }
}

TEST(CrashMatrixTest, AllStrategiesBackendsAndWorkersResumeBitIdentically) {
  const int m = 3;
  const DetectorPool pool = MakePool(m);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/17);
  ASSERT_GT(video.size(), 12u);

  EngineOptions engine;
  engine.strategy_seed = 42;
  engine.compute_regret = false;
  RunCrashMatrix(video, pool, MatrixOptions{}, engine, "clean");
}

// The same matrix with PR 3 fault scripts active: a mid-video outage, random
// errors/empties/spikes, retries, and live circuit breakers — all of that
// state must survive the crash too.
TEST(CrashMatrixTest, FaultedRunsResumeBitIdentically) {
  const int m = 3;
  const DetectorPool pool = MakePool(m);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/17);
  ASSERT_GT(video.size(), 12u);

  std::vector<FaultScript> scripts(static_cast<size_t>(m));
  scripts[0].bursts.push_back({2, 8, FaultKind::kError, -1});
  scripts[1].error_rate = 0.2;
  scripts[1].empty_rate = 0.2;
  scripts[2].spike_rate = 0.3;
  scripts[2].garbage_rate = 0.2;
  const DetectorPool faulty =
      std::move(ApplyFaultScripts(pool, scripts)).value();

  MatrixOptions matrix_options;
  matrix_options.retry.max_attempts = 2;
  matrix_options.retry.backoff_base_ms = 0.25;

  EngineOptions engine;
  engine.strategy_seed = 42;
  engine.compute_regret = false;
  engine.breaker.failure_threshold = 2;
  engine.breaker.open_frames = 5;
  RunCrashMatrix(video, faulty, matrix_options, engine, "faulted");
}

// ---------------------------------------------------------------------------
// Feature-specific resume coverage.

// Regret accumulation and the LRBP cost curve are part of the snapshot.
TEST(ResumeTest, RegretAndCostCurveSurviveResume) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/21);
  ASSERT_GT(video.size(), 10u);

  EngineOptions engine;
  engine.strategy_seed = 7;
  engine.compute_regret = true;
  engine.record_cost_curve = true;

  const RunOnce run_once = MakeRunOnce(video, pool, "MES", /*lazy=*/false,
                                       /*workers=*/1, MatrixOptions{},
                                       /*trial_seed=*/3);
  const Result<RunResult> baseline = run_once(engine);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(baseline->regret_available);
  ASSERT_FALSE(baseline->cost_curve.empty());

  EngineOptions ck = engine;
  ck.checkpoint.every_frames = 3;
  ck.checkpoint.crash_after_frames = 5;
  ck.checkpoint.directory = ScratchDir("regret-curve");
  const RunResult resumed = RunWithCrashes(run_once, ck);
  ExpectSameRun(*baseline, resumed);
}

// A TCVI budget run: the spent budget is part of the cursor, so a resumed
// run must stop at exactly the same frame.
TEST(ResumeTest, BudgetedRunStopsAtTheSameFrameAfterResume) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/29);
  ASSERT_GT(video.size(), 10u);

  EngineOptions engine;
  engine.strategy_seed = 5;
  engine.compute_regret = false;
  engine.budget_ms = 400.0;  // cuts the run short mid-video

  const RunOnce run_once = MakeRunOnce(video, pool, "MES-B", /*lazy=*/false,
                                       /*workers=*/1, MatrixOptions{},
                                       /*trial_seed=*/3);
  const Result<RunResult> baseline = run_once(engine);
  ASSERT_TRUE(baseline.ok());

  EngineOptions ck = engine;
  ck.checkpoint.every_frames = 2;
  ck.checkpoint.crash_after_frames = 3;
  ck.checkpoint.directory = ScratchDir("budget");
  const RunResult resumed = RunWithCrashes(run_once, ck);
  ExpectSameRun(*baseline, resumed);
}

// A lazy run's snapshot carries only the evaluator's three counters, so a
// checkpoint or migration payload is as large after 2k frames as after k.
// A source section that still carries a memo after the counters (the
// layout that kept every touched frame's cells) is DataLoss.
TEST(ResumeTest, LazySnapshotSizeDoesNotGrowWithProgress) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/31);
  const size_t k = 5;
  ASSERT_GT(video.size(), 2 * k);

  EngineOptions engine;
  engine.strategy_seed = 11;
  engine.compute_regret = false;

  auto lazy = std::move(LazyFrameEvaluator::Create(video, pool,
                                                   /*trial_seed=*/5))
                  .value();
  const std::unique_ptr<SelectionStrategy> mes = MakeStrategy("MES");
  auto run = std::move(EngineRun::Create(*lazy, mes.get(), engine)).value();
  std::vector<uint8_t> after_k;
  for (size_t t = 0; t < 2 * k; ++t) {
    ASSERT_TRUE(run->StepFrame().ok());
    if (t + 1 == k) after_k = std::move(run->ExportSnapshot()).value();
  }
  const std::vector<uint8_t> after_2k =
      std::move(run->ExportSnapshot()).value();
  EXPECT_EQ(after_k.size(), after_2k.size());

  // Copy every section, appending an empty memo (a frame count of zero)
  // to the source section's counters.
  const SnapshotReader snap =
      std::move(SnapshotReader::Parse(after_2k)).value();
  SnapshotWriter forged;
  for (const std::string& name : snap.section_names()) {
    ByteReader r = std::move(snap.Section(name)).value();
    ByteWriter& w = forged.AddSection(name);
    uint8_t byte = 0;
    while (r.remaining() > 0) {
      ASSERT_TRUE(r.U8(&byte).ok());
      w.U8(byte);
    }
    if (name == kSourceSection) w.U64(0);
  }
  auto target_lazy = std::move(LazyFrameEvaluator::Create(video, pool,
                                                          /*trial_seed=*/5))
                         .value();
  const std::unique_ptr<SelectionStrategy> target_mes = MakeStrategy("MES");
  auto target =
      std::move(EngineRun::Create(*target_lazy, target_mes.get(), engine))
          .value();
  const Status status = target->RestoreFromSnapshot(
      std::move(SnapshotReader::Parse(forged.Finish())).value());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
}

// ---------------------------------------------------------------------------
// Corruption fallback and validation.

// Damage the newest generation after a crash: the resume must reject it,
// fall back to the previous good generation, report the rejection, and
// still finish bit-identically.
TEST(ResumeTest, FallsBackToPreviousGenerationWhenNewestIsCorrupt) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/37);
  ASSERT_GT(video.size(), 8u);

  EngineOptions engine;
  engine.strategy_seed = 13;
  engine.compute_regret = false;

  const RunOnce run_once = MakeRunOnce(video, pool, "MES", /*lazy=*/false,
                                       /*workers=*/1, MatrixOptions{},
                                       /*trial_seed=*/7);
  const Result<RunResult> baseline = run_once(engine);
  ASSERT_TRUE(baseline.ok());

  const std::string dir = ScratchDir("fallback");
  EngineOptions ck = engine;
  ck.checkpoint.every_frames = 2;
  ck.checkpoint.crash_after_frames = 7;
  ck.checkpoint.directory = dir;

  // First invocation: writes generations at frames 2, 4, 6 then dies. The
  // retention window (2) keeps the two newest.
  const Result<RunResult> first = run_once(ck);
  ASSERT_FALSE(first.ok());
  ASSERT_EQ(first.status().code(), StatusCode::kAborted);

  CheckpointManager manager(dir);
  const std::vector<uint64_t> generations = manager.ListGenerations();
  ASSERT_EQ(generations.size(), 2u);
  CorruptFile(manager.GenerationPath(generations.back()));

  // Second invocation, no crash: must skip the damaged newest generation.
  ck.checkpoint.crash_after_frames = 0;
  const Result<RunResult> resumed = run_once(ck);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->checkpoint.resumed);
  EXPECT_EQ(resumed->checkpoint.generations_rejected, 1);
  EXPECT_EQ(resumed->checkpoint.resumed_from_frame, 4u)
      << "generation at frame 6 was damaged; frame-4 generation is next";
  ExpectSameRun(*baseline, *resumed);
}

// Every generation damaged: the run reports nothing usable and starts
// fresh — same final result, resumed flag off.
TEST(ResumeTest, StartsFreshWhenEveryGenerationIsCorrupt) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/37);
  ASSERT_GT(video.size(), 8u);

  EngineOptions engine;
  engine.strategy_seed = 13;
  engine.compute_regret = false;

  const RunOnce run_once = MakeRunOnce(video, pool, "MES", /*lazy=*/false,
                                       /*workers=*/1, MatrixOptions{},
                                       /*trial_seed=*/7);
  const Result<RunResult> baseline = run_once(engine);
  ASSERT_TRUE(baseline.ok());

  const std::string dir = ScratchDir("all-corrupt");
  EngineOptions ck = engine;
  ck.checkpoint.every_frames = 2;
  ck.checkpoint.crash_after_frames = 7;
  ck.checkpoint.directory = dir;
  ASSERT_EQ(run_once(ck).status().code(), StatusCode::kAborted);

  CheckpointManager manager(dir);
  for (const uint64_t sequence : manager.ListGenerations()) {
    CorruptFile(manager.GenerationPath(sequence));
  }

  ck.checkpoint.crash_after_frames = 0;
  const Result<RunResult> fresh = run_once(ck);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_FALSE(fresh->checkpoint.resumed);
  ExpectSameRun(*baseline, *fresh);
}

// A snapshot from a differently-configured run must be refused, not
// silently blended in.
TEST(ResumeTest, MismatchedRunIdentityIsRejected) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/41);
  ASSERT_GT(video.size(), 8u);

  EngineOptions ck;
  ck.strategy_seed = 19;
  ck.compute_regret = false;
  ck.checkpoint.every_frames = 2;
  ck.checkpoint.crash_after_frames = 5;
  ck.checkpoint.directory = ScratchDir("identity");

  const RunOnce mes = MakeRunOnce(video, pool, "MES", /*lazy=*/false,
                                  /*workers=*/1, MatrixOptions{},
                                  /*trial_seed=*/7);
  ASSERT_EQ(mes(ck).status().code(), StatusCode::kAborted);

  // Different strategy seed.
  EngineOptions other_seed = ck;
  other_seed.strategy_seed = 20;
  other_seed.checkpoint.crash_after_frames = 0;
  EXPECT_EQ(mes(other_seed).status().code(), StatusCode::kFailedPrecondition);

  // Different strategy altogether.
  EngineOptions no_crash = ck;
  no_crash.checkpoint.crash_after_frames = 0;
  const RunOnce sw = MakeRunOnce(video, pool, "SW-MES", /*lazy=*/false,
                                 /*workers=*/1, MatrixOptions{},
                                 /*trial_seed=*/7);
  EXPECT_EQ(sw(no_crash).status().code(), StatusCode::kFailedPrecondition);

  // The original configuration still resumes fine.
  const Result<RunResult> ok = mes(no_crash);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(ok->checkpoint.resumed);
}

// ---------------------------------------------------------------------------
// End-to-end query resume.

void ExpectSameQuery(const QueryOutput& a, const QueryOutput& b) {
  EXPECT_EQ(a.frame_ids, b.frame_ids);
  EXPECT_EQ(a.frames_processed, b.frames_processed);
  EXPECT_EQ(a.frames_matched, b.frames_matched);
  EXPECT_EQ(a.charged_cost_ms, b.charged_cost_ms);
  EXPECT_EQ(a.reference_cost_ms, b.reference_cost_ms);
  EXPECT_EQ(a.selection_counts, b.selection_counts);
  EXPECT_EQ(a.model_names, b.model_names);
  EXPECT_EQ(a.fallback_frames, b.fallback_frames);
  EXPECT_EQ(a.failed_frames, b.failed_frames);
  EXPECT_EQ(a.fault_ms, b.fault_ms);
  EXPECT_EQ(a.model_failures, b.model_failures);
}

QueryOutput RunQueryWithCrashes(const std::string& sql,
                                const QueryEngineOptions& options,
                                int* invocations = nullptr) {
  for (int attempt = 1; attempt <= 64; ++attempt) {
    const Result<QueryOutput> out = ExecuteQuery(sql, options);
    if (out.ok()) {
      if (invocations != nullptr) *invocations = attempt;
      return *out;
    }
    EXPECT_EQ(out.status().code(), StatusCode::kAborted)
        << out.status().ToString();
  }
  ADD_FAILURE() << "query crash-resume loop never completed";
  return QueryOutput{};
}

QueryEngineOptions SmallQueryOptions() {
  QueryEngineOptions opt;
  opt.scene_scale = 0.02;
  opt.seed = 3;
  return opt;
}

TEST(QueryResumeTest, BasicQueryResumesBitIdentically) {
  const std::string sql =
      "SELECT frameID FROM (PROCESS nusc-night PRODUCE frameID, Detections "
      "USING MES(yolov7-tiny@clear, yolov7-tiny@night; REF)) "
      "WHERE COUNT(car) >= 1";
  const QueryEngineOptions opt = SmallQueryOptions();
  const Result<QueryOutput> baseline = ExecuteQuery(sql, opt);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  QueryEngineOptions ck = opt;
  ck.checkpoint.every_frames = 5;
  ck.checkpoint.crash_after_frames = 7;
  ck.checkpoint.directory = ScratchDir("query-basic");
  int invocations = 0;
  const QueryOutput resumed = RunQueryWithCrashes(sql, ck, &invocations);
  ExpectSameQuery(*baseline, resumed);
  EXPECT_GT(invocations, 1);
  EXPECT_TRUE(resumed.checkpoint.resumed);
}

// TRACKS() queries carry the IoU tracker across frames; its confirmed and
// tentative tracks must survive the crash intact.
TEST(QueryResumeTest, TracksQueryResumesBitIdentically) {
  const std::string sql =
      "SELECT frameID FROM (PROCESS nusc-night PRODUCE frameID, Detections "
      "USING MES(*; REF)) WHERE TRACKS(car) >= 1";
  const QueryEngineOptions opt = SmallQueryOptions();
  const Result<QueryOutput> baseline = ExecuteQuery(sql, opt);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_GT(baseline->frames_matched, 0u)
      << "the predicate must actually depend on tracker state";

  QueryEngineOptions ck = opt;
  ck.checkpoint.every_frames = 5;
  ck.checkpoint.crash_after_frames = 8;
  ck.checkpoint.directory = ScratchDir("query-tracks");
  const QueryOutput resumed = RunQueryWithCrashes(sql, ck);
  ExpectSameQuery(*baseline, resumed);
  EXPECT_TRUE(resumed.checkpoint.resumed);
}

// Faulted query: retries, breakers, and per-model runtime stacks active.
TEST(QueryResumeTest, FaultedQueryResumesBitIdentically) {
  const std::string sql =
      "SELECT frameID FROM (PROCESS nusc-night PRODUCE frameID, Detections "
      "USING MES(yolov7-tiny@clear, yolov7-tiny@night; REF)) "
      "WHERE COUNT(*) >= 1";
  QueryEngineOptions opt = SmallQueryOptions();
  opt.matrix.retry.max_attempts = 2;
  opt.matrix.retry.backoff_base_ms = 0.25;
  opt.breaker.failure_threshold = 2;
  opt.breaker.open_frames = 4;
  opt.fault_scripts.resize(2);
  opt.fault_scripts[0].error_rate = 0.3;
  opt.fault_scripts[1].bursts.push_back({3, 9, FaultKind::kError, -1});

  const Result<QueryOutput> baseline = ExecuteQuery(sql, opt);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_GT(baseline->fallback_frames + baseline->failed_frames, 0u)
      << "the scripts must actually degrade some frames";

  QueryEngineOptions ck = opt;
  ck.checkpoint.every_frames = 4;
  ck.checkpoint.crash_after_frames = 6;
  ck.checkpoint.directory = ScratchDir("query-faulted");
  const QueryOutput resumed = RunQueryWithCrashes(sql, ck);
  ExpectSameQuery(*baseline, resumed);
  EXPECT_TRUE(resumed.checkpoint.resumed);
}

// A query snapshot belongs to one exact query + options: resuming under
// any knob that changes the output must be refused.
TEST(QueryResumeTest, MismatchedQueryIdentityIsRejected) {
  const std::string head =
      "SELECT frameID FROM (PROCESS nusc-night PRODUCE frameID, Detections "
      "USING MES(yolov7-tiny@clear, ";
  const std::string sql =
      head + "yolov7-tiny@night; REF)) WHERE COUNT(car) >= 1";
  QueryEngineOptions ck = SmallQueryOptions();
  ck.checkpoint.every_frames = 4;
  ck.checkpoint.crash_after_frames = 6;
  ck.checkpoint.directory = ScratchDir("query-identity");
  ASSERT_EQ(ExecuteQuery(sql, ck).status().code(), StatusCode::kAborted);
  ck.checkpoint.crash_after_frames = 0;

  auto expect_rejected = [&](const char* what, const std::string& variant_sql,
                             const QueryEngineOptions& variant) {
    EXPECT_EQ(ExecuteQuery(variant_sql, variant).status().code(),
              StatusCode::kFailedPrecondition)
        << "resume under a different " << what << " must be refused";
  };
  QueryEngineOptions other = ck;
  other.seed = 99;
  expect_rejected("seed", sql, other);
  expect_rejected("WHERE clause",
                  head + "yolov7-tiny@night; REF)) WHERE COUNT(car) >= 5", ck);
  // A threshold that a six-digit rendering would print as "1".
  expect_rejected(
      "WHERE threshold",
      head + "yolov7-tiny@night; REF)) WHERE COUNT(car) >= 1.0000001", ck);
  expect_rejected("pool", head + "yolov7@night; REF)) WHERE COUNT(car) >= 1",
                  ck);
  other = ck;
  other.breaker.failure_threshold = 7;
  expect_rejected("breaker", sql, other);
  other = ck;
  other.matrix.retry.max_attempts = 2;
  expect_rejected("retry policy", sql, other);
  other = ck;
  other.matrix.fusion = FusionKind::kNms;
  expect_rejected("fusion method", sql, other);

  const Result<QueryOutput> ok = ExecuteQuery(sql, ck);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(ok->checkpoint.resumed);
}

}  // namespace
}  // namespace vqe
