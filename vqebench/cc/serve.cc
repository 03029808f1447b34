// serve: open loop. Streams arrive on a seeded schedule into one
// StreamScheduler and are timed from the moment each was DUE, so a stall
// also charges the wait it imposes on later arrivals. Every session is
// built during set-up, before it is due; the generator (this thread, which
// also drives the rounds) submits a session once its due time has passed
// and records how late it ran. With the scheduler's workers it stays
// within the host's hardware threads.
//
// Each stream is a lazy m=5 session on a short clip. Its priority class,
// skip mode and strategy follow the repo's own traffic model: the class
// shares and per-class skip modes of bench/traces/diurnal_multiday.vqework
// and the per-class strategy of the workload engine (MES, SW-MES, D-MES).
// A minority runs a fault script on one model, sized after the one-model
// storm of bench_workload's storm trace (retries and per-stream breakers
// work; the fleet admission gate never closes). Every completed stream
// must equal its solo RunStrategy.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/ducb.h"
#include "core/experiment.h"
#include "core/lazy_frame_evaluator.h"
#include "core/mes.h"
#include "decorators.h"
#include "serve/scheduler.h"
#include "sim/dataset.h"
#include "workloads.h"

namespace vqebench {
namespace {

// --- Fixed serving parameters (also listed in vqebench/README.md) ------
/// Clips per input set. A stream runs one at random, so the mean cost of
/// a stream varies less from one input set to the next with more clips.
constexpr int kClips = 128;
/// Every clip is cut to exactly this many frames, so stream sizes do not
/// vary with the seed. Streams this short keep the serving thread about a
/// quarter busy at the nominal rate, so a slower host lengthens latency
/// only a little more than it lengthens service: queueing multiplies
/// service time by about 1 / (1 - utilization).
constexpr size_t kClipFrames = 160;
/// The rate ladder of the traced run, streams/s.
constexpr double kLadder[] = {20.0,  40.0,  60.0,  80.0,
                              100.0, 120.0, 140.0, 160.0};
/// Nominal arrival rate, streams/s: a third of the sustained rate the
/// ladder measures (about 120 streams/s, 100-140 in single runs, on a
/// 4-core x86 host).
constexpr double kNominalRate = 40.0;
/// The ladder's latency limit on the tail: this many times the solo wall
/// time of one clip, as measured in the same run.
constexpr double kLimitPerSoloClip = 5.0;
/// Tail percentile of one stream's latency. Each arrival window holds 100
/// streams at the nominal rate, so p90 has 10 beyond it whatever the
/// speed.
constexpr double kTailPercentile = 90.0;
/// Length of the timing windows: a 20 s run has eight.
constexpr double kWindowS = 2.5;
/// Threads stepping sessions in a round, the generator's included.
constexpr int kServeThreads = 1;

/// Per priority class: its share of arrivals and skip mode, from
/// bench/traces/diurnal_multiday.vqework ("class ... share S ... skip M
/// B"), and its strategy, as the workload engine assigns it.
struct ClassMix {
  vqe::PriorityClass priority;
  double share;
  vqe::SkipMode skip_mode;
  int skip_budget;
  const char* strategy;
};
constexpr ClassMix kClassMix[] = {
    {vqe::PriorityClass::kInteractive, 0.40, vqe::SkipMode::kBandit, 3,
     "MES"},
    {vqe::PriorityClass::kStandard, 0.35, vqe::SkipMode::kDifficultyGated, 2,
     "SW-MES"},
    {vqe::PriorityClass::kBatch, 0.25, vqe::SkipMode::kOff, 0, "D-MES"},
};
/// Faulted streams, after the one-model storm of bench_workload's storm
/// trace ("storm rounds 10 16 models 16 ... rate 0.3" over 40 rounds):
/// 15% of streams, model 4, each attempt faulted with probability 0.3.
/// The fault is a hard error rather than that storm's latency spike, so
/// retries and breakers act.
constexpr double kFaultedShare = 0.15;
constexpr int kFaultModel = 4;
constexpr double kFaultRate = 0.3;

struct StreamSpec {
  size_t clip = 0;
  size_t cls = 0;  // index into kClassMix
  uint64_t trial_seed = 0;
  uint64_t strategy_seed = 0;
  bool faulted = false;
};

const char* KindName(const StreamSpec& spec) {
  return kClassMix[spec.cls].strategy;
}

/// The workload engine's per-class strategy (src/workload/workload.cc).
std::unique_ptr<vqe::SelectionStrategy> MakeStrategy(const StreamSpec& spec) {
  switch (kClassMix[spec.cls].priority) {
    case vqe::PriorityClass::kStandard: {
      vqe::SwMesOptions o;
      o.gamma = 2;
      o.window = 64;
      return std::make_unique<vqe::SwMesStrategy>(o);
    }
    case vqe::PriorityClass::kBatch: {
      vqe::DucbOptions o;
      o.gamma = 2;
      return std::make_unique<vqe::DucbMesStrategy>(o);
    }
    default: {
      vqe::MesOptions o;
      o.gamma = 2;
      return std::make_unique<vqe::MesStrategy>(o);
    }
  }
}

vqe::EngineOptions Engine(const StreamSpec& spec) {
  vqe::EngineOptions e;
  e.compute_regret = false;
  e.strategy_seed = spec.strategy_seed;
  e.skip.mode = kClassMix[spec.cls].skip_mode;
  e.skip.skip_budget = kClassMix[spec.cls].skip_budget;
  return e;
}

vqe::MatrixOptions Matrix(const StreamSpec& spec) {
  vqe::MatrixOptions o;
  if (spec.faulted) o.retry.max_attempts = 2;
  return o;
}

std::vector<vqe::FaultScript> Faults(const StreamSpec& spec, size_t m) {
  std::vector<vqe::FaultScript> scripts(m);
  vqe::FaultScript& s = scripts[static_cast<size_t>(kFaultModel)];
  s.error_rate = kFaultRate;
  s.salt = spec.trial_seed;
  return scripts;
}

StreamSpec MakeSpec(uint64_t input, uint64_t phase, size_t i) {
  vqe::Rng rng(vqe::HashCombine(vqe::HashCombine(input, phase), i));
  StreamSpec spec;
  spec.clip = static_cast<size_t>(rng.Next() % kClips);
  double u = rng.NextDouble();
  while (spec.cls + 1 < std::size(kClassMix) && u >= kClassMix[spec.cls].share) {
    u -= kClassMix[spec.cls].share;
    ++spec.cls;
  }
  spec.trial_seed = 100 + rng.Next() % 1000000;
  spec.strategy_seed = 200 + rng.Next() % 1000000;
  spec.faulted = rng.NextDouble() < kFaultedShare;
  return spec;
}

/// A session and the solo-run ingredients are both built from the spec
/// alone, so a served stream and its solo baseline see identical inputs.
std::unique_ptr<vqe::StreamSession> BuildSession(
    const StreamSpec& spec, const std::vector<vqe::Video>& clips,
    const vqe::DetectorPool& base, bool decorated, StrategySinks sinks,
    const std::string& name) {
  std::vector<std::unique_ptr<vqe::DetectorPool>> owned;
  const vqe::DetectorPool* pool = &base;
  if (spec.faulted) {
    owned.push_back(std::make_unique<vqe::DetectorPool>(
        std::move(vqe::ApplyFaultScripts(base, Faults(spec, base.size())))
            .value()));
    pool = owned.back().get();
  }
  std::unique_ptr<vqe::EvaluationSource> source =
      std::move(vqe::LazyFrameEvaluator::Create(clips[spec.clip], *pool,
                                                spec.trial_seed, Matrix(spec)))
          .value();
  std::unique_ptr<vqe::SelectionStrategy> strategy = MakeStrategy(spec);
  if (decorated) {
    source = std::make_unique<TimedSource>(std::move(source));
    strategy = std::make_unique<TimedStrategy>(std::move(strategy), sinks);
  }
  vqe::StreamSessionConfig cfg;
  cfg.name = name;
  cfg.priority = kClassMix[spec.cls].priority;
  cfg.engine = Engine(spec);
  for (const auto& det : pool->detectors) {
    cfg.model_names.push_back(det->name());
  }
  return std::move(vqe::StreamSession::Create(std::move(cfg), std::move(source),
                                              std::move(strategy),
                                              std::move(owned)))
      .value();
}

vqe::Result<vqe::RunResult> SoloRun(const StreamSpec& spec,
                                    const std::vector<vqe::Video>& clips,
                                    const vqe::DetectorPool& base) {
  vqe::DetectorPool faulty;
  const vqe::DetectorPool* pool = &base;
  if (spec.faulted) {
    VQE_ASSIGN_OR_RETURN(
        faulty, vqe::ApplyFaultScripts(base, Faults(spec, base.size())));
    pool = &faulty;
  }
  VQE_ASSIGN_OR_RETURN(
      auto source,
      vqe::LazyFrameEvaluator::Create(clips[spec.clip], *pool,
                                      spec.trial_seed, Matrix(spec)));
  auto strategy = MakeStrategy(spec);
  return vqe::RunStrategy(*source, strategy.get(), Engine(spec));
}

bool SameRun(const vqe::RunResult& a, const vqe::RunResult& b) {
  Digest x;
  Digest y;
  x.AddRun(a);
  y.AddRun(b);
  return x.value() == y.value() && a.fallback_frames == b.fallback_frames &&
         a.failed_frames == b.failed_frames &&
         a.skip.skipped_frames == b.skip.skipped_frames &&
         a.skip.detect_frames == b.skip.detect_frames;
}

struct Inputs {
  std::vector<vqe::Video> clips;
  vqe::DetectorPool pool;
};

Inputs MakeInputs(uint64_t input) {
  Inputs in;
  static const char* kDatasets[] = {"nusc", "nusc-night", "nusc-rainy",
                                    "nusc-clear"};
  for (int c = 0; c < kClips; ++c) {
    const vqe::DatasetSpec& spec =
        **vqe::DatasetCatalog::Default().Find(kDatasets[c % 4]);
    vqe::SampleOptions sample;
    sample.scene_scale = std::min(
        1.0, 2.0 * kClipFrames / static_cast<double>(spec.TotalFrames()));
    sample.seed = vqe::HashCombine(3001 + input, static_cast<uint64_t>(c));
    vqe::Video clip = std::move(vqe::SampleVideo(spec, sample)).value();
    if (clip.frames.size() < kClipFrames) {
      std::fprintf(stderr, "serve: clip %d has only %zu frames\n", c,
                   clip.frames.size());
    }
    clip.frames.resize(std::min(clip.frames.size(), kClipFrames));
    in.clips.push_back(std::move(clip));
  }
  in.pool = std::move(vqe::BuildNuscenesPool(5)).value();
  return in;
}

/// One open-loop phase: its schedule, prebuilt sessions and measurements.
struct Phase {
  double duration_s = 0.0;
  std::vector<StreamSpec> specs;
  std::vector<double> due_s;
  std::vector<std::unique_ptr<vqe::StreamSession>> sessions;
  std::vector<int64_t> first_select_ns;
  // Results.
  std::vector<double> latency_ms;  // completed streams
  std::vector<double> gen_lag_ms;
  std::vector<double> queue_wait_ms;
  std::vector<double> round_us;
  std::vector<vqe::RunResult> results;
  std::vector<int> completed;  // 1 when the stream retired OK
  double served_busy_ms = 0.0;  // Σ round wall × busy workers
  double round_wall_ms = 0.0;
  // Per arrival window: latencies of the streams due in it, and the
  // frames retired and busy serving ms of the rounds started in it.
  std::vector<Window> windows;
  uint64_t frames = 0;
  uint64_t rounds = 0;
  uint64_t unfinished = 0;
  double backlog_mid = 0.0;
  double backlog_end = 0.0;
};

void PreparePhase(Phase* phase, uint64_t input, uint64_t salt, double rate,
                  double duration_s, const Inputs& in,
                  const vqe::DetectorPool& pool, bool decorated,
                  std::atomic<uint64_t>* realized) {
  phase->duration_s = duration_s;
  const size_t n = std::max<size_t>(
      1, static_cast<size_t>(std::llround(rate * duration_s)));
  // Jittered periodic arrivals: stream i is due at a seeded point of the
  // i-th slot of length 1/rate.
  vqe::Rng rng(vqe::HashCombine(input * 1000003 + salt, 0x5E12));
  phase->due_s.resize(n);
  for (size_t i = 0; i < n; ++i) {
    phase->due_s[i] = (static_cast<double>(i) + rng.NextDouble()) / rate;
  }
  phase->first_select_ns.assign(n, 0);
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(duration_s / kWindowS));
  phase->windows.resize(windows);
  for (size_t i = 0; i < n; ++i) {
    phase->specs.push_back(MakeSpec(input, salt, i));
    phase->sessions.push_back(BuildSession(
        phase->specs[i], in.clips, pool, decorated,
        StrategySinks{realized, &phase->first_select_ns[i]},
        "s" + std::to_string(i) + "-" + KindName(phase->specs[i])));
  }
}

/// Drives the phase: submits each session once due, runs rounds, times
/// retirements from the due time. Streams still running `drain_s` after
/// the last arrival are abandoned and count as unfinished.
void RunOpenLoop(Phase* phase, double drain_s) {
  const size_t n = phase->sessions.size();
  vqe::ServeOptions opt;
  opt.max_sessions = 64;
  opt.queue_depth = 1 << 20;
  opt.max_frames_per_round = 16;
  // This thread, which is also the generator, steps every session. Rounds
  // end at a barrier, so with pool workers a stalled core on a shared host
  // would hold up every active stream.
  opt.parallelism = kServeThreads;
  opt.record_frame_latency = false;
  vqe::StreamScheduler scheduler(opt);
  phase->completed.assign(n, 0);
  phase->results.resize(n);
  std::unordered_map<uint64_t, size_t> index_of;
  (void)scheduler.BeginServing();
  const int64_t t0 = NowNs();
  auto due_ns = [&](size_t i) {
    return t0 + static_cast<int64_t>(phase->due_s[i] * 1e9);
  };
  auto window_of = [&](double s) {
    return std::min(phase->windows.size() - 1,
                    static_cast<size_t>(s / kWindowS));
  };
  const int workers = kServeThreads;
  size_t next = 0;
  size_t retired = 0;
  bool mid_sampled = false;
  bool end_sampled = false;
  const int64_t deadline =
      t0 + static_cast<int64_t>((phase->duration_s + drain_s) * 1e9);
  while (retired < n) {
    int64_t now = NowNs();
    while (next < n && due_ns(next) <= now) {
      phase->gen_lag_ms.push_back(
          static_cast<double>(now - due_ns(next)) / 1e6);
      auto id = scheduler.Submit(std::move(phase->sessions[next]));
      if (id.ok()) {
        index_of[id.value()] = next;
      } else {
        ++retired;  // shed: never completes
      }
      ++next;
    }
    const double elapsed = static_cast<double>(now - t0) / 1e9;
    const double outstanding = static_cast<double>(next - retired);
    if (!mid_sampled && elapsed >= phase->duration_s / 2) {
      phase->backlog_mid = outstanding;
      mid_sampled = true;
    }
    if (!end_sampled && next == n) {
      phase->backlog_end = outstanding;
      end_sampled = true;
    }
    if (now > deadline) break;
    const int busy = scheduler.active_sessions() + scheduler.queued_sessions();
    if (busy == 0) {
      if (next == n) break;
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::max<int64_t>(0, due_ns(next) - now)));
      continue;
    }
    const int stepping = std::min(scheduler.active_sessions() +
                                      scheduler.queued_sessions(),
                                  opt.max_sessions);
    const int64_t r0 = NowNs();
    {
      Span span("serve.round");
      (void)scheduler.RunRound();
    }
    const int64_t r1 = NowNs();
    const double round_ms = static_cast<double>(r1 - r0) / 1e6;
    phase->round_us.push_back(round_ms * 1e3);
    phase->round_wall_ms += round_ms;
    const double busy_ms = round_ms * std::min(stepping, workers);
    const size_t round_window =
        window_of(static_cast<double>(r0 - t0) / 1e9);
    phase->served_busy_ms += busy_ms;
    phase->windows[round_window].busy_ms += busy_ms;
    for (vqe::StreamReport& report : scheduler.TakeRetired()) {
      const size_t i = index_of.at(report.stream_id);
      ++retired;
      if (!report.status.ok()) continue;
      phase->completed[i] = 1;
      const double latency_ms = static_cast<double>(r1 - due_ns(i)) / 1e6;
      phase->latency_ms.push_back(latency_ms);
      phase->windows[window_of(phase->due_s[i])].latency_ms.push_back(
          latency_ms);
      if (phase->first_select_ns[i] != 0) {
        phase->queue_wait_ms.push_back(
            static_cast<double>(phase->first_select_ns[i] - due_ns(i)) / 1e6);
      }
      phase->frames += report.frames;
      phase->windows[round_window].frames +=
          static_cast<double>(report.frames);
      phase->results[i] = std::move(report.result);
    }
  }
  phase->unfinished = n - retired;
  auto report = scheduler.FinishServing();
  if (report.ok()) phase->rounds = report.value().stats.rounds;
  if (!end_sampled) phase->backlog_end = static_cast<double>(n - retired);
}

/// Checks every completed stream against its solo RunStrategy (run in
/// parallel); returns the solo wall ms per frame.
double CheckAgainstSolo(const Phase& phase, const Inputs& in, Outcome* out) {
  const size_t n = phase.specs.size();
  std::vector<int> same(n, 1);
  std::vector<double> wall_ms(n, 0.0);
  std::vector<double> frames(n, 0.0);
  vqe::ParallelFor(n, 0, [&](size_t i) {
    if (!phase.completed[i]) return;
    const int64_t t0 = NowNs();
    auto solo = SoloRun(phase.specs[i], in.clips, in.pool);
    wall_ms[i] = static_cast<double>(NowNs() - t0) / 1e6;
    if (!solo.ok()) {
      same[i] = 0;
      return;
    }
    frames[i] = static_cast<double>(solo.value().frames_processed);
    same[i] = SameRun(solo.value(), phase.results[i]) ? 1 : 0;
  });
  double total_ms = 0.0;
  double total_frames = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (!same[i]) {
      out->Fail("stream " + std::to_string(i) + " (" +
                KindName(phase.specs[i]) + ") differs from its solo run");
      break;
    }
    total_ms += wall_ms[i];
    total_frames += frames[i];
  }
  return total_frames > 0 ? total_ms / total_frames : 0.0;
}

void CountOutcome(const Phase& phase, Outcome* out) {
  const size_t n = phase.specs.size();
  size_t completed = 0;
  for (const int c : phase.completed) completed += static_cast<size_t>(c);
  out->attempted += n;
  out->failed += n - completed;
}

double TailOf(const std::vector<double>& v) {
  return Percentile(v, kTailPercentile);
}

}  // namespace

void RunServe(const Args& args, Outcome* out) {
  const uint64_t input = args.input();
  Inputs in;
  Phase nominal;
  const double nominal_s = args.trace ? args.seconds * 0.3 : args.seconds;
  const double setup_s = MedianSetupSeconds(
      args.trace ? 1 : kSetupRepeats, [&] {
        in = MakeInputs(input);
        nominal = Phase();
        PreparePhase(&nominal, input, 1, kNominalRate, nominal_s, in, in.pool,
                     false, nullptr);
        // Warm-up: a few solo streams.
        for (size_t i = 0; i < 4; ++i) {
          (void)SoloRun(MakeSpec(input, 99, i), in.clips, in.pool);
        }
      });
  out->notes.push_back(
      "serve: " + std::to_string(nominal.specs.size()) + " streams at " +
      std::to_string(kNominalRate) + "/s over " + std::to_string(nominal_s) +
      " s; clips of " + std::to_string(kClipFrames) + " frames");
  RunOpenLoop(&nominal, 2.0);
  CountOutcome(nominal, out);
  const double solo_ms_per_frame = CheckAgainstSolo(nominal, in, out);
  const double limit_ms =
      kLimitPerSoloClip * solo_ms_per_frame * static_cast<double>(kClipFrames);
  out->notes.push_back("solo " + std::to_string(solo_ms_per_frame) +
                       " ms/frame; ladder latency limit " +
                       std::to_string(limit_ms) + " ms");
  if (!args.trace) {
    // Below saturation the served frames per wall second only echo the
    // arrival rate, so throughput is per second of busy serving thread.
    out->metrics["setup_s"] = setup_s;
    SetWindowedTimings(nominal.windows, kTailPercentile,
                       "one stream, due time to retirement", out);
    return;
  }

  // Traced run: the untraced nominal phase above, a decorated traced
  // nominal phase, then the untraced rate ladder for the sustained rate.
  auto& m = out->metrics;
  m["serve.backlog_growth"] = (nominal.backlog_end - nominal.backlog_mid) /
                              (nominal.duration_s / 2);
  m["serve.gen_lag_ms_tail"] = TailOf(nominal.gen_lag_ms);
  const vqe::DetectorPool timed_pool =
      TimePool(std::move(vqe::BuildNuscenesPool(5)).value());
  std::atomic<uint64_t> realized{0};
  Phase traced;
  PreparePhase(&traced, input, 2, kNominalRate, args.seconds * 0.3, in,
               timed_pool, true, &realized);
  Tracer::Reset();
  Tracer::Enable(true);
  RunOpenLoop(&traced, 2.0);
  Tracer::Enable(false);
  CountOutcome(traced, out);
  CheckAgainstSolo(traced, in, out);
  const auto totals = Tracer::Collect();
  auto get = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? LayerTotals{} : it->second;
  };
  const double frames = static_cast<double>(get("core.select").count);
  const LayerTotals detect = get("models.detect");
  const LayerTotals cost = get("models.cost");
  const LayerTotals materialize = get("core.materialize");
  const LayerTotals eval = get("core.eval");
  m["models.detect_calls_per_frame"] =
      static_cast<double>(detect.count) / frames;
  m["models.detect_us_per_frame"] =
      (detect.incl_ns + cost.incl_ns) / 1e3 / frames;
  m["models.useful_ratio"] = static_cast<double>(realized.load()) /
                             static_cast<double>(detect.count);
  m["core.materialize_us_per_frame"] =
      materialize.incl_ns / 1e3 / static_cast<double>(materialize.count);
  m["core.materialize_self_us_per_frame"] =
      materialize.self_ns / 1e3 / static_cast<double>(materialize.count);
  m["core.eval_us_per_mask"] =
      eval.incl_ns / 1e3 / static_cast<double>(eval.count);
  m["core.masks_per_frame"] = static_cast<double>(eval.count) / frames;
  m["core.select_us"] = get("core.select").incl_ns / 1e3 / frames;
  m["core.observe_us"] = get("core.observe").incl_ns / 1e3 /
                         static_cast<double>(get("core.observe").count);
  m["serve.round_us_p50"] = Median(traced.round_us);
  m["serve.round_us_tail"] = TailOf(traced.round_us);
  m["serve.frames_per_round"] =
      static_cast<double>(traced.frames) / static_cast<double>(traced.rounds);
  m["serve.queue_wait_ms_p50"] = Median(traced.queue_wait_ms);
  m["serve.queue_wait_ms_tail"] = TailOf(traced.queue_wait_ms);
  m["serve.overhead_ratio"] =
      (nominal.served_busy_ms / static_cast<double>(nominal.frames)) /
      solo_ms_per_frame;
  m["trace.overhead_ratio"] =
      (nominal.round_wall_ms / static_cast<double>(nominal.frames)) /
      (traced.round_wall_ms / static_cast<double>(traced.frames));
  const vqe::Status written =
      Tracer::WriteChromeTrace(std::string(kTraceDir) + "/trace-serve.json");
  if (!written.ok()) out->Fail("chrome trace: " + written.ToString());
  traced = Phase();

  // Rate ladder: the highest rate whose tail meets the limit with every
  // stream finished and no growing backlog.
  double sustained = 0.0;
  const double step_s = args.seconds * 0.08;
  uint64_t salt = 10;
  for (const double rate : kLadder) {
    Phase step;
    PreparePhase(&step, input, salt++, rate, step_s, in, in.pool, false,
                 nullptr);
    RunOpenLoop(&step, step_s);
    const bool all_done =
        step.unfinished == 0 && step.latency_ms.size() == step.specs.size();
    const bool steady =
        step.backlog_end <= std::max(4.0, 1.5 * step.backlog_mid);
    const double tail = TailOf(step.latency_ms);
    out->notes.push_back("ladder " + std::to_string(rate) + "/s: tail " +
                         std::to_string(tail) + " ms, backlog " +
                         std::to_string(step.backlog_mid) + " -> " +
                         std::to_string(step.backlog_end) +
                         (all_done ? "" : ", unfinished streams"));
    if (all_done && steady && tail <= limit_ms) sustained = rate;
  }
  m["serve.sustained_rate"] = sustained;

  Tracer::Reset();
  Tracer::Enable(true);
  if (!ReplayFusionAndAp(in.clips[0], in.pool, 4242, 60)) {
    out->Fail("fusion/AP replay differs from the program's evaluator");
  }
  Tracer::Enable(false);
  SetReplayMetrics(out);
}

}  // namespace vqebench
