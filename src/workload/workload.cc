#include "workload/workload.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/rng.h"
#include "core/experiment.h"
#include "core/lazy_frame_evaluator.h"
#include "core/strategy_factory.h"
#include "sim/dataset.h"

namespace vqe {
namespace {

/// Bounded-Pareto burst multiplier in [1, cap].
double ParetoBurst(Rng& rng, double alpha, double cap) {
  const double u = rng.NextDouble();  // [0, 1)
  const double burst = std::pow(1.0 - u, -1.0 / alpha);
  return std::min(burst, cap);
}

double Lerp(double a, double b, double t) { return a + (b - a) * t; }

/// The strategy each priority class runs, from the core registry: γ = 2,
/// and λ = 64 for SW-MES.
Result<std::unique_ptr<SelectionStrategy>> StrategyForClass(
    PriorityClass priority) {
  StrategyParams params;
  params.gamma = 2;
  params.window = 64;
  switch (priority) {
    case PriorityClass::kInteractive:
      return MakeStrategy("MES", params);
    case PriorityClass::kStandard:
      return MakeStrategy("SW-MES", params);
    case PriorityClass::kBatch:
      return MakeStrategy("D-MES", params);
  }
  return MakeStrategy("MES");
}

EngineOptions EngineForSession(const SessionPlan& session) {
  EngineOptions e;
  e.strategy_seed = session.strategy_seed;
  e.compute_regret = false;
  e.skip.mode = session.skip_mode;
  e.skip.skip_budget = session.skip_budget;
  return e;
}

}  // namespace

bool SessionPlan::stormy() const {
  for (const FaultScript& s : scripts) {
    if (s.enabled()) return true;
  }
  return false;
}

WorkloadPlan BuildWorkloadPlan(const WorkloadTrace& trace) {
  WorkloadPlan plan;
  plan.trace = trace;
  Rng rng(trace.seed);

  double share_sum = 0.0;
  for (const WorkloadClassMix& m : trace.mix) share_sum += m.share;

  const double horizon =
      static_cast<double>(std::max<uint64_t>(1, trace.rounds));
  uint64_t session_index = 0;
  for (uint64_t r = 0; r < trace.rounds; ++r) {
    const double diurnal =
        1.0 + trace.diurnal_amplitude *
                  std::sin(2.0 * 3.14159265358979323846 *
                           static_cast<double>(r) / trace.diurnal_period);
    const double burst =
        ParetoBurst(rng, trace.pareto_alpha, trace.pareto_cap);
    const double expected = trace.arrival_rate * diurnal * burst;
    int n = static_cast<int>(std::floor(expected));
    if (rng.Bernoulli(expected - std::floor(expected))) ++n;
    if (n > kMaxArrivalsPerRound) {
      plan.capped_arrivals += static_cast<uint64_t>(n - kMaxArrivalsPerRound);
      n = kMaxArrivalsPerRound;
    }
    for (int k = 0; k < n; ++k) {
      if (plan.sessions.size() >= kMaxPlannedSessions) {
        ++plan.capped_arrivals;
        continue;
      }
      // Class draw by mix share.
      const double u = rng.NextDouble() * share_sum;
      double acc = 0.0;
      const WorkloadClassMix* mix = &trace.mix.back();
      for (const WorkloadClassMix& m : trace.mix) {
        acc += m.share;
        if (u < acc) {
          mix = &m;
          break;
        }
      }
      SessionPlan s;
      s.arrival_round = r;
      s.priority = mix->priority;
      s.frames = mix->frames;
      s.skip_mode = mix->skip_mode;
      s.skip_budget = mix->skip_budget;
      s.trial_seed = rng.Next();
      s.strategy_seed = rng.Next();
      s.video_seed = rng.Next();
      s.name = "w" + std::to_string(session_index++) + "-" +
               PriorityClassToString(mix->priority) + "-r" +
               std::to_string(r);
      // Drift intensity across the session's expected lifetime.
      const uint64_t duration_rounds = static_cast<uint64_t>(
          (s.frames + kNominalFramesPerRound - 1) / kNominalFramesPerRound);
      s.lambda0 = Lerp(trace.drift_lambda0, trace.drift_lambda1,
                       static_cast<double>(r) / horizon);
      s.lambda1 = Lerp(
          trace.drift_lambda0, trace.drift_lambda1,
          std::min(1.0, static_cast<double>(r + duration_rounds) / horizon));
      // Storm windows, mapped onto this session's frame clock.
      s.scripts.assign(static_cast<size_t>(trace.models), FaultScript{});
      for (const WorkloadStorm& storm : trace.storms) {
        const uint64_t session_end = r + duration_rounds;
        if (storm.end_round <= r || storm.begin_round >= session_end) {
          continue;
        }
        const int64_t begin_f =
            storm.begin_round > r
                ? static_cast<int64_t>(storm.begin_round - r) *
                      kNominalFramesPerRound
                : 0;
        const int64_t end_f = std::min<int64_t>(
            s.frames, static_cast<int64_t>(storm.end_round - r) *
                          kNominalFramesPerRound);
        if (end_f <= begin_f) continue;
        std::vector<FaultBurst> bursts;
        if (storm.rate >= 1.0) {
          FaultBurst b;
          b.begin_frame = begin_f;
          b.end_frame = end_f;
          b.kind = storm.kind;
          bursts.push_back(b);
        } else if (storm.rate > 0.0) {
          // One draw per in-window frame, shared by every afflicted model
          // (a storm front hits its models together).
          for (int64_t f = begin_f; f < end_f; ++f) {
            if (!rng.Bernoulli(storm.rate)) continue;
            FaultBurst b;
            b.begin_frame = f;
            b.end_frame = f + 1;
            b.kind = storm.kind;
            bursts.push_back(b);
          }
        }
        if (bursts.empty()) continue;
        for (int m = 0; m < trace.models; ++m) {
          if ((storm.models & (EnsembleId{1} << m)) == 0) continue;
          FaultScript& script = s.scripts[static_cast<size_t>(m)];
          script.bursts.insert(script.bursts.end(), bursts.begin(),
                               bursts.end());
        }
      }
      plan.sessions.push_back(std::move(s));
    }
  }
  return plan;
}

Result<Video> BuildSessionVideo(const WorkloadPlan& plan,
                                const SessionPlan& session) {
  VQE_ASSIGN_OR_RETURN(const DatasetSpec* spec,
                       DatasetCatalog::Default().Find(plan.trace.dataset));
  SampleOptions sample;
  sample.scene_scale = plan.trace.scene_scale;
  sample.seed = session.video_seed;
  VQE_ASSIGN_OR_RETURN(Video video, SampleVideo(*spec, sample));
  if (video.frames.size() > static_cast<size_t>(session.frames)) {
    video.frames.resize(static_cast<size_t>(session.frames));
  }
  if (video.empty()) {
    return Status::Internal("workload session video sampled empty");
  }
  ApplyDriftRewrite(video, session.video_seed, session.lambda0,
                    session.lambda1);
  return video;
}

void ApplyDriftRewrite(Video& video, uint64_t video_seed, double lambda0,
                       double lambda1) {
  // One flip decision per contiguous scene_id run, at the drift intensity
  // interpolated to the block's first frame. Block granularity keeps
  // rewritten context changes as rare, episode-scale events rather than
  // per-frame churn.
  Rng drift(HashCombine(video_seed, 0xD21F7u));
  const double denom =
      static_cast<double>(std::max<size_t>(1, video.frames.size() - 1));
  size_t i = 0;
  while (i < video.frames.size()) {
    size_t j = i;
    while (j < video.frames.size() &&
           video.frames[j].scene_id == video.frames[i].scene_id) {
      ++j;
    }
    const double lambda =
        Lerp(lambda0, lambda1, static_cast<double>(i) / denom);
    if (drift.Bernoulli(lambda)) {
      const int from = static_cast<int>(video.frames[i].context);
      const int to =
          (from + 1 +
           static_cast<int>(drift.UniformInt(
               static_cast<uint64_t>(kNumSceneContexts - 1)))) %
          kNumSceneContexts;
      for (size_t k = i; k < j; ++k) {
        video.frames[k].context = static_cast<SceneContext>(to);
      }
    }
    i = j;
  }
}

Result<std::unique_ptr<StreamSession>> BuildWorkloadSession(
    const WorkloadPlan& plan, const SessionPlan& session,
    const DetectorPool& base_pool) {
  if (base_pool.detectors.size() != session.scripts.size()) {
    return Status::InvalidArgument(
        "workload pool size does not match the trace's models count");
  }
  VQE_ASSIGN_OR_RETURN(Video video, BuildSessionVideo(plan, session));

  std::vector<std::unique_ptr<DetectorPool>> owned;
  const DetectorPool* pool = &base_pool;
  if (session.stormy()) {
    VQE_ASSIGN_OR_RETURN(DetectorPool faulty,
                         ApplyFaultScripts(base_pool, session.scripts));
    owned.push_back(std::make_unique<DetectorPool>(std::move(faulty)));
    pool = owned.back().get();
  }
  VQE_ASSIGN_OR_RETURN(
      auto source, LazyFrameEvaluator::Create(std::move(video), *pool,
                                              session.trial_seed, {}));
  StreamSessionConfig cfg;
  cfg.name = session.name;
  cfg.priority = session.priority;
  cfg.engine = EngineForSession(session);
  for (const auto& det : pool->detectors) {
    cfg.model_names.push_back(det->name());
  }
  VQE_ASSIGN_OR_RETURN(auto strategy, StrategyForClass(session.priority));
  return StreamSession::Create(std::move(cfg), std::move(source),
                               std::move(strategy), std::move(owned));
}

Result<RunResult> RunWorkloadSessionSolo(const WorkloadPlan& plan,
                                         const SessionPlan& session,
                                         const DetectorPool& base_pool) {
  if (base_pool.detectors.size() != session.scripts.size()) {
    return Status::InvalidArgument(
        "workload pool size does not match the trace's models count");
  }
  VQE_ASSIGN_OR_RETURN(Video video, BuildSessionVideo(plan, session));
  std::vector<std::unique_ptr<DetectorPool>> owned;
  const DetectorPool* pool = &base_pool;
  if (session.stormy()) {
    VQE_ASSIGN_OR_RETURN(DetectorPool faulty,
                         ApplyFaultScripts(base_pool, session.scripts));
    owned.push_back(std::make_unique<DetectorPool>(std::move(faulty)));
    pool = owned.back().get();
  }
  VQE_ASSIGN_OR_RETURN(
      auto source, LazyFrameEvaluator::Create(std::move(video), *pool,
                                              session.trial_seed, {}));
  VQE_ASSIGN_OR_RETURN(auto strategy, StrategyForClass(session.priority));
  return RunStrategy(*source, strategy.get(), EngineForSession(session));
}

ServeOptions MakeServeOptions(const WorkloadTrace& trace, ServeOptions base,
                              bool enable_overload) {
  if (!enable_overload) return base;
  base.overload.enabled = true;
  for (int c = 0; c < kNumPriorityClasses; ++c) {
    if (trace.has_slo[c]) base.overload.slo[c] = trace.slo[c];
  }
  return base;
}

Result<WorkloadRunReport> RunWorkloadOnScheduler(
    const WorkloadPlan& plan, const DetectorPool& base_pool,
    const ServeOptions& serve) {
  VQE_RETURN_NOT_OK(serve.Validate());
  StreamScheduler scheduler(serve);
  VQE_RETURN_NOT_OK(scheduler.BeginServing());

  WorkloadRunReport report;
  report.planned = plan.sessions.size();
  size_t next = 0;
  uint64_t wround = 0;
  while (true) {
    while (next < plan.sessions.size() &&
           plan.sessions[next].arrival_round <= wround) {
      VQE_ASSIGN_OR_RETURN(
          auto session,
          BuildWorkloadSession(plan, plan.sessions[next], base_pool));
      Result<uint64_t> id = scheduler.Submit(std::move(session));
      if (id.ok()) {
        ++report.submitted;
      } else if (id.status().code() == StatusCode::kResourceExhausted) {
        // Load shedding is the system working as designed under overload;
        // the shed count is the result, not a failure.
        ++report.shed;
      } else {
        return id.status();
      }
      ++next;
    }
    VQE_ASSIGN_OR_RETURN(const bool more, scheduler.RunRound());
    ++wround;
    if (!more && next >= plan.sessions.size()) break;
  }
  VQE_ASSIGN_OR_RETURN(report.serve, scheduler.FinishServing());
  return report;
}

Result<FleetReport> RunWorkloadOnFleet(const WorkloadPlan& plan,
                                       const DetectorPool& base_pool,
                                       FleetOptions options,
                                       ChaosScript chaos) {
  std::vector<FleetStreamSpec> specs;
  specs.reserve(plan.sessions.size());
  for (const SessionPlan& session : plan.sessions) {
    specs.push_back(FleetStreamSpec{
        session.name, [&plan, &session, &base_pool] {
          return BuildWorkloadSession(plan, session, base_pool);
        }});
  }
  ShardedServer server(options);
  return server.Run(std::move(specs), std::move(chaos));
}

}  // namespace vqe
