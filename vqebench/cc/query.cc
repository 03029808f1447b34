// query: closed loop, one client. The client cycles through a seeded mix
// of ParseQuery + ExecuteQuery calls over small dataset replicas:
// COUNT/LIMIT with MES, TRACKS, BUDGET (MES-B) on bdd, WINDOW (SW-MES) on
// c&n, and some with QueryEngineOptions::skip. The executor is its own
// frame loop that runs only the selected models and scores only against
// REF, so this is the only workload that shows what a change to it costs
// queries.

#include <memory>

#include "common/rng.h"
#include "query/parser.h"
#include "sim/dataset.h"
#include "workloads.h"

namespace vqebench {
namespace {

/// Six query shapes, twelve of each. Replica scales give every shape about
/// 1,000 sampled frames, so no single shape dominates the latency
/// distribution.
constexpr size_t kMixSize = 72;
constexpr size_t kShapes = 6;
constexpr size_t kReplayFrames = 60;
/// Timing windows are this many whole passes over the mix (144 queries,
/// about 2.8 s), so every window runs the same queries.
constexpr size_t kPassesPerWindow = 2;
/// Tail percentile of one query: 14 of a window's queries lie beyond it.
constexpr double kTailPercentile = 90.0;

struct QuerySpec {
  std::string sql;
  vqe::QueryEngineOptions options;
};

std::vector<QuerySpec> MakeMix(uint64_t input) {
  static const char* kClasses[] = {"car", "pedestrian", "truck", "*"};
  vqe::Rng rng(vqe::HashCombine(0x9E3779B9ull, input));
  std::vector<QuerySpec> mix;
  for (size_t i = 0; i < kMixSize; ++i) {
    const std::string seed = std::to_string(1 + rng.Next() % 100000);
    const std::string cls = kClasses[rng.Next() % 4];
    const std::string k = std::to_string(1 + rng.Next() % 3);
    const std::string head = "SELECT frameID FROM (PROCESS ";
    const std::string produce = " PRODUCE frameID, Detections USING ";
    QuerySpec q;
    switch (i % kShapes) {
      case 0:
        q.sql = head + "nusc SCALE 0.024 SEED " + seed + produce +
                "MES(*; REF)) WHERE COUNT(*) >= 1 LIMIT 400";
        break;
      case 1:
        q.sql = head + "nusc-night SCALE 0.25 SEED " + seed + produce +
                "MES(*; REF)) WHERE TRACKS(" + cls + ") >= " + k;
        break;
      case 2:
        q.sql = head + "bdd SCALE 0.034 SEED " + seed + produce +
                "MES-B(*; REF)) WHERE COUNT(*) >= " + k + " BUDGET 30000";
        break;
      case 3:
        q.sql = head + "'c&n' SCALE 0.057 SEED " + seed + produce +
                "SW-MES(*; REF)) WHERE EXISTS(" + cls + ") WINDOW " +
                std::to_string(32 + rng.Next() % 96);
        break;
      case 4:
        q.sql = head + "nusc SCALE 0.024 SEED " + seed + produce +
                "MES(*; REF)) WHERE COUNT(" + cls + ") >= " + k;
        q.options.skip.mode = vqe::SkipMode::kBandit;
        q.options.skip.skip_budget = 4;
        break;
      default:
        q.sql = head + "nusc-rainy SCALE 0.11 SEED " + seed + produce +
                "MES(*; REF)) WHERE MAX_CONF(" + cls + ") >= 0.5";
        q.options.skip.mode = vqe::SkipMode::kDifficultyGated;
        q.options.skip.skip_budget = 3;
        break;
    }
    mix.push_back(std::move(q));
  }
  return mix;
}

struct Call {
  vqe::Status status;
  uint64_t digest = 0;
  size_t frames = 0;
  double parse_exec_ms = 0.0;
};

/// One parse + execute; `replay_sample` adds a traced re-run of the
/// PROCESS clause's video sampling after the call.
Call RunOne(const QuerySpec& q, bool replay_sample) {
  Call call;
  const int64_t t0 = NowNs();
  vqe::Result<vqe::Query> parsed = [&] {
    Span span("query.parse");
    return vqe::ParseQuery(q.sql);
  }();
  if (!parsed.ok()) {
    call.status = parsed.status();
    return call;
  }
  vqe::Result<vqe::QueryOutput> output = [&] {
    Span span("query.exec");
    return vqe::ExecuteQuery(parsed.value(), q.options);
  }();
  call.parse_exec_ms = static_cast<double>(NowNs() - t0) / 1e6;
  if (!output.ok()) {
    call.status = output.status();
    return call;
  }
  Digest d;
  d.AddQuery(output.value());
  call.digest = d.value();
  call.frames = output.value().frames_processed;
  if (replay_sample) {
    const vqe::Query& query = parsed.value();
    vqe::SampleOptions sample;
    sample.scene_scale = query.process.scale > 0.0 ? query.process.scale
                                                   : q.options.scene_scale;
    sample.seed = query.process.seed > 0 ? query.process.seed : q.options.seed;
    Span span("sim.sample");
    (void)vqe::SampleVideo(
        **vqe::DatasetCatalog::Default().Find(query.video_name), sample);
  }
  return call;
}

struct Phase {
  /// Complete windows, or one partial window when the run was shorter.
  std::vector<Window> windows;
  double frames = 0.0;
  double seconds = 0.0;
};

/// Cycles through the mix until `seconds` elapsed and at least one full
/// pass is done. A query's first call records its digest in `expected`
/// (when empty there); every later call must reproduce it.
Phase RunPhase(const std::vector<QuerySpec>& mix,
               std::vector<uint64_t>* expected, bool replay_sample,
               double seconds, Outcome* out) {
  const bool record = expected->empty();
  if (record) expected->assign(mix.size(), 0);
  Phase phase;
  const int64_t start = NowNs();
  const size_t window_queries = kPassesPerWindow * mix.size();
  size_t i = 0;
  Window window;
  do {
    if (i > 0 && i % window_queries == 0) {
      phase.windows.push_back(std::move(window));
      window = Window();
    }
    const size_t q = i++ % mix.size();
    Tracer::SetRequest(q);
    const Call call = RunOne(mix[q], replay_sample);
    ++out->attempted;
    if (!call.status.ok()) {
      ++out->failed;
      out->notes.push_back("query " + std::to_string(q) + " failed: " +
                           call.status.ToString());
      continue;
    }
    phase.frames += static_cast<double>(call.frames);
    phase.seconds += call.parse_exec_ms / 1e3;
    window.latency_ms.push_back(call.parse_exec_ms);
    window.frames += static_cast<double>(call.frames);
    window.busy_ms += call.parse_exec_ms;
    if (record && i <= mix.size()) {
      (*expected)[q] = call.digest;
    } else if (call.digest != (*expected)[q]) {
      out->Fail("query " + std::to_string(q) + " output changed between calls");
      break;
    }
  } while (i < mix.size() ||
           static_cast<double>(NowNs() - start) / 1e9 < seconds);
  if (i % window_queries == 0 || phase.windows.empty()) {
    phase.windows.push_back(std::move(window));
  }
  return phase;
}

}  // namespace

void RunQuery(const Args& args, Outcome* out) {
  std::vector<QuerySpec> mix;
  // Set-up: build the mix and warm up with one query of each shape, taken
  // from a mix that is the same for every seed.
  const double setup_s = MedianSetupSeconds(
      args.trace || args.record ? 1 : kSetupRepeats, [&] {
        mix = MakeMix(args.input());
        const std::vector<QuerySpec> warm = MakeMix(kInputSets);
        for (size_t q = 0; q < kShapes; ++q) (void)RunOne(warm[q], false);
      });
  // The first pass of the first phase records each query's digest; the
  // digest over the whole mix must equal the recorded one.
  std::vector<uint64_t> expected;
  auto check_mix = [&] {
    Digest mix_digest;
    for (const uint64_t d : expected) mix_digest.Add(d);
    CheckRecordedDigest(args, mix_digest.Hex(), out);
  };
  if (args.record) {
    RunPhase(mix, &expected, false, 0.0, out);
    check_mix();
    return;
  }
  out->notes.push_back("query: mix of " + std::to_string(mix.size()) +
                       " queries over small replicas, one client");
  if (!args.trace) {
    Phase phase = RunPhase(mix, &expected, false, args.seconds, out);
    check_mix();
    out->metrics["setup_s"] = setup_s;
    SetWindowedTimings(phase.windows, kTailPercentile, "one parse + execute",
                       out);
    return;
  }

  Phase plain = RunPhase(mix, &expected, false, args.seconds * 0.4, out);
  check_mix();
  Tracer::Reset();
  Tracer::Enable(true);
  Phase traced = RunPhase(mix, &expected, true, args.seconds * 0.4, out);
  Tracer::Enable(false);
  const auto totals = Tracer::Collect();
  auto get = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? LayerTotals{} : it->second;
  };
  const LayerTotals parse = get("query.parse");
  const LayerTotals exec = get("query.exec");
  const LayerTotals sample = get("sim.sample");
  auto& m = out->metrics;
  m["query.parse_us"] = parse.incl_ns / 1e3 / static_cast<double>(parse.count);
  m["query.exec_ms"] = exec.incl_ns / 1e6 / static_cast<double>(exec.count);
  m["sim.sample_ms"] =
      sample.incl_ns / 1e6 / static_cast<double>(sample.count);
  m["query.self_ms_per_frame"] =
      (exec.incl_ns - sample.incl_ns) / 1e6 / traced.frames;
  m["trace.overhead_ratio"] =
      (traced.frames / traced.seconds) / (plain.frames / plain.seconds);
  const vqe::Status written =
      Tracer::WriteChromeTrace(std::string(kTraceDir) + "/trace-query.json");
  if (!written.ok()) out->Fail("chrome trace: " + written.ToString());

  // Fusion/AP replay on the first query's replica with its default pool.
  Tracer::Reset();
  Tracer::Enable(true);
  auto query = vqe::ParseQuery(mix[0].sql);
  vqe::SampleOptions sample_opts;
  sample_opts.scene_scale = query.value().process.scale;
  sample_opts.seed = query.value().process.seed;
  auto video = vqe::SampleVideo(
      **vqe::DatasetCatalog::Default().Find(query.value().video_name),
      sample_opts);
  auto pool = vqe::BuildPoolForDataset(query.value().video_name);
  if (!video.ok() || !pool.ok() ||
      !ReplayFusionAndAp(video.value(), pool.value(), 4242, kReplayFrames)) {
    out->Fail("fusion/AP replay differs from the program's evaluator");
  }
  Tracer::Enable(false);
  SetReplayMetrics(out);
}

}  // namespace vqebench
