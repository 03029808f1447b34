// vqe_bench: one seeded benchmark workload per invocation.
//
//   vqe_bench --workload ingest|experiment|serve|query --seed N
//             --seconds S --trace 0|1 [--digests PATH] [--record]
//
// Prints notes, then one JSON line with `correct`, `attempted`, `failed`
// and `metrics` (every end-to-end metric with --trace 0, every per-layer
// metric with --trace 1; a per-layer metric a workload does not exercise
// reads 0). Exits 1 when an output is wrong, 2 on bad arguments, and 3
// without a result line when a metric could not be measured as defined.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: vqe_bench --workload ingest|experiment|serve|query "
               "--seed N --seconds S --trace 0|1 [--digests PATH] "
               "[--record]\n");
  return 2;
}

void PrintResult(const vqebench::Outcome& out, bool trace) {
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  const auto& names =
      trace ? vqebench::PerLayerMetrics() : vqebench::EndToEndMetrics();
  bool first = true;
  for (const auto& [name, unit] : names) {
    const auto it = out.metrics.find(name);
    double value = it == out.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  vqebench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (flag == "--digests" && has_value) {
      args.digests = argv[++i];
    } else if (flag == "--record") {
      args.record = true;
    } else {
      return Usage();
    }
  }
  if (args.seconds <= 0.0) return Usage();

  vqebench::Outcome out;
  if (args.workload == "ingest") {
    vqebench::RunIngest(args, &out);
  } else if (args.workload == "experiment") {
    vqebench::RunExperimentWorkload(args, &out);
  } else if (args.workload == "serve") {
    vqebench::RunServe(args, &out);
  } else if (args.workload == "query") {
    vqebench::RunQuery(args, &out);
  } else {
    return Usage();
  }
  if (args.record) return out.correct ? 0 : 1;
  if (!args.trace) out.metrics["peak_rss_mb"] = vqebench::PeakRssMb();
  if (out.attempted == 0) out.Fail("no operation was attempted");
  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  if (!out.measured) {
    std::fflush(stdout);
    return 3;
  }
  PrintResult(out, args.trace);
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
