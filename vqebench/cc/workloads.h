// The four benchmark workloads. Each builds its inputs from the seed in
// `args`, measures for args.seconds, checks the program's outputs, and
// fills `out` with the end-to-end metrics (args.trace == false) or the
// per-layer metrics of a separate traced run (args.trace == true).

#ifndef VQEBENCH_WORKLOADS_H_
#define VQEBENCH_WORKLOADS_H_

#include "common.h"

namespace vqebench {

/// Closed loop, one caller: EngineRun stepped frame by frame over a
/// LazyFrameEvaluator on a full-size nusc video (m=5, WBF, MES, no
/// regret).
void RunIngest(const Args& args, Outcome* out);

/// Batch: RunExperiment with the Figure 4 line-up, regret on, eager
/// lattice, trials spread over every hardware thread.
void RunExperimentWorkload(const Args& args, Outcome* out);

/// Open loop: streams arrive on a seeded schedule into one
/// StreamScheduler.
void RunServe(const Args& args, Outcome* out);

/// Closed loop, one client: a seeded mix of ParseQuery + ExecuteQuery.
void RunQuery(const Args& args, Outcome* out);

}  // namespace vqebench

#endif  // VQEBENCH_WORKLOADS_H_
