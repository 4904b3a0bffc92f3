// The three workloads. Each fills an Outcome: the end-to-end metrics in an
// untraced run, the per-layer metrics in a traced one.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "bench.h"

namespace perfbench {

/// default-plan-serial and joint-plan-pool4.
void RunSearchWorkload(const Args& args, Outcome* outcome);

/// daemon-churn.
void RunDaemonChurn(const Args& args, Outcome* outcome);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
