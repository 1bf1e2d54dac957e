#ifndef WALLBENCH_WORKLOADS_H_
#define WALLBENCH_WORKLOADS_H_

#include "harness.h"

namespace wallbench {

/// `job`. Returns the exit code.
int RunJob(const Args& args);

/// `server-mix`. Returns the exit code.
int RunServerMix(const Args& args);

}  // namespace wallbench

#endif  // WALLBENCH_WORKLOADS_H_
