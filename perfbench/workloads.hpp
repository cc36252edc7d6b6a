// The four perfbench workloads. Every workload measures every end-to-end
// metric (README.md says what each one means on each workload); the per-layer
// metrics come from the traced pass.

#ifndef PERFBENCH_WORKLOADS_HPP_
#define PERFBENCH_WORKLOADS_HPP_

#include <string>

#include "phases.hpp"

namespace perfbench {

/// Runs workload `name` for one pass; false when the name is unknown.
bool RunWorkload(const std::string& name, RunContext* ctx);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP_
