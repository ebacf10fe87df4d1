// The untraced run: end-to-end metrics of the workload's Session.
#pragma once

#include "reference.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace sessionbench {

// Discards a warm-up run, then repeats the Session run until `seconds`
// have passed (at least three times) and reports medians over the
// repetitions. Every run's output is checked: the first against the
// reference, the rest against the first; a sharded workload's ordered
// output must also equal its single-shard run.
Report run_end_to_end(const Workload& w, const Inputs& in, const Reference& ref,
                      double seconds);

}  // namespace sessionbench
