// The traced run: per-layer metrics, measured from outside the program
// by timing calls into each layer's public entry point on the same
// arrivals — compile_query_shared, Session, MultiQueryRunner driven
// directly (with MultiQueryRunner::snapshot at the checkpoint cadence),
// each query's PatternEngine built with make_engine, and
// metrics_snapshot()/metrics_text().
#pragma once

#include "reference.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace sessionbench {

// Repeats rounds of passes (Session untraced, metrics off, traced;
// runner; standalone engines; for checkpointing workloads the Session
// without checkpoints) until `seconds` have passed, at least twice, and
// reports medians over rounds. Every pass's output is checked.
Report run_layers(const Workload& w, const Inputs& in, const Reference& ref, double seconds,
                  Tracer& tracer);

}  // namespace sessionbench
