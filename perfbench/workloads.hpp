#pragma once

// The three perfbench workloads. Each one generates its inputs from the
// run's seed, drives the program for the run's measured window, checks
// the outputs, and fills a Result (end-to-end samples) plus, in a traced
// run, the per-layer values.

#include <map>
#include <string>

#include "bench.hpp"
#include "graph/graph.hpp"

namespace perfbench {

/// End-to-end outcome of one run, reduced to BENCHMARK.json's metrics by
/// main(): setup_s = median(setup), op_ms_p50 = median(op) in ms, plus the
/// two sparsifier-quality numbers. `rate` feeds each workload's own
/// throughput line (update_us_per_edge, commands_per_s).
struct Result {
  Samples setup;  ///< seconds per set-up (library ctor or open round trip)
  Samples op;     ///< seconds per primary operation (see README.md)
  Samples rate;   ///< primary work units per second, one sample per episode
  double density = 0.0;      ///< off-tree density of the final H
  double kappa_ratio = 0.0;  ///< measured kappa(L_G, L_H) / kappa budget
};

/// Per-layer values by BENCHMARK.json name; layers a workload bypasses
/// are absent and reported as 0.
using Layers = std::map<std::string, double>;

/// G2_circuit analog at `scale` (fixed graph seed: the graph is the same
/// for every run seed; the seed drives the streams, pairs and batches).
[[nodiscard]] ingrass::Graph g2_analog(double scale);

void run_paper_update(const Context& ctx, Report& rep, Result& res, Layers& layers);
void run_serving(const Context& ctx, Report& rep, Result& res, Layers& layers);

}  // namespace perfbench
