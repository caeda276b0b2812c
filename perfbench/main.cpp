// perfbench: the repository's end-to-end benchmark (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --work <dir>
//
// Prints one `metric ...` line per measured quantity and, last, one JSON
// object: the end-to-end metrics of BENCHMARK.json (--trace 0) or its
// per-layer metrics (--trace 1). Exits non-zero without a result line on
// any error.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// BENCHMARK.json's per_layer list, in its order.
const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> m = {
      {"graph.load_s", "s"},
      {"sparsify.grass_s", "s"},
      {"core.setup_s", "s"},
      {"core.update_s", "s"},
      {"core.inserted", "count"},
      {"core.merged", "count"},
      {"core.redistributed", "count"},
      {"core.reinforced", "count"},
      {"core.keep_frac", "ratio"},
      {"spectral.kappa_s", "s"},
      {"spectral.kappa_power_iters", "count"},
      {"solver.build_s", "s"},
      {"solver.solve_ms", "ms"},
      {"solver.outer_iters", "count"},
      {"solver.refresh_ms", "ms"},
      {"linalg.spmv_g_us", "us"},
      {"linalg.precond_us", "us"},
      {"linalg.vector_pass_us", "us"},
      {"linalg.spmv_bytes", "B"},
      {"linalg.accounted_frac", "ratio"},
      {"serve.session.apply_ms", "ms"},
      {"serve.session.rebuilds", "count"},
      {"serve.session.rebuild_frac", "ratio"},
      {"serve.session.ghosts", "count"},
      {"serve.engine.handle_us.insert", "us"},
      {"serve.engine.handle_us.remove", "us"},
      {"serve.engine.handle_us.apply", "us"},
      {"serve.engine.handle_us.solve", "us"},
      {"serve.transport.decode_us", "us"},
      {"serve.transport.queue_wait_us", "us"},
      {"serve.transport.gate_wait_us", "us"},
      {"serve.transport.execute_us", "us"},
      {"serve.transport.encode_us", "us"},
      {"serve.transport.write_drain_us", "us"},
      {"serve.checkpoint.ms", "ms"},
      {"serve.checkpoint.bytes", "B"},
      {"dist.rpc_block_solve_us", "us"},
      {"dist.rpc_shard_apply_us", "us"},
      {"dist.rpc_coupling_update_us", "us"},
      {"dist.rpc_bytes_per_solve", "B"},
      {"dist.rpc_retries", "count"},
      {"trace.overhead_frac", "ratio"},
      {"trace.unaccounted_frac", "ratio"},
  };
  return m;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper-update|solve-heavy|churn-sync\n"
               "                 --seed <n> --seconds <s> --trace <0|1> --work <dir>\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // report lines survive a crash
  Context ctx;
  std::vector<std::string> args(argv + 1, argv + argc);
  bool have_workload = false;
  for (std::size_t i = 0; i + 1 < args.size(); i += 2) {
    const std::string& flag = args[i];
    const std::string& value = args[i + 1];
    if (flag == "--workload") {
      ctx.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      ctx.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      ctx.trace = value == "1";
    } else if (flag == "--work") {
      ctx.work_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || args.size() % 2 != 0 || ctx.work_dir.empty() || !(ctx.seconds > 0))
    return usage();

  try {
    std::filesystem::create_directories(ctx.work_dir);
    Report rep;
    Result res;
    Layers layers;
    if (ctx.workload == "paper-update") {
      run_paper_update(ctx, rep, res, layers);
    } else {
      run_serving(ctx, rep, res, layers);
    }

    const bool e2e = !ctx.trace;
    rep.metric("setup_s", res.setup.median(), "s", res.setup.size(), e2e);
    rep.metric("op_ms_p50", res.op.median() * 1e3, "ms", res.op.size(), e2e);
    rep.metric("density", res.density, "ratio", 1, e2e);
    rep.metric("kappa_ratio", res.kappa_ratio, "ratio", 1, e2e);
    rep.metric("peak_rss_mb", peak_rss_mib(), "MiB", 1, e2e);
    if (ctx.trace) {
      for (const LayerMetric& m : layer_metrics()) {
        const auto it = layers.find(m.name);
        rep.metric(m.name, it == layers.end() ? 0.0 : it->second, m.unit, 1, true);
      }
    }
    std::fflush(stdout);
    std::printf("%s\n", rep.json_line().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
