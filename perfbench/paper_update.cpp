// paper-update: the paper's incremental protocol (Algorithm 1) at library
// level on the G2_circuit analog at scale 16. One episode = GRASS builds
// H(0) at off-tree density 0.10, the inGRASS setup phase runs at kappa
// budget 100 (together: one setup_s sample), then the 10-batch
// make_edge_stream (0.24*N edges in total) streams through the update
// phase (one op sample per batch). Episodes repeat for the measured
// window; every episode must end on a bit-identical H. One more episode on
// the canonical stream (fixed seed) gives the quality numbers — density
// and kappa(L_G, L_H), measured once per run — and is what a traced run
// replays, so quality and counts repeat exactly whatever the run seed.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "core/edge_stream.hpp"
#include "core/ingrass.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/mtx_io.hpp"
#include "sparsify/density.hpp"
#include "sparsify/grass.hpp"
#include "spectral/condition_number.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ingrass;

Graph g2_analog(double scale) {
  Rng rng(0xC0FFEE);
  return make_paper_testcase("G2_circuit", scale, rng);
}

namespace {

constexpr double kScale = 16.0;
constexpr double kDensity = 0.10;
constexpr double kBudget = 100.0;
constexpr std::uint64_t kCanonicalSeed = 2024;  // the paper protocol's stream seed
// One update pass is only ~30 ms of work; this many episodes keep the
// per-run median steady even when the window is shorter.
constexpr int kMinEpisodes = 16;

/// Order-sensitive digest of a graph's edge list (bit patterns of the
/// weights included): equal digests <=> identical sparsifiers in practice.
std::uint64_t digest(const Graph& h) {
  std::uint64_t d = 1469598103934665603ULL;
  auto mix = [&d](std::uint64_t x) { d = (d ^ x) * 1099511628211ULL; };
  mix(static_cast<std::uint64_t>(h.num_nodes()));
  for (const Edge& e : h.edges()) {
    mix(static_cast<std::uint64_t>(e.u));
    mix(static_cast<std::uint64_t>(e.v));
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof e.w);
    std::memcpy(&bits, &e.w, sizeof bits);
    mix(bits);
  }
  return d;
}

struct Episode {
  double setup_s = 0.0;
  std::vector<double> batch_s;
  double pass_s = 0.0;
  Ingrass::UpdateStats counts;  // summed over the stream
  std::unique_ptr<Ingrass> engine;
};

/// One GRASS + setup + update pass. With a tracer, each library call is a
/// span under `parent`.
Episode run_episode(const Graph& g, const std::vector<std::vector<Edge>>& stream,
                    Tracer* tr, int parent) {
  Episode ep;
  GrassOptions gopts;
  gopts.target_offtree_density = kDensity;
  Ingrass::Options iopts;
  iopts.target_condition = kBudget;

  const Clock::time_point t0 = Clock::now();
  if (tr) {
    Graph h0;
    {
      Tracer::Scope s(*tr, "L3.sparsify.grass", parent);
      h0 = grass_sparsify(g, gopts).sparsifier;
    }
    Tracer::Scope s(*tr, "L3.core.setup", parent);
    ep.engine = std::make_unique<Ingrass>(std::move(h0), iopts);
  } else {
    ep.engine = std::make_unique<Ingrass>(grass_sparsify(g, gopts).sparsifier, iopts);
  }
  ep.setup_s = seconds_since(t0);

  for (const auto& batch : stream) {
    const Clock::time_point b0 = Clock::now();
    Ingrass::UpdateStats st;
    if (tr) {
      Tracer::Scope s(*tr, "L3.core.update", parent);
      st = ep.engine->insert_edges(batch);
    } else {
      st = ep.engine->insert_edges(batch);
    }
    const double dt = seconds_since(b0);
    ep.batch_s.push_back(dt);
    ep.pass_s += dt;
    ep.counts.inserted += st.inserted;
    ep.counts.merged += st.merged;
    ep.counts.redistributed += st.redistributed;
    ep.counts.reinforced += st.reinforced;
  }
  return ep;
}

}  // namespace

void run_paper_update(const Context& ctx, Report& rep, Result& res, Layers& layers) {
  // Generated inputs: the graph file and the seeded insertion stream.
  const std::string g_path = ctx.work_dir + "/g.mtx";
  write_mtx_file(g_path, g2_analog(kScale));
  const Graph g = read_mtx_file(g_path);
  auto make_stream = [&g](std::uint64_t seed) {
    EdgeStreamOptions sopts;  // paper protocol: 10 batches, 0.24*N edges
    sopts.seed = seed;
    return make_edge_stream(g, sopts);
  };
  const std::vector<std::vector<Edge>> stream = make_stream(ctx.seed);
  std::size_t edges = 0;
  for (const auto& b : stream) edges += b.size();
  rep.note("paper-update: G2_circuit analog scale 16, n=" + std::to_string(g.num_nodes()) +
           " m=" + std::to_string(g.num_edges()) + ", stream " + std::to_string(stream.size()) +
           " batches / " + std::to_string(edges) + " edges");

  // Measured window: repeat whole episodes; each must end on the same H.
  std::uint64_t ref_digest = 0;
  Ingrass::UpdateStats ref_counts;
  Samples pass_s;
  const Clock::time_point w0 = Clock::now();
  for (int e = 0; e < kMinEpisodes || seconds_since(w0) < ctx.seconds; ++e) {
    const Episode ep = run_episode(g, stream, nullptr, -1);
    res.setup.add(ep.setup_s);
    for (double s : ep.batch_s) res.op.add(s);
    res.rate.add(static_cast<double>(edges) / ep.pass_s);
    pass_s.add(ep.pass_s);
    const std::uint64_t d = digest(ep.engine->sparsifier());
    if (e == 0) {
      ref_digest = d;
      ref_counts = ep.counts;
    } else if (d != ref_digest || ep.counts.inserted != ref_counts.inserted ||
               ep.counts.merged != ref_counts.merged ||
               ep.counts.redistributed != ref_counts.redistributed) {
      rep.mismatch("paper-update episode " + std::to_string(e) + " ended on a different H");
    }
  }
  rep.attempts(res.op.size(), 0);

  // The canonical episode and the quality of its final pair.
  const std::vector<std::vector<Edge>> canon_stream = make_stream(kCanonicalSeed);
  const Episode canon = run_episode(g, canon_stream, nullptr, -1);
  Graph g_final = g;
  for (const auto& b : canon_stream)
    for (const Edge& e : b) g_final.add_or_merge_edge(e.u, e.v, e.w);
  const Graph& h = canon.engine->sparsifier();
  Tracer tr(ctx.trace);
  ConditionNumberResult kappa;
  {
    Tracer::Scope s(tr, "L3.spectral.kappa");
    kappa = relative_condition_number(g_final, h);
  }
  res.density = offtree_density(h);
  res.kappa_ratio = kappa.kappa / kBudget;

  rep.check(h.num_nodes() == g.num_nodes(), "H spans G's node set");
  rep.check(is_connected(h), "H is connected");
  bool subgraph = true;
  for (const Edge& e : h.edges()) subgraph = subgraph && g_final.has_edge(e.u, e.v);
  rep.check(subgraph, "every H edge is an edge of G");
  rep.check(std::isfinite(kappa.kappa) && kappa.kappa >= 1.0, "kappa(L_G, L_H) finite and >= 1");

  rep.metric("update_us_per_edge", 1e6 / res.rate.median(), "us", res.rate.size(), false);
  rep.note("update pass median " + fmt(pass_s.median() * 1e3) + " ms over " +
           std::to_string(pass_s.size()) + " episodes; canonical kappa " + fmt(kappa.kappa));

  if (!ctx.trace) return;

  // Traced replay: the canonical episode with a span around every library
  // call. The library is this workload's client-facing layer, so the
  // traced pass time against the untraced canonical pass is the tracing
  // overhead (medians of three each).
  Samples untraced_pass, traced_pass;
  untraced_pass.add(canon.pass_s);
  for (int e = 0; e < 2; ++e) untraced_pass.add(run_episode(g, canon_stream, nullptr, -1).pass_s);
  Episode last;
  for (int e = 0; e < 3; ++e) {
    Tracer::Scope ep_span(tr, "L3.episode");
    {
      Tracer::Scope s(tr, "L3.graph.load", ep_span.id());
      (void)read_mtx_file(g_path);
    }
    last = run_episode(g, canon_stream, &tr, ep_span.id());
    traced_pass.add(last.pass_s);
  }
  if (digest(last.engine->sparsifier()) != digest(h))
    rep.mismatch("paper-update traced replay ended on a different H");

  const double episodes = 3.0;
  layers["graph.load_s"] = tr.total("L3.graph.load") / episodes;
  layers["sparsify.grass_s"] = tr.total("L3.sparsify.grass") / episodes;
  layers["core.setup_s"] = tr.total("L3.core.setup") / episodes;
  layers["core.update_s"] = tr.total("L3.core.update") / episodes;
  layers["core.inserted"] = static_cast<double>(last.counts.inserted);
  layers["core.merged"] = static_cast<double>(last.counts.merged);
  layers["core.redistributed"] = static_cast<double>(last.counts.redistributed);
  layers["core.reinforced"] = static_cast<double>(last.counts.reinforced);
  layers["core.keep_frac"] =
      static_cast<double>(last.counts.inserted) / static_cast<double>(last.counts.total());
  layers["spectral.kappa_s"] = tr.total("L3.spectral.kappa");
  layers["spectral.kappa_power_iters"] = kappa.iterations_max + kappa.iterations_min;
  layers["trace.overhead_frac"] = traced_pass.median() / untraced_pass.median() - 1.0;
  rep.note("canonical update pass median: traced " + fmt(traced_pass.median() * 1e3) +
           " ms, untraced " + fmt(untraced_pass.median() * 1e3) + " ms");
  const double wall = tr.total("L3.episode");
  const double covered =
      tr.total("L3.graph.load") + tr.total("L3.sparsify.grass") + tr.total("L3.core.setup") +
      tr.total("L3.core.update");
  layers["trace.unaccounted_frac"] = (wall - covered) / wall;
  tr.write_json(ctx.work_dir + "/trace-paper-update.json");
}

}  // namespace perfbench
