// The two serving workloads — solve-heavy and churn-sync — driven as
// closed-loop clients against the event-loop TCP server hosted in this
// process. Each workload is a per-episode plan: one command script per
// client, from `open` to `close`. Episodes repeat for the measured window;
// scripts that repeat must reproduce every response field bit for bit.
//
// After the window, one canonical episode (fixed seed, plus checkpoint /
// kappa / metrics probes) gives the quality numbers. A traced run then
// replays that canonical episode one layer down at a time, with a span
// around every call:
//   L0 client round trip (TCP + binary codec)  "L0.<verb>"
//   L1 serve::Engine::handle, no transport     "L1.<verb>"
//   L2 serve::Session calls                    "L2.<verb>"
//   L3 library calls (SparsifierSolver, GRASS, Ingrass, linalg kernels)
//      on the same matrices the L2 session held.
// Every level must return the same responses as the untraced canonical
// episode. On churn-sync the traced run also replays client 0's script on
// an open-dist tenant over a 2-shard fleet ("D2.<verb>"): the dist layer.
//
// Distributed serving has no timed workload of its own: on a 4-vCPU VM its
// loopback-RPC-bound solves drift by 17-36% (interquartile range over run
// seeds) from minute to minute, up to and past the widest regression bound.

#include <cmath>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <variant>

#include "core/edge_stream.hpp"
#include "core/ingrass.hpp"
#include "dist/dist_session.hpp"
#include "dist/fleet.hpp"
#include "graph/mtx_io.hpp"
#include "linalg/cg.hpp"
#include "linalg/precond32.hpp"
#include "obs/registry.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "serve/transport.hpp"
#include "sparsify/grass.hpp"
#include "spectral/condition_number.hpp"
#include "spectral/laplacian.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ingrass;
namespace sv = ingrass::serve;

namespace {

// ---- workload shapes --------------------------------------------------------

enum class Kind { kSolveHeavy, kChurnSync };

struct Shape {
  Kind kind;
  double scale;        // G2_circuit analog scale
  int clients;         // closed-loop client threads, one tenant each
  int server_workers;  // event-loop worker threads
  const char* op_verb; // the primary operation (op_ms_p50)
  int min_episodes;    // timed episodes even when the window is shorter
};

Shape shape_of(const std::string& workload) {
  if (workload == "solve-heavy") return {Kind::kSolveHeavy, 4.0, 1, 1, "solve", 3};
  if (workload == "churn-sync") return {Kind::kChurnSync, 1.0, 2, 2, "apply", 6};
  throw std::invalid_argument("unknown workload " + workload);
}

constexpr int kSetupReps = 3;          // extra open/close pairs before the window
constexpr int kSolvesPerEpisode = 5;   // solve-heavy
constexpr int kChurnRounds = 40;       // churn-sync rounds per episode
constexpr int kChurnBatch = 32;        // churn-sync inserts per round
constexpr int kChurnSolveEvery = 10;
constexpr std::uint64_t kCanonicalSeed = 2024;  // the paper protocol's stream seed

// ---- scripts ----------------------------------------------------------------

/// Graph the benchmark expects a solve to run against, for the oracle.
struct SolveRef {
  std::shared_ptr<const Graph> g;
  NodeId u = 0;
  NodeId v = 0;
};

struct Script {
  std::vector<sv::Request> steps;
  std::map<std::size_t, SolveRef> solves;  // step index -> expected system
};

struct Plan {
  std::vector<Script> clients;
};

std::string verb_of(const sv::Request& r) {
  return std::visit(
      [](const auto& q) -> std::string {
        using T = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<T, sv::req::Open>) return "open";
        else if constexpr (std::is_same_v<T, sv::req::OpenDist>) return "open";
        else if constexpr (std::is_same_v<T, sv::req::Insert>) return "insert";
        else if constexpr (std::is_same_v<T, sv::req::Remove>) return "remove";
        else if constexpr (std::is_same_v<T, sv::req::Apply>) return "apply";
        else if constexpr (std::is_same_v<T, sv::req::Solve>) return "solve";
        else if constexpr (std::is_same_v<T, sv::req::Kappa>) return "kappa";
        else if constexpr (std::is_same_v<T, sv::req::Metrics>) return "metrics";
        else if constexpr (std::is_same_v<T, sv::req::Checkpoint>) return "checkpoint";
        else if constexpr (std::is_same_v<T, sv::req::Close>) return "close";
        else if constexpr (std::is_same_v<T, sv::req::Quit>) return "quit";
        else return "other";
      },
      r);
}

/// Builds every script of a run from the seed; the program under test
/// sees only the resulting commands and the graph file.
class Planner {
 public:
  Planner(const Context& ctx, const Shape& shape) : ctx_(ctx), shape_(shape) {
    g_path_ = ctx.work_dir + "/g.mtx";
    write_mtx_file(g_path_, g2_analog(shape.scale));
    g0_ = std::make_shared<const Graph>(read_mtx_file(g_path_));
    spec_.sync = shape.kind == Kind::kChurnSync;  // serving defaults otherwise
  }

  [[nodiscard]] const Graph& graph() const { return *g0_; }
  [[nodiscard]] const std::string& graph_path() const { return g_path_; }
  [[nodiscard]] const sv::SessionSpec& spec() const { return spec_; }
  /// solve-heavy draws fresh pairs for every episode, from (seed, e);
  /// churn-sync replays one script, whose responses must then repeat.
  [[nodiscard]] bool fresh() const { return shape_.kind == Kind::kSolveHeavy; }

  /// Timed episode e.
  [[nodiscard]] Plan episode(int e) const {
    const std::uint64_t seed = fresh() ? ctx_.seed * 1000033ULL + static_cast<std::uint64_t>(e) : ctx_.seed;
    Plan p;
    for (int c = 0; c < shape_.clients; ++c) p.clients.push_back(client_script(c, seed, false));
    return p;
  }

  /// A bare open + close on client 0's tenant: extra set-up samples.
  [[nodiscard]] Plan setup_probe() const {
    Script s;
    s.steps.push_back(open("t0"));
    s.steps.push_back(sv::req::Close{"t0"});
    return Plan{{s}};
  }

  /// The canonical episode, run once after the measured window: the same
  /// shape from a fixed seed, plus the end-of-run probes (checkpoint,
  /// kappa, metrics). Quality and count metrics come from it, so they
  /// repeat exactly across runs of one commit whatever the run seed.
  [[nodiscard]] Plan canonical() const {
    Plan p;
    for (int c = 0; c < shape_.clients; ++c) p.clients.push_back(client_script(c, kCanonicalSeed, true));
    return p;
  }

  /// The canonical script of client 0 on an `open-dist` tenant over
  /// `endpoints`, without the end-of-run probes: the dist layer's replay.
  [[nodiscard]] Plan dist_replay(const std::vector<std::string>& endpoints) const {
    Script s = client_script(0, kCanonicalSeed, false);
    sv::req::OpenDist r;
    r.name = "t0";
    r.path = g_path_;
    r.endpoints = endpoints;
    r.spec = spec_;
    r.dir = ctx_.work_dir;
    s.steps.front() = r;
    return Plan{{s}};
  }

 private:
  [[nodiscard]] sv::Request open(const std::string& tenant) const {
    return sv::req::Open{tenant, g_path_, spec_};
  }

  [[nodiscard]] static std::uint64_t client_seed(std::uint64_t seed, int c) {
    return seed * 1000003ULL + static_cast<std::uint64_t>(c) * 7919ULL + 17ULL;
  }

  /// One client's script: open, the workload's commands, optionally the
  /// end-of-run probes, close.
  [[nodiscard]] Script client_script(int c, std::uint64_t seed, bool probes) const {
    const std::string tenant = "t" + std::to_string(c);
    Script s;
    s.steps.push_back(open(tenant));
    const NodeId n = g0_->num_nodes();
    if (shape_.kind == Kind::kSolveHeavy) {
      // Fresh random pairs: consecutive right-hand sides have cosine <= 0.5,
      // far below the warm-start threshold, so warm start never hits.
      Rng rng(client_seed(seed, c));
      // The canonical episode keeps one solve: its kappa probe is the
      // expensive part at this size.
      for (int i = 0; i < (probes ? 1 : kSolvesPerEpisode); ++i) {
        const auto u = static_cast<NodeId>(rng.uniform_index(static_cast<std::uint64_t>(n / 2)));
        const auto v = static_cast<NodeId>(n / 2 + rng.uniform_index(static_cast<std::uint64_t>(n - n / 2)));
        s.solves[s.steps.size()] = SolveRef{g0_, u, v};
        s.steps.push_back(sv::req::Solve{tenant, u, v});
      }
      if (probes) {
        s.steps.push_back(sv::req::Kappa{tenant});
        s.steps.push_back(sv::req::Metrics{tenant});
      }
      s.steps.push_back(sv::req::Close{tenant});
      return s;
    }

    EdgeStreamOptions sopts;  // locality-heavy, as in the paper's streams
    sopts.iterations = kChurnRounds;
    sopts.total_per_node = static_cast<double>(kChurnRounds * kChurnBatch) / static_cast<double>(n);
    sopts.seed = client_seed(seed, c);
    const std::vector<std::vector<Edge>> stream = make_edge_stream(*g0_, sopts);
    Rng pairs(client_seed(seed, c) ^ 0x5eedULL);
    Graph g = *g0_;  // the graph the session should hold, for the oracle
    for (int r = 0; r < kChurnRounds; ++r) {
      const auto& ins = stream[static_cast<std::size_t>(r)];
      std::vector<std::pair<NodeId, NodeId>> rem;
      if (r >= 2) {
        const auto& old = stream[static_cast<std::size_t>(r - 2)];
        for (std::size_t i = 0; i < old.size() / 4; ++i) rem.emplace_back(old[i].u, old[i].v);
      }
      for (const Edge& e : ins) s.steps.push_back(sv::req::Insert{tenant, e.u, e.v, e.w});
      for (const auto& [u, v] : rem) s.steps.push_back(sv::req::Remove{tenant, u, v});
      s.steps.push_back(sv::req::Apply{tenant});
      // Session semantics: removals first, then inserts (merging parallels).
      for (const auto& [u, v] : rem) {
        const EdgeId id = g.find_edge(u, v);
        if (id != kInvalidEdge) g.remove_edge(id);
      }
      for (const Edge& e : ins) g.add_or_merge_edge(e.u, e.v, e.w);
      if ((r + 1) % kChurnSolveEvery == 0) {
        const auto u = static_cast<NodeId>(pairs.uniform_index(static_cast<std::uint64_t>(n)));
        auto v = static_cast<NodeId>(pairs.uniform_index(static_cast<std::uint64_t>(n)));
        if (v == u) v = (u + 1) % n;
        s.solves[s.steps.size()] = SolveRef{std::make_shared<const Graph>(g), u, v};
        s.steps.push_back(sv::req::Solve{tenant, u, v});
      }
    }
    if (probes) {
      s.steps.push_back(sv::req::Checkpoint{tenant, ctx_.work_dir + "/" + tenant + ".ckpt"});
      s.steps.push_back(sv::req::Kappa{tenant});
      s.steps.push_back(sv::req::Metrics{tenant});
    }
    s.steps.push_back(sv::req::Close{tenant});
    return s;
  }

  const Context& ctx_;
  Shape shape_;
  std::string g_path_;
  std::shared_ptr<const Graph> g0_;
  sv::SessionSpec spec_;
};

// ---- outcomes ---------------------------------------------------------------

/// The deterministic content of one response, compared across episodes
/// and replay levels.
struct Outcome {
  bool ok = false;
  std::string error;
  std::vector<double> key;
  int iterations = 0;
  double resistance = 0.0;
  friend bool operator==(const Outcome& a, const Outcome& b) {
    return a.ok == b.ok && a.key == b.key;
  }
};

std::vector<double> metrics_key(const sv::ServingMetrics& m) {
  const SessionCounters& c = m.counters;
  return {static_cast<double>(m.nodes),           static_cast<double>(m.g_edges),
          static_cast<double>(m.h_edges),         static_cast<double>(c.rebuilds),
          static_cast<double>(c.removals_pending), static_cast<double>(c.inserted),
          static_cast<double>(c.merged),          static_cast<double>(c.redistributed),
          static_cast<double>(c.reinforced),      static_cast<double>(c.solves)};
}

Outcome applied(const ApplyResult& a) {
  Outcome o;
  o.ok = true;
  o.key = {static_cast<double>(a.stats.inserted), static_cast<double>(a.stats.merged),
           static_cast<double>(a.stats.redistributed), static_cast<double>(a.stats.reinforced),
           static_cast<double>(a.removed), static_cast<double>(a.ghost_removals),
           a.staleness, a.rebuild_triggered ? 1.0 : 0.0};
  return o;
}

Outcome solved(int iterations, double residual, double resistance) {
  Outcome o;
  o.ok = true;
  o.iterations = iterations;
  o.resistance = resistance;
  o.key = {static_cast<double>(iterations), residual, resistance};
  return o;
}

Outcome outcome_of(const sv::Response& response) {
  return std::visit(
      [](const auto& r) -> Outcome {
        using T = std::decay_t<decltype(r)>;
        Outcome o;
        o.ok = true;
        if constexpr (std::is_same_v<T, sv::resp::Error>) {
          o.ok = false;
          o.error = r.message;
        } else if constexpr (std::is_same_v<T, sv::resp::Busy>) {
          o.ok = false;
          o.error = "busy " + r.what;
        } else if constexpr (std::is_same_v<T, sv::resp::Opened>) {
          o.key = {static_cast<double>(r.metrics.g_edges), static_cast<double>(r.metrics.h_edges)};
        } else if constexpr (std::is_same_v<T, sv::resp::Staged>) {
          o.key = {static_cast<double>(r.inserts), static_cast<double>(r.removals)};
        } else if constexpr (std::is_same_v<T, sv::resp::Applied>) {
          o.key = {static_cast<double>(r.inserted), static_cast<double>(r.merged),
                   static_cast<double>(r.redistributed), static_cast<double>(r.reinforced),
                   static_cast<double>(r.removed), static_cast<double>(r.ghosts),
                   r.staleness, r.rebuild ? 1.0 : 0.0};
        } else if constexpr (std::is_same_v<T, sv::resp::Solved>) {
          o = solved(r.iterations, r.residual, r.resistance);
        } else if constexpr (std::is_same_v<T, sv::resp::MetricsOut>) {
          o.key = metrics_key(r.metrics);
        } else if constexpr (std::is_same_v<T, sv::resp::KappaOut>) {
          o.key = {r.value, r.target};
        }
        return o;
      },
      response);
}

// ---- callers: one per replay level ------------------------------------------

class Caller {
 public:
  virtual ~Caller() = default;
  virtual Outcome run(const sv::Request& request) = 0;
  /// Called after the step's span closed (bookkeeping kept out of spans).
  virtual void after(const sv::Request& /*request*/, const Outcome& /*o*/) {}
};

/// L0: a client connection speaking the binary protocol.
class TcpCaller final : public Caller {
 public:
  explicit TcpCaller(std::uint16_t port) : client_(port) {}
  Outcome run(const sv::Request& request) override {
    codec_.write_request(client_.out(), request);
    client_.out().flush();
    const std::optional<sv::Response> response = codec_.read_response(client_.in());
    if (!response) throw std::runtime_error("server closed the connection");
    return outcome_of(*response);
  }

 private:
  sv::TcpClient client_;
  sv::BinaryCodec codec_;
};

/// L1: the protocol engine, called directly.
class EngineCaller final : public Caller {
 public:
  explicit EngineCaller(sv::Engine& engine) : engine_(engine) {}
  Outcome run(const sv::Request& request) override { return outcome_of(engine_.handle(request)); }

 private:
  sv::Engine& engine_;
};

/// L2: the serving session API, called directly with the batching the
/// engine would do. Keeps the library-level inputs (G, H snapshots and
/// per-apply results) for the L3 replay.
class SessionCaller final : public Caller {
 public:
  explicit SessionCaller(const std::string& work_dir) : work_dir_(work_dir) {}

  struct Snapshot {
    Graph g, h;
    std::vector<std::pair<NodeId, NodeId>> solves;
    std::vector<int> iterations;
  };
  std::vector<Snapshot> snapshots;   // one per distinct state that was solved/probed
  std::vector<ApplyResult> applies;
  std::uint64_t checkpoint_bytes = 0;
  double solve_rpc_bytes = 0.0;      // dist: RPC bytes moved during solves
  double kappa = 0.0;                // last kappa answer
  std::size_t solves = 0;

  Outcome run(const sv::Request& request) override {
    return std::visit([this](const auto& r) { return step(r); }, request);
  }

  void after(const sv::Request& request, const Outcome& o) override {
    auto* plain = dynamic_cast<SparsifierSession*>(session_.get());
    if (plain == nullptr || !o.ok) return;
    const bool solve = std::holds_alternative<sv::req::Solve>(request);
    if (!solve && !std::holds_alternative<sv::req::Kappa>(request)) return;
    if (changed_ || snapshots.empty()) {
      snapshots.push_back(Snapshot{plain->graph(), plain->sparsifier(), {}, {}});
      changed_ = false;
    }
    if (solve) {
      const auto& s = std::get<sv::req::Solve>(request);
      snapshots.back().solves.emplace_back(s.u, s.v);
      snapshots.back().iterations.push_back(o.iterations);
    }
  }

 private:
  Outcome ok() {
    Outcome o;
    o.ok = true;
    return o;
  }
  Outcome staged() {
    Outcome o = ok();
    o.key = {static_cast<double>(pending_.inserts.size()),
             static_cast<double>(pending_.removals.size())};
    return o;
  }
  Outcome opened() {
    Outcome o = ok();
    const sv::ServingMetrics m = session_->serving_metrics();
    o.key = {static_cast<double>(m.g_edges), static_cast<double>(m.h_edges)};
    changed_ = true;
    return o;
  }

  Outcome step(const sv::req::Open& r) {
    session_ = std::make_unique<SparsifierSession>(read_mtx_file(r.path), r.spec.session_options());
    return opened();
  }
  Outcome step(const sv::req::OpenDist& r) {
    dist::DistOptions dopts;
    dopts.spec = r.spec;
    dopts.partition = r.partition;
    dopts.dir = r.dir;
    session_ = std::make_unique<dist::DistributedSession>(read_mtx_file(r.path), r.endpoints, dopts);
    return opened();
  }
  Outcome step(const sv::req::Insert& r) {
    pending_.inserts.push_back(Edge{std::min(r.u, r.v), std::max(r.u, r.v), r.w});
    return staged();
  }
  Outcome step(const sv::req::Remove& r) {
    pending_.removals.emplace_back(std::min(r.u, r.v), std::max(r.u, r.v));
    return staged();
  }
  Outcome step(const sv::req::Apply&) {
    const UpdateBatch batch = std::move(pending_);
    pending_ = UpdateBatch{};
    applies.push_back(session_->apply(batch));
    changed_ = true;
    return applied(applies.back());
  }
  Outcome step(const sv::req::Solve& r) {
    const auto n = static_cast<std::size_t>(session_->num_nodes());
    std::vector<double> b(n, 0.0), x(n, 0.0);
    b[static_cast<std::size_t>(r.u)] = 1.0;
    b[static_cast<std::size_t>(r.v)] = -1.0;
    obs::Counter& out = obs::registry().counter("ingrass_rpc_bytes_total", {{"dir", "out"}});
    obs::Counter& in = obs::registry().counter("ingrass_rpc_bytes_total", {{"dir", "in"}});
    const std::uint64_t before = out.value() + in.value();
    const auto result = session_->solve(b, x);
    solve_rpc_bytes += static_cast<double>(out.value() + in.value() - before);
    ++solves;
    if (!result.converged) {
      Outcome o;
      o.error = "solve did not converge";
      return o;
    }
    return solved(result.outer_iterations, result.relative_residual,
                  x[static_cast<std::size_t>(r.u)] - x[static_cast<std::size_t>(r.v)]);
  }
  Outcome step(const sv::req::Kappa&) {
    Outcome o = ok();
    kappa = session_->settled_kappa();
    o.key = {kappa, session_->session_options().engine.target_condition};
    return o;
  }
  Outcome step(const sv::req::Metrics&) {
    Outcome o = ok();
    o.key = metrics_key(session_->serving_metrics());
    return o;
  }
  Outcome step(const sv::req::Checkpoint& r) {
    const std::string path = work_dir_ + "/l2-" + std::filesystem::path(r.path).filename().string();
    session_->checkpoint(path);
    checkpoint_bytes += std::filesystem::file_size(path);
    return ok();
  }
  Outcome step(const sv::req::Close&) {
    session_.reset();
    return ok();
  }
  template <typename T>
  Outcome step(const T&) {
    throw std::logic_error("unexpected request in a perfbench script");
  }

  std::string work_dir_;
  std::unique_ptr<sv::Session> session_;
  UpdateBatch pending_;
  bool changed_ = true;
};

// ---- running scripts --------------------------------------------------------

struct ClientLog {
  std::vector<Outcome> outcomes;
  std::vector<double> seconds;  // per step, caller-side
  std::string error;            // a thrown exception (connection lost, ...)
};

/// Run one script per client concurrently. With a tracer, every step is
/// a span named "<level>.<verb>", each client's whole script a
/// "<level>.client" span, all under one "<level>.episode" span.
std::vector<ClientLog> run_plan(const Plan& plan, std::vector<Caller*> callers, Tracer* tr,
                                const std::string& level) {
  std::vector<ClientLog> logs(plan.clients.size());
  std::optional<Tracer::Scope> episode;
  if (tr) episode.emplace(*tr, level + ".episode");
  const int parent = episode ? episode->id() : -1;
  auto body = [&](std::size_t c) {
    ClientLog& log = logs[c];
    std::optional<Tracer::Scope> client;
    if (tr) client.emplace(*tr, level + ".client", parent);
    try {
      for (const sv::Request& step : plan.clients[c].steps) {
        const Clock::time_point t0 = Clock::now();
        Outcome o;
        if (tr) {
          Tracer::Scope s(*tr, level + "." + verb_of(step), parent);
          o = callers[c]->run(step);
        } else {
          o = callers[c]->run(step);
        }
        log.seconds.push_back(seconds_since(t0));
        callers[c]->after(step, o);
        log.outcomes.push_back(std::move(o));
      }
    } catch (const std::exception& e) {
      log.error = e.what();
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 1; c < plan.clients.size(); ++c) threads.emplace_back(body, c);
  body(0);
  for (std::thread& t : threads) t.join();
  return logs;
}

/// Compare a replay's responses with the reference run's, step by step.
void compare(Report& rep, const std::vector<ClientLog>& ref, const std::vector<ClientLog>& got,
             const Plan& plan, const std::string& what) {
  for (std::size_t c = 0; c < ref.size(); ++c) {
    if (got[c].outcomes.size() != ref[c].outcomes.size()) {
      rep.mismatch(what + ": client " + std::to_string(c) + " ran " +
                   std::to_string(got[c].outcomes.size()) + " of " +
                   std::to_string(ref[c].outcomes.size()) + " steps");
      continue;
    }
    for (std::size_t i = 0; i < ref[c].outcomes.size(); ++i) {
      if (!(got[c].outcomes[i] == ref[c].outcomes[i])) {
        rep.mismatch(what + ": client " + std::to_string(c) + " step " + std::to_string(i) +
                     " (" + verb_of(plan.clients[c].steps[i]) + ") answered differently");
        break;
      }
    }
  }
}

// ---- the server under test ----------------------------------------------------

/// The event-loop TCP server on a thread of this process.
class Server {
 public:
  Server(const std::string& dir, int workers) {
    sv::TcpOptions opts;
    opts.event_loop = true;
    opts.event_workers = workers;
    opts.port_file = dir + "/server.port";
    std::filesystem::remove(opts.port_file);  // never read a stale port
    thread_ = std::thread([this, opts] {
      try {
        sv::serve_tcp(engine_, opts);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: server stopped: %s\n", e.what());
      }
    });
    port_ = sv::wait_for_port_file(opts.port_file);
  }
  ~Server() {
    try {
      TcpCaller quit(port_);
      (void)quit.run(sv::req::Quit{});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: quit failed: %s\n", e.what());
    }
    thread_.join();
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  sv::Engine engine_;
  std::thread thread_;
  std::uint16_t port_ = 0;
};

// ---- oracle -----------------------------------------------------------------

/// Effective resistance by Jacobi-PCG on L_G at tight tolerance — an
/// independent reference for every served solve.
double reference_resistance(const Graph& g, NodeId u, NodeId v) {
  const CsrAdjacency csr = build_csr(g);
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<double> b(n, 0.0), x(n, 0.0);
  b[static_cast<std::size_t>(u)] = 1.0;
  b[static_cast<std::size_t>(v)] = -1.0;
  const JacobiPreconditioner jacobi(csr.degree);
  CgOptions opts;
  opts.rel_tol = 1e-12;
  opts.max_iters = 200'000;
  opts.project_nullspace = true;
  const CgResult r = pcg(laplacian_operator(csr), b, x, &jacobi, opts);
  if (!r.converged) return std::nan("");
  return x[static_cast<std::size_t>(u)] - x[static_cast<std::size_t>(v)];
}

constexpr double kResistanceTol = 1e-6;  // relative

void check_resistance(Report& rep, double want, double got) {
  rep.check(std::abs(got - want) <= kResistanceTol * std::abs(want),
            "resistance " + fmt(got) + " vs reference " + fmt(want));
}

// ---- layer helpers ----------------------------------------------------------

struct HistDelta {
  std::string name;
  obs::Labels labels;
  std::uint64_t count0 = 0;
  double sum0 = 0.0;
  HistDelta(std::string n, obs::Labels l) : name(std::move(n)), labels(std::move(l)) {
    const auto s = obs::registry().histogram(name, labels).snapshot();
    count0 = s.count;
    sum0 = s.sum;
  }
  /// Mean observation since construction, in microseconds (0 if none).
  [[nodiscard]] double mean_us() const {
    const auto s = obs::registry().histogram(name, labels).snapshot();
    const std::uint64_t n = s.count - count0;
    return n == 0 ? 0.0 : 1e6 * (s.sum - sum0) / static_cast<double>(n);
  }
};

/// Median microseconds of `fn` over `reps` calls.
double median_us(int reps, const std::function<void()>& fn) {
  Samples s;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    s.add(seconds_since(t0) * 1e6);
  }
  return s.median();
}

/// L3 for plain sessions: the library calls behind the L2 session, on
/// the graphs the session held at each solve.
void library_layers(const Planner& planner, const sv::SessionSpec& spec,
                    const std::vector<SessionCaller*>& l2, Tracer& tr, Report& rep,
                    Layers& layers) {
  const SessionOptions so = spec.session_options();
  {
    Tracer::Scope s(tr, "L3.graph.load");
    (void)read_mtx_file(planner.graph_path());
  }
  Graph h0;
  {
    Tracer::Scope s(tr, "L3.sparsify.grass");
    h0 = grass_sparsify(planner.graph(), so.grass).sparsifier;
  }
  {
    Tracer::Scope s(tr, "L3.core.setup");
    const Ingrass engine(std::move(h0), so.engine);
  }
  layers["graph.load_s"] = tr.total("L3.graph.load");
  layers["sparsify.grass_s"] = tr.total("L3.sparsify.grass");
  layers["core.setup_s"] = tr.total("L3.core.setup");

  Samples iters;
  bool iters_match = true;
  const SessionCaller::Snapshot* last = nullptr;
  for (const SessionCaller* d : l2) {
    std::unique_ptr<SparsifierSolver> solver;
    for (const SessionCaller::Snapshot& snap : d->snapshots) {
      last = &snap;
      if (!solver) {
        Tracer::Scope s(tr, "L3.solver.build");
        solver = std::make_unique<SparsifierSolver>(snap.g, snap.h, so.solver);
      } else {
        Tracer::Scope s(tr, "L3.solver.refresh");
        solver->update(snap.g, snap.h);
      }
      for (std::size_t i = 0; i < snap.solves.size(); ++i) {
        const auto [u, v] = snap.solves[i];
        const auto n = static_cast<std::size_t>(snap.g.num_nodes());
        std::vector<double> b(n, 0.0), x(n, 0.0);
        b[static_cast<std::size_t>(u)] = 1.0;
        b[static_cast<std::size_t>(v)] = -1.0;
        SparsifierSolver::Result r;
        {
          Tracer::Scope s(tr, "L3.solver.solve");
          r = solver->solve(b, x);
        }
        iters.add(r.outer_iterations);
        iters_match = iters_match && r.outer_iterations == snap.iterations[i];
      }
    }
  }
  if (!iters_match) rep.note("L3 fresh-solver iteration counts differ from the session's");

  auto mean = [&tr](const std::string& name, double scale) {
    const std::size_t n = tr.count(name);
    return n == 0 ? 0.0 : scale * tr.total(name) / static_cast<double>(n);
  };
  layers["solver.build_s"] = mean("L3.solver.build", 1.0);
  layers["solver.refresh_ms"] = mean("L3.solver.refresh", 1e3);
  layers["solver.solve_ms"] = mean("L3.solver.solve", 1e3);
  layers["solver.outer_iters"] = iters.mean();
  if (last == nullptr) return;

  // kappa of the first tenant's final pair, as the kappa verb measures it.
  const SessionCaller& d0 = *l2.front();
  ConditionNumberResult kappa;
  {
    Tracer::Scope s(tr, "L3.spectral.kappa");
    kappa = relative_condition_number(d0.snapshots.back().g, d0.snapshots.back().h);
  }
  if (kappa.kappa != d0.kappa) rep.mismatch("L3 kappa differs from the session's kappa answer");
  layers["spectral.kappa_power_iters"] = kappa.iterations_max + kappa.iterations_min;

  // Solve breakdown: one outer iteration = one L_G multiply, one fp32
  // preconditioner apply on L_H, and the fused vector pass.
  const CsrAdjacency csr_g = build_csr(last->g);
  const CsrAdjacency csr_h = build_csr(last->h);
  const LinOp lg = laplacian_operator(csr_g);
  const auto n = static_cast<std::size_t>(last->g.num_nodes());
  Rng rng(7);
  std::vector<double> x(n), y(n), p(n), ap(n), r(n);
  randomize(x, rng);
  randomize(p, rng);
  randomize(ap, rng);
  randomize(r, rng);
  Fp32LaplacianPrecond pre;
  pre.rebuild(csr_h);
  const double spmv = median_us(200, [&] { lg(x, y); });
  const double precond = median_us(50, [&] { pre.apply(x, y, so.solver.inner_iters); });
  const double vec = median_us(200, [&] { (void)cg_fused_update(1e-9, p, ap, y, r); });
  layers["linalg.spmv_g_us"] = spmv;
  layers["linalg.precond_us"] = precond;
  layers["linalg.vector_pass_us"] = vec;
  // Computed, not measured: offsets + (target, weight) per arc + degree,
  // x and y streamed once.
  layers["linalg.spmv_bytes"] =
      static_cast<double>(8 * (n + 1) + 12 * csr_g.targets.size() + 24 * n);
  const double solve_us = layers["solver.solve_ms"] * 1e3;
  layers["linalg.accounted_frac"] =
      solve_us > 0 ? iters.mean() * (spmv + precond + vec) / solve_us : 0.0;
}

}  // namespace

void run_serving(const Context& ctx, Report& rep, Result& res, Layers& layers) {
  const Shape shape = shape_of(ctx.workload);
  const Planner planner(ctx, shape);
  rep.note(ctx.workload + ": G2_circuit analog scale " + fmt(shape.scale) + ", n=" +
           std::to_string(planner.graph().num_nodes()) + " m=" +
           std::to_string(planner.graph().num_edges()) + ", " + std::to_string(shape.clients) +
           " closed-loop client(s)");

  auto server = std::make_unique<Server>(ctx.work_dir, shape.server_workers);
  std::vector<std::unique_ptr<TcpCaller>> conns;
  std::vector<Caller*> l0;
  for (int c = 0; c < shape.clients; ++c) {
    conns.push_back(std::make_unique<TcpCaller>(server->port()));
    l0.push_back(conns.back().get());
  }

  // ---- measured window: whole seeded episodes, untraced ----
  std::map<std::string, Samples> rtt;  // per verb, seconds
  struct Executed {
    const SolveRef* ref;
    double resistance;
  };
  std::vector<Plan> plans;  // kept alive for the oracle's SolveRefs
  std::vector<Executed> executed;
  std::uint64_t attempted = 0, failed = 0;
  Samples iterations;  // outer iterations of the timed solves
  // Counts every step and solve; timed episodes also feed the samples.
  auto account = [&](const Plan& plan, const std::vector<ClientLog>& logs, bool timed) {
    for (std::size_t c = 0; c < logs.size(); ++c) {
      const ClientLog& log = logs[c];
      if (!log.error.empty()) {
        ++failed;
        rep.note("client " + std::to_string(c) + " aborted: " + log.error);
      }
      double busy = 0.0;
      std::size_t commands = 0;
      for (std::size_t i = 0; i < log.outcomes.size(); ++i) {
        const std::string verb = verb_of(plan.clients[c].steps[i]);
        const Outcome& o = log.outcomes[i];
        ++attempted;
        if (!o.ok) {
          ++failed;
          rep.note("step " + std::to_string(i) + " (" + verb + ") failed: " + o.error);
        }
        const auto it = plan.clients[c].solves.find(i);
        if (it != plan.clients[c].solves.end() && o.ok) executed.push_back({&it->second, o.resistance});
        if (!timed) continue;
        rtt[verb].add(log.seconds[i]);
        if (verb == "insert" || verb == "remove" || verb == "apply" || verb == "solve") {
          busy += log.seconds[i];
          ++commands;
        }
        if (verb == "open") res.setup.add(log.seconds[i]);
        if (verb == "solve" && o.ok) iterations.add(o.iterations);
        if (verb == shape.op_verb) res.op.add(log.seconds[i]);
      }
      if (busy > 0) res.rate.add(static_cast<double>(commands) / busy);
    }
  };

  // Extra set-ups first (they also warm the process up).
  const Plan probe = planner.setup_probe();
  for (int r = 0; r < kSetupReps; ++r) {
    const std::vector<ClientLog> logs = run_plan(probe, {l0[0]}, nullptr, "L0");
    account(probe, logs, false);
    res.setup.add(logs[0].seconds.at(0));
  }

  std::vector<ClientLog> first;
  const Clock::time_point w0 = Clock::now();
  int episodes = 0;
  for (int e = 0; e < shape.min_episodes || seconds_since(w0) < ctx.seconds; ++e, ++episodes) {
    // A repeating script is built once: its per-solve graph copies for the
    // oracle must not grow the process (peak_rss_mb) with the episode count.
    if (e == 0 || planner.fresh()) plans.push_back(planner.episode(e));
    std::vector<ClientLog> logs = run_plan(plans.back(), l0, nullptr, "L0");
    account(plans.back(), logs, true);
    if (e == 0) {
      first = std::move(logs);
    } else if (!planner.fresh()) {
      compare(rep, first, logs, plans.back(), "episode " + std::to_string(e));
    }
  }

  // The canonical episode: quality, counts, and the traced replay's input.
  plans.push_back(planner.canonical());
  const Plan& canon = plans.back();
  const std::vector<ClientLog> canon_logs = run_plan(canon, l0, nullptr, "L0");
  account(canon, canon_logs, false);
  Samples kappa_ratio, density, canon_op;
  for (std::size_t c = 0; c < canon_logs.size(); ++c) {
    for (std::size_t i = 0; i < canon_logs[c].outcomes.size(); ++i) {
      const std::string verb = verb_of(canon.clients[c].steps[i]);
      const Outcome& o = canon_logs[c].outcomes[i];
      if (verb == shape.op_verb) canon_op.add(canon_logs[c].seconds[i]);
      if (!o.ok) continue;
      if (verb == "kappa") {
        kappa_ratio.add(o.key[0] / o.key[1]);
        rep.check(std::isfinite(o.key[0]) && o.key[0] >= 1.0, "kappa finite and >= 1");
      } else if (verb == "metrics") {
        const double nodes = o.key[0], h_edges = o.key[2];
        density.add((h_edges - (nodes - 1.0)) / nodes);
      }
    }
  }
  res.kappa_ratio = kappa_ratio.mean();
  res.density = density.mean();

  // Oracle: every served resistance against the reference, outside the
  // measured window (one reference per distinct system).
  const Clock::time_point oracle0 = Clock::now();
  std::map<const SolveRef*, double> refs;  // repeated scripts share SolveRefs
  for (const Executed& x : executed) {
    const auto [it, fresh] = refs.try_emplace(x.ref, 0.0);
    if (fresh) it->second = reference_resistance(*x.ref->g, x.ref->u, x.ref->v);
    check_resistance(rep, it->second, x.resistance);
  }
  rep.attempts(attempted, failed);
  rep.note(std::to_string(episodes) + " seeded episodes + 1 canonical, " +
           std::to_string(executed.size()) + " solves checked against the reference in " +
           fmt(seconds_since(oracle0)) + " s");

  // Named end-to-end metrics of the workload (report lines; README.md).
  const double fail_frac = static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(attempted, 1));
  rep.metric("fail_frac", fail_frac, "ratio", attempted, false);
  if (rtt.count("solve")) {
    rep.metric("solve_ms_p50", rtt["solve"].median() * 1e3, "ms", rtt["solve"].size(), false);
    rep.percentile("solve_ms_p90", rtt["solve"], 0.90, 1e3, "ms");
  }
  if (rtt.count("apply")) {
    rep.metric("apply_ms_p50", rtt["apply"].median() * 1e3, "ms", rtt["apply"].size(), false);
    rep.percentile("apply_ms_p90", rtt["apply"], 0.90, 1e3, "ms");
  }
  if (rtt.count("insert")) {
    Samples stage = rtt["insert"];
    if (rtt.count("remove")) stage.append(rtt["remove"]);
    rep.metric("stage_us_p50", stage.median() * 1e6, "us", stage.size(), false);
    rep.percentile("stage_us_p99", stage, 0.99, 1e6, "us");
  }
  rep.metric("commands_per_s", res.rate.median(), "1/s", res.rate.size(), false);
  if (!iterations.empty())
    rep.metric("solve_iters_p50", iterations.median(), "count", iterations.size(), false);

  if (!ctx.trace) return;

  // ---- traced replay of the canonical episode, one layer down at a time ----
  Tracer tr(true);
  const Plan& replay = canon;
  const std::vector<ClientLog>& ref_replay = canon_logs;

  // L0: the client path again, with spans; stage means from the registry.
  const std::vector<std::string> stages = {"decode", "queue_wait", "gate_wait",
                                           "execute", "encode", "write_drain"};
  std::vector<HistDelta> stage_deltas;
  for (const std::string& s : stages) stage_deltas.emplace_back("ingrass_stage_seconds", obs::Labels{{"stage", s}});
  compare(rep, ref_replay, run_plan(replay, l0, &tr, "L0"), replay, "L0 traced replay");
  for (std::size_t i = 0; i < stages.size(); ++i)
    layers["serve.transport." + stages[i] + "_us"] = stage_deltas[i].mean_us();
  conns.clear();
  server.reset();

  // L1: the protocol engine without transport.
  {
    sv::Engine engine;
    std::vector<std::unique_ptr<EngineCaller>> ds;
    std::vector<Caller*> l1;
    for (int c = 0; c < shape.clients; ++c) {
      ds.push_back(std::make_unique<EngineCaller>(engine));
      l1.push_back(ds.back().get());
    }
    compare(rep, ref_replay, run_plan(replay, l1, &tr, "L1"), replay, "L1 engine replay");
  }
  for (const char* verb : {"insert", "remove", "apply", "solve"}) {
    const std::size_t n = tr.count(std::string("L1.") + verb);
    layers[std::string("serve.engine.handle_us.") + verb] =
        n == 0 ? 0.0 : 1e6 * tr.total(std::string("L1.") + verb) / static_cast<double>(n);
  }

  // L2: the session API.
  std::vector<std::unique_ptr<SessionCaller>> sessions;
  std::vector<Caller*> l2;
  std::vector<SessionCaller*> l2_sessions;
  for (int c = 0; c < shape.clients; ++c) {
    sessions.push_back(std::make_unique<SessionCaller>(ctx.work_dir));
    l2.push_back(sessions.back().get());
    l2_sessions.push_back(sessions.back().get());
  }
  compare(rep, ref_replay, run_plan(replay, l2, &tr, "L2"), replay, "L2 session replay");

  auto mean_ms = [&tr](const std::string& name) {
    const std::size_t n = tr.count(name);
    return n == 0 ? 0.0 : 1e3 * tr.total(name) / static_cast<double>(n);
  };
  std::size_t applies = 0, rebuilds = 0, ghosts = 0;
  Ingrass::UpdateStats counts;
  double update_s = 0.0;
  for (const SessionCaller* d : l2_sessions) {
    for (const ApplyResult& a : d->applies) {
      ++applies;
      rebuilds += a.rebuild_triggered ? 1 : 0;
      ghosts += static_cast<std::size_t>(a.ghost_removals);
      counts.inserted += a.stats.inserted;
      counts.merged += a.stats.merged;
      counts.redistributed += a.stats.redistributed;
      counts.reinforced += a.stats.reinforced;
      update_s += a.stats.seconds;
    }
  }
  layers["serve.session.apply_ms"] = mean_ms("L2.apply");
  layers["serve.session.rebuilds"] = static_cast<double>(rebuilds);
  layers["serve.session.rebuild_frac"] = applies ? static_cast<double>(rebuilds) / static_cast<double>(applies) : 0.0;
  layers["serve.session.ghosts"] = static_cast<double>(ghosts);
  layers["serve.checkpoint.ms"] = mean_ms("L2.checkpoint");
  std::uint64_t ckpt_bytes = 0;
  for (const SessionCaller* d : l2_sessions) ckpt_bytes += d->checkpoint_bytes;
  const std::size_t ckpts = tr.count("L2.checkpoint");
  layers["serve.checkpoint.bytes"] = ckpts ? static_cast<double>(ckpt_bytes) / static_cast<double>(ckpts) : 0.0;
  if (applies) {
    layers["core.update_s"] = update_s;
    layers["core.inserted"] = static_cast<double>(counts.inserted);
    layers["core.merged"] = static_cast<double>(counts.merged);
    layers["core.redistributed"] = static_cast<double>(counts.redistributed);
    layers["core.reinforced"] = static_cast<double>(counts.reinforced);
    layers["core.keep_frac"] = counts.total() ? static_cast<double>(counts.inserted) / static_cast<double>(counts.total()) : 0.0;
  }
  layers["spectral.kappa_s"] = tr.total("L2.kappa") / static_cast<double>(std::max<std::size_t>(tr.count("L2.kappa"), 1));

  library_layers(planner, planner.spec(), l2_sessions, tr, rep, layers);

  // The dist layer, on churn-sync only: client 0's canonical script again
  // on an open-dist tenant over a 2-shard in-process fleet (loopback RPCs,
  // sync shard rebuilds). RPC means come from the registry; every solve
  // goes through the oracle, so distributed answers are checked against
  // the unsharded reference.
  if (shape.kind == Kind::kChurnSync) {
    dist::LocalFleet fleet(2, ctx.work_dir);
    const Plan plan = planner.dist_replay(fleet.endpoints());
    std::vector<HistDelta> rpc = {{"ingrass_rpc_seconds", {{"verb", "block-solve"}}},
                                  {"ingrass_rpc_seconds", {{"verb", "shard-apply"}}},
                                  {"ingrass_rpc_seconds", {{"verb", "coupling-update"}}}};
    obs::Counter& retries = obs::registry().counter("ingrass_rpc_retries_total");
    const std::uint64_t retries0 = retries.value();
    SessionCaller d(ctx.work_dir);
    const std::vector<ClientLog> logs = run_plan(plan, {&d}, &tr, "D2");
    rep.check(logs[0].error.empty(), "dist replay ran to the end: " + logs[0].error);
    for (std::size_t i = 0; i < logs[0].outcomes.size(); ++i) {
      const Outcome& o = logs[0].outcomes[i];
      rep.check(o.ok, "dist replay step " + std::to_string(i) + ": " + o.error);
      const auto it = plan.clients[0].solves.find(i);
      if (it != plan.clients[0].solves.end() && o.ok)
        check_resistance(rep, reference_resistance(*it->second.g, it->second.u, it->second.v),
                         o.resistance);
    }
    layers["dist.rpc_block_solve_us"] = rpc[0].mean_us();
    layers["dist.rpc_shard_apply_us"] = rpc[1].mean_us();
    layers["dist.rpc_coupling_update_us"] = rpc[2].mean_us();
    layers["dist.rpc_retries"] = static_cast<double>(retries.value() - retries0);
    layers["dist.rpc_bytes_per_solve"] = d.solves ? d.solve_rpc_bytes / static_cast<double>(d.solves) : 0.0;
    rep.note("dist replay: solve mean " + fmt(mean_ms("D2.solve")) + " ms, apply mean " +
             fmt(mean_ms("D2.apply")) + " ms over " + std::to_string(tr.count("D2.solve")) +
             " solves / " + std::to_string(tr.count("D2.apply")) + " applies");
  }

  // Tracing overhead: the traced L0 replay's primary-op time against the
  // untraced canonical episode's (same commands). Unaccounted: the share
  // of the clients' wall time outside any request span.
  const std::string op = shape.op_verb;
  const std::size_t traced_ops = tr.count("L0." + op);
  if (traced_ops > 0) {
    const double traced = tr.total("L0." + op) / static_cast<double>(traced_ops);
    layers["trace.overhead_frac"] = traced / canon_op.mean() - 1.0;
    rep.note("canonical " + op + " mean: traced " + fmt(traced * 1e3) + " ms, untraced " +
             fmt(canon_op.mean() * 1e3) + " ms");
  }
  auto steps = [&tr](const std::string& level) {
    return tr.total_prefix(level + ".") - tr.total(level + ".episode") - tr.total(level + ".client");
  };
  const double wall = tr.total("L0.client");
  const double t0 = steps("L0"), t1 = steps("L1"), t2 = steps("L2");
  layers["trace.unaccounted_frac"] = (wall - t0) / wall;
  rep.note("self time: transport+codec " + fmt(t0 - t1) + " s, engine " + fmt(t1 - t2) +
           " s, session and below " + fmt(t2) + " s (L0 step total " + fmt(t0) +
           " s; each level is a separate replay, so a negative self time is replay noise)");
  tr.write_json(ctx.work_dir + "/trace-" + ctx.workload + ".json");
}

}  // namespace perfbench
