// lu-graph: closed loop over a recorded sparselu dependency graph. The
// seeded 24x24-block matrix (32x32 blocks) is recorded once as a TaskGraph
// during set-up; each job replays it on refilled data and compares the
// checksum bit for bit with the serial reference. Tasks are 10-20 us of
// dense compute, so dependency release, balance and the critical path
// decide the time, not per-task overhead.
#include <algorithm>
#include <bit>
#include <cmath>
#include <initializer_list>
#include <memory>
#include <unordered_map>

#include "bots/graph_workloads.hpp"
#include "bots/sparselu.hpp"
#include "core/task_graph.hpp"
#include "registry/registry.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using xtask::Dep;
using xtask::Runtime;
using xtask::RuntimeRegistry;
using xtask::TaskGraph;
namespace bots = xtask::bots;

constexpr const char* kSpec = "xtask:threads=3";
constexpr std::uint64_t kPatternSeed = bots::SparseLuParams{}.seed;

/// Predecessor lists of the recorded graph, rebuilt from the same
/// in/out/inout dependences the graph was recorded with.
struct Preds {
  struct Access {
    long writer = -1;
    std::vector<std::uint32_t> readers;
  };
  std::unordered_map<const void*, Access> frontier;
  std::vector<std::vector<std::uint32_t>> of;

  void add(std::uint32_t id, std::initializer_list<Dep> deps) {
    of.emplace_back();
    auto& p = of.back();
    for (const Dep& d : deps) {
      Access& a = frontier[d.addr];
      if (a.writer >= 0) p.push_back(static_cast<std::uint32_t>(a.writer));
      if (d.mode != xtask::DepMode::kIn) {
        p.insert(p.end(), a.readers.begin(), a.readers.end());
        a.readers.clear();
        a.writer = id;
      } else {
        a.readers.push_back(id);
      }
    }
    std::sort(p.begin(), p.end());
    p.erase(std::unique(p.begin(), p.end()), p.end());
  }
  std::size_t edges() const {
    std::size_t e = 0;
    for (const auto& p : of) e += p.size();
    return e;
  }
};

using Pattern = std::vector<std::pair<int, int>>;

/// The blocks a freshly filled matrix holds (before any fill-in).
Pattern pattern_of(const bots::SparseMatrix& m) {
  Pattern pat;
  for (int i = 0; i < m.blocks(); ++i)
    for (int j = 0; j < m.blocks(); ++j)
      if (m.block(i, j) != nullptr) pat.emplace_back(i, j);
  return pat;
}

/// One job's input: refill() zeroes the fill-in left by the previous
/// factorization, then the pattern blocks get values drawn from `seed`
/// (diagonally dominant, like the library's generator), then the fill-in
/// blocks are materialized for the recorded graph. Block addresses never
/// change, so the graph recorded at set-up stays valid.
void fill_input(bots::SparseMatrix& m, const Pattern& pat, std::uint64_t seed) {
  m.refill();
  xtask::XorShift rng(seed);
  const int bs = m.bs();
  for (const auto& [i, j] : pat) {
    double* blk = m.block(i, j);
    for (int e = 0; e < bs * bs; ++e) blk[e] = rng.uniform() * 2.0 - 1.0;
    if (i == j)
      for (int d = 0; d < bs; ++d) blk[d * bs + d] += static_cast<double>(2 * bs);
  }
  bots::sparselu_prefill(&m);
}

/// Flops of one factorization, computed from the kernels' loop bounds and
/// the block counts of the filled pattern (not measured).
double lu_flops(const bots::SparseMatrix& m) {
  const double bs = m.bs();
  double lu0 = 0;
  for (int k = 0; k < m.bs(); ++k) {
    const double r = bs - k - 1;
    lu0 += r * (1 + 2 * r);
  }
  const double fwd = bs * bs * (bs - 1);  // sum_k (bs-k-1) * 2bs
  const double bdiv = bs * bs * bs;
  const double bmod = 2 * bs * bs * bs;
  double total = 0;
  const int n = m.blocks();
  for (int k = 0; k < n; ++k) {
    total += lu0;
    for (int j = k + 1; j < n; ++j)
      if (m.block(k, j) != nullptr) total += fwd;
    for (int i = k + 1; i < n; ++i)
      if (m.block(i, k) != nullptr) total += bdiv;
    for (int i = k + 1; i < n; ++i) {
      if (m.block(i, k) == nullptr) continue;
      for (int j = k + 1; j < n; ++j)
        if (m.block(k, j) != nullptr) total += bmod;
    }
  }
  return total;
}

/// What the traced replays record. The wrapped node bodies stamp
/// start/end (one writer per node per replay); after each replay the
/// stamps are folded into the sums and histograms below.
struct Trace {
  std::vector<std::uint64_t> start, end;  // per node, current replay
  std::uint64_t replay_span = 0;
  std::uint64_t op = 0;
  Preds preds;
  Hist wait_ns, body_ns;
  std::vector<double> enter_us, exit_us;
  double busy_ns = 0, span_ns = 0;
};

struct State {
  std::unique_ptr<Runtime> rt;
  std::unique_ptr<bots::SparseMatrix> m;
  Pattern pattern;
  TaskGraph g;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

bots::SparseLuParams lu_params(bool tiny) {
  bots::SparseLuParams p;
  p.blocks = tiny ? 6 : 24;
  p.block_size = tiny ? 8 : 32;
  // The block pattern comes from the library's default generator seed and
  // is the same on every run (24x24: 2,721 nodes, 7,257 edges, critical
  // path 58); --seed drives the values. A seed-dependent pattern would
  // change the amount of work from seed to seed.
  p.seed = kPatternSeed;
  return p;
}

double lu_input_checksum(std::uint64_t seed, bool tiny) {
  bots::SparseMatrix m(lu_params(tiny), /*fill=*/true);
  fill_input(m, pattern_of(m), seed);
  return m.checksum();
}

Report run_lu_graph(const Options& o, Deadline& dl) {
  Report r;
  const bots::SparseLuParams p = lu_params(o.tiny);
  const int warm = o.tiny ? 2 : 5;
  const std::size_t min_ops = 100;

  // The checker's reference, computed before set-up starts: a user of
  // the graph does not pay for it. The same kernels in the same order on
  // one thread, so the parallel checksum must match it bit for bit.
  double ref = 0;
  {
    bots::SparseMatrix rm(p, /*fill=*/true);
    const Pattern pat = pattern_of(rm);
    fill_input(rm, pat, o.seed);
    bots::SerialContext sc;
    bots::detail::sparselu_task(sc, &rm);
    ref = rm.checksum();
  }

  std::vector<double> construct_ms, capture_ms;
  double setup_s = 0;
  auto make = [&] {
    auto s = std::make_unique<State>();
    std::uint64_t t0 = now_ns();
    s->rt = RuntimeRegistry::make_xtask(
        RuntimeRegistry::xtask_config(xtask::BackendSpec::parse(kSpec)));
    construct_ms.push_back(secs_since(t0) * 1e3);
    s->m = std::make_unique<bots::SparseMatrix>(p, /*fill=*/true);
    s->pattern = pattern_of(*s->m);
    t0 = now_ns();
    s->g = bots::sparselu_record(s->m.get());
    capture_ms.push_back(secs_since(t0) * 1e3);
    for (int i = 0; i < warm; ++i) {
      fill_input(*s->m, s->pattern, o.seed);
      dl.arm("lu warm-up replay", o.op_deadline_s);
      s->g.replay(*s->rt, 1);
      dl.disarm();
      if (!same_bits(s->m->checksum(), ref)) r.violation = true;
    }
    return s;
  };
  std::unique_ptr<State> st = repeated_setup(kSetupReps, make, &setup_s);
  Runtime& rt = *st->rt;
  bots::SparseMatrix& m = *st->m;

  long op_index = 0;
  auto window = [&](const TaskGraph& g, double secs, Trace* tr) {
    BatchWindow w;
    w.before = rt.profiler().total_counters();
    const double cpu0 = process_cpu_s();
    const std::uint64_t t0 = now_ns();
    w.by_window.resize(static_cast<std::size_t>(sub_windows(secs)));
    while (secs_since(t0) < secs || w.lat_ms.size() < min_ops) {
      const long idx = op_index++;
      // Fresh input outside the timed op.
      fill_input(m, st->pattern, o.seed);
      std::uint64_t replay_id = 0;
      if (tr != nullptr) {
        replay_id = spans::new_id();
        tr->replay_span = replay_id;
        tr->op = static_cast<std::uint64_t>(idx);
      }
      dl.arm("lu replay", o.op_deadline_s);
      const std::uint64_t a = now_ns();
      g.replay(rt, 1);
      const std::uint64_t b = now_ns();
      dl.disarm();
      double ck = m.checksum();
      if (idx == o.inject_wrong) ck = std::nextafter(ck, 0.0);
      w.lat_ms.push_back(static_cast<double>(b - a) * 1e-6);
      const auto win = static_cast<std::size_t>(static_cast<double>(a - t0) * 1e-9 / kSubWindowS);
      w.by_window[std::min(win, w.by_window.size() - 1)].push_back(w.lat_ms.back());
      if (same_bits(ck, ref)) ++w.ok;
      if (tr != nullptr) {
        spans::record(spans::kReplay, replay_id, 0, idx, a, b);
        std::uint64_t first = ~0ull, last = 0;
        for (std::size_t v = 0; v < tr->start.size(); ++v) {
          first = std::min(first, tr->start[v]);
          last = std::max(last, tr->end[v]);
          tr->body_ns.add(tr->end[v] - tr->start[v]);
          tr->busy_ns += static_cast<double>(tr->end[v] - tr->start[v]);
          std::uint64_t ready = 0;
          for (std::uint32_t u : tr->preds.of[v]) ready = std::max(ready, tr->end[u]);
          if (!tr->preds.of[v].empty())
            tr->wait_ns.add(tr->start[v] > ready ? tr->start[v] - ready : 0);
        }
        tr->enter_us.push_back(static_cast<double>(first - a) * 1e-3);
        tr->exit_us.push_back(static_cast<double>(b - last) * 1e-3);
        tr->span_ns += static_cast<double>(b - a);
      }
    }
    w.elapsed_s = secs_since(t0);
    w.cpu_s = process_cpu_s() - cpu0;
    w.after = rt.profiler().total_counters();
    return w;
  };

  const double main_share = o.trace ? 0.5 : 1.0;
  const BatchWindow w = window(st->g, o.seconds * main_share, nullptr);
  batch_e2e(w, setup_s, r);
  const double ops = static_cast<double>(w.lat_ms.size());
  const double cpu_ms_per_op = r.e2e["cpu_ms_per_op"];
  const double p50 = quantile(w.lat_ms, 0.5);
  r.notes.push_back("lu-graph: " + std::to_string(p.blocks) + "x" +
                    std::to_string(p.blocks) + " blocks of " +
                    std::to_string(p.block_size) + ", nodes=" +
                    std::to_string(st->g.num_nodes()) + " edges=" +
                    std::to_string(st->g.num_edges()) + " critical_path=" +
                    std::to_string(st->g.critical_path()) + " replays=" +
                    std::to_string(w.lat_ms.size()) + " on " + kSpec);

  if (o.trace) {
    // Serial baseline: the same kernels in the same order on one thread,
    // on refilled data (no matrix construction inside the timing).
    std::vector<double> serial_ms;
    for (int i = 0; i < 5; ++i) {
      fill_input(m, st->pattern, o.seed);
      const std::uint64_t t0 = now_ns();
      bots::SerialContext sc;
      bots::detail::sparselu_task(sc, &m);
      serial_ms.push_back(secs_since(t0) * 1e3);
      if (!same_bits(m.checksum(), ref)) r.violation = true;
    }
    const double ser = median(serial_ms);
    core_counter_metrics(w.before, w.after, ops, cpu_ms_per_op, ser, r);

    // A second recording of the same graph whose node bodies stamp their
    // start and end; dependence predecessors are rebuilt alongside.
    Trace tr;
    TaskGraph tg = TaskGraph::record([&](TaskGraph::Capture& cap) {
      bots::sparselu_dep_build(
          &m, [&](auto&& f, std::initializer_list<Dep> deps) {
            const auto id = static_cast<std::uint32_t>(tr.preds.of.size());
            tr.preds.add(id, deps);
            cap.node(
                [f = std::forward<decltype(f)>(f), id,
                 c = &tr](xtask::TaskContext& ctx) mutable {
                  const std::uint64_t s = now_ns();
                  f(ctx);
                  const std::uint64_t e = now_ns();
                  c->start[id] = s;
                  c->end[id] = e;
                  spans::record(spans::kNode, spans::new_id(), c->replay_span,
                                c->op, s, e, id);
                },
                deps);
          });
    });
    tr.start.assign(tg.num_nodes(), 0);
    tr.end.assign(tg.num_nodes(), 0);
    if (tr.preds.edges() != tg.num_edges())
      r.notes.push_back("lu-graph: rebuilt edge count " +
                        std::to_string(tr.preds.edges()) +
                        " differs from the graph's " +
                        std::to_string(tg.num_edges()));

    const BatchWindow tw = window(tg, o.seconds * 0.5, &tr);
    if (tw.ok != tw.lat_ms.size()) r.violation = true;

    const double nodes = st->g.num_nodes();
    const double flops = lu_flops(m);
    std::uint64_t t0 = now_ns();
    st.reset();
    const double teardown_ms = secs_since(t0) * 1e3;

    r.layer["registry.construct_ms"] = median(construct_ms);
    r.layer["registry.teardown_ms"] = teardown_ms;
    r.layer["core.region_enter_us.p50"] = median(tr.enter_us);
    r.layer["core.region_exit_us.p50"] = median(tr.exit_us);
    r.layer["graph.capture_ms"] = median(capture_ms);
    r.layer["graph.release_wait_us.p50"] = tr.wait_ns.quantile_ns(0.5) * 1e-3;
    r.layer["graph.release_wait_us.p99"] = tr.wait_ns.quantile_ns(0.99) * 1e-3;
    r.layer["graph.busy_frac"] = tr.busy_ns / (tr.span_ns * kThreads);
    r.layer["graph.nodes"] = nodes;
    r.layer["graph.edges"] = tg.num_edges();
    r.layer["graph.parallelism"] = nodes / tg.critical_path();
    r.layer["bots.serial_ms"] = ser;
    r.layer["bots.speedup"] = ser / p50;
    r.layer["bots.node_body_us.p50"] = tr.body_ns.quantile_ns(0.5) * 1e-3;
    r.layer["bots.lu_gflops"] = flops / (p50 * 1e-3) * 1e-9;
    r.layer["trace.overhead_frac"] = quantile(tw.lat_ms, 0.5) / p50 - 1.0;
    finish_spans(o, r);
  }
  return r;
}

}  // namespace perfbench
