// fib-fine: closed loop, one client, back-to-back fib(20) jobs spawned
// down to the leaves (21,891 tasks a job) on the default xtask spec.
// Serial fib(20) costs ~0.07 ms, so the spawn / allocate / dispatch /
// taskwait path is the whole cost.
#include <memory>
#include <unordered_map>

#include "bots/fib.hpp"
#include "registry/registry.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using xtask::Runtime;
using xtask::RuntimeRegistry;

constexpr const char* kSpec = "xtask:threads=3";

/// Timing wrapper handed to the templated BOTS kernel in the traced
/// phase: every spawn and taskwait call and every task body becomes a
/// span, parented on the task body that made the call.
struct TracedCtx {
  xtask::TaskContext& c;
  std::uint64_t self;  // span id of the task body this context runs
  std::uint64_t op;

  template <typename F>
  void spawn(F&& f) {
    const std::uint64_t t0 = now_ns();
    c.spawn([f = std::forward<F>(f), parent = self,
             op = op](xtask::TaskContext& inner) mutable {
      const std::uint64_t id = spans::new_id();
      const std::uint64_t tb = now_ns();
      TracedCtx tc{inner, id, op};
      f(tc);
      spans::record(spans::kTask, id, parent, op, tb, now_ns());
    });
    spans::record(spans::kSpawn, spans::new_id(), self, op, t0, now_ns());
  }
  void taskwait() {
    const std::uint64_t t0 = now_ns();
    c.taskwait();
    spans::record(spans::kTaskwait, spans::new_id(), self, op, t0, now_ns());
  }
};

}  // namespace

Report run_fib_fine(const Options& o, Deadline& dl) {
  Report r;
  volatile int n_in = o.tiny ? 12 : 20;
  const int n = n_in;
  const long expect = xtask::bots::fib_serial(n);
  const int warm = o.tiny ? 3 : 30;
  const std::size_t min_ops = 100;

  std::vector<double> construct_ms;
  double setup_s = 0;
  auto make = [&] {
    const std::uint64_t t0 = now_ns();
    std::unique_ptr<Runtime> rt = RuntimeRegistry::make_xtask(
        RuntimeRegistry::xtask_config(xtask::BackendSpec::parse(kSpec)));
    construct_ms.push_back(secs_since(t0) * 1e3);
    for (int i = 0; i < warm; ++i) {
      dl.arm("fib warm-up job", o.op_deadline_s);
      const long got = xtask::bots::fib_parallel(*rt, n);
      dl.disarm();
      if (got != expect) r.violation = true;
    }
    return rt;
  };
  std::unique_ptr<Runtime> owned = repeated_setup(kSetupReps, make, &setup_s);
  Runtime& rt = *owned;

  long op_index = 0;
  // One closed-loop window: jobs back to back for `secs` (and at least
  // min_ops, so p90 keeps >= 10 samples beyond it).
  auto window = [&](double secs, bool traced) {
    BatchWindow w;
    w.before = rt.profiler().total_counters();
    const double cpu0 = process_cpu_s();
    const std::uint64_t t0 = now_ns();
    w.by_window.resize(static_cast<std::size_t>(sub_windows(secs)));
    while (secs_since(t0) < secs || w.lat_ms.size() < min_ops) {
      const long idx = op_index++;
      long got = -1;
      dl.arm("fib job", o.op_deadline_s);
      const std::uint64_t a = now_ns();
      if (traced) {
        const std::uint64_t op_id = spans::new_id(), run_id = spans::new_id();
        rt.run([&](xtask::TaskContext& ctx) {
          const std::uint64_t root_id = spans::new_id();
          const std::uint64_t rb = now_ns();
          TracedCtx tc{ctx, root_id, static_cast<std::uint64_t>(idx)};
          xtask::bots::fib_task(tc, n, 0, &got);
          spans::record(spans::kRoot, root_id, run_id, idx, rb, now_ns());
        });
        const std::uint64_t b = now_ns();
        spans::record(spans::kRun, run_id, op_id, idx, a, b);
        spans::record(spans::kOp, op_id, 0, idx, a, b);
      } else {
        rt.run([&](xtask::TaskContext& ctx) {
          xtask::bots::fib_task(ctx, n, 0, &got);
        });
      }
      const std::uint64_t b = now_ns();
      dl.disarm();
      if (idx == o.inject_wrong) got += 1;
      w.lat_ms.push_back(static_cast<double>(b - a) * 1e-6);
      const auto win = static_cast<std::size_t>(static_cast<double>(a - t0) * 1e-9 / kSubWindowS);
      w.by_window[std::min(win, w.by_window.size() - 1)].push_back(w.lat_ms.back());
      if (got == expect) ++w.ok;
    }
    w.elapsed_s = secs_since(t0);
    w.cpu_s = process_cpu_s() - cpu0;
    w.after = rt.profiler().total_counters();
    return w;
  };

  const double main_share = o.trace ? 0.4 : 1.0;
  const BatchWindow w = window(o.seconds * main_share, false);
  batch_e2e(w, setup_s, r);
  const double ops = static_cast<double>(w.lat_ms.size());
  const double cpu_ms_per_op = r.e2e["cpu_ms_per_op"];
  const double p50 = quantile(w.lat_ms, 0.5);
  r.notes.push_back("fib-fine: fib(" + std::to_string(n) + ") jobs=" +
                    std::to_string(w.lat_ms.size()) + " on " + kSpec);

  if (o.trace) {
    // Serial baseline: median of repeated serial runs of the same input.
    std::vector<double> serial_ms;
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t t0 = now_ns();
      volatile long v = xtask::bots::fib_serial(n_in);
      (void)v;
      serial_ms.push_back(secs_since(t0) * 1e3);
    }
    const double ser = median(serial_ms);
    core_counter_metrics(w.before, w.after, ops, cpu_ms_per_op, ser, r);

    const BatchWindow tw = window(o.seconds * 0.4, true);
    if (tw.ok != tw.lat_ms.size()) r.violation = true;

    // LOMP yardstick on the same job and thread count.
    std::vector<double> lomp_ms;
    {
      auto lomp = RuntimeRegistry::make_lomp(RuntimeRegistry::lomp_config(
          xtask::BackendSpec::parse("lomp:threads=3")));
      const std::uint64_t t0 = now_ns();
      for (int i = 0; secs_since(t0) < o.seconds * 0.2 || i < 20 + warm;
           ++i) {
        dl.arm("lomp fib job", o.op_deadline_s);
        const std::uint64_t a = now_ns();
        const long got = xtask::bots::fib_parallel(*lomp, n);
        const std::uint64_t b = now_ns();
        dl.disarm();
        if (got != expect) r.violation = true;
        if (i >= warm) lomp_ms.push_back(static_cast<double>(b - a) * 1e-6);
      }
    }

    std::vector<double> spawn_ns, wait_us, enter_us, exit_us;
    {
      const std::vector<spans::Span> all = spans::collect();
      std::unordered_map<std::uint64_t, const spans::Span*> runs;
      for (const spans::Span& s : all) {
        if (s.name == spans::kSpawn)
          spawn_ns.push_back(static_cast<double>(s.end - s.start));
        else if (s.name == spans::kTaskwait)
          wait_us.push_back(static_cast<double>(s.end - s.start) * 1e-3);
        else if (s.name == spans::kRun)
          runs.emplace(s.id, &s);
      }
      // A region's own cost: the run span minus its root body, split into
      // the part before the body starts and the part after it ends.
      for (const spans::Span& s : all) {
        if (s.name != spans::kRoot) continue;
        auto it = runs.find(s.parent);
        if (it == runs.end()) continue;
        enter_us.push_back(static_cast<double>(s.start - it->second->start) * 1e-3);
        exit_us.push_back(static_cast<double>(it->second->end - s.end) * 1e-3);
      }
    }

    const std::uint64_t t0 = now_ns();
    owned.reset();
    const double teardown_ms = secs_since(t0) * 1e3;

    r.layer["registry.construct_ms"] = median(construct_ms);
    r.layer["registry.teardown_ms"] = teardown_ms;
    r.layer["core.region_enter_us.p50"] = median(enter_us);
    r.layer["core.region_exit_us.p50"] = median(exit_us);
    r.layer["core.spawn_ns.p50"] = quantile(spawn_ns, 0.5);
    r.layer["core.spawn_ns.p99"] = quantile(spawn_ns, 0.99);
    r.layer["core.taskwait_us.p50"] = quantile(wait_us, 0.5);
    r.layer["core.taskwait_us.p99"] = quantile(wait_us, 0.99);
    r.layer["bots.serial_ms"] = ser;
    r.layer["bots.speedup"] = ser / p50;
    r.layer["trace.overhead_frac"] = quantile(tw.lat_ms, 0.5) / p50 - 1.0;
    r.layer["ref.lomp_latency_ms.p50"] = median(lomp_ms);
    finish_spans(o, r);
  }
  return r;
}

}  // namespace perfbench
