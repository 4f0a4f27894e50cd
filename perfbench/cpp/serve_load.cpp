// serve-light / serve-overload: open-loop Poisson arrivals at a fixed
// absolute rate into a TaskService, generated by the main thread. Each
// request spins for 2 us. Three tenants split the load 0.5/0.3/0.2 with
// priorities 5/3/0; their token-bucket rates sit above both offered
// rates, so admission only acts through the pressure state machine.
// Latency runs from each request's due time (not its submit time) to the
// end of its body, so a stalled generator shows up as latency.
#include <atomic>
#include <memory>
#include <new>

#include "registry/registry.hpp"
#include "serve/service.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using xtask::serve::Request;
using xtask::serve::ServeConfig;
using xtask::serve::ServiceState;
using xtask::serve::TaskService;
using xtask::serve::TenantStats;

constexpr const char* kSpec = "xtask:dlb=naws,tint=128,threads=3";
constexpr std::uint64_t kWorkNs = 2000;
constexpr int kTenants = 3;
// One request in kStride is traced (spans for submit, queue, body).
constexpr std::uint64_t kStride = 32;

constexpr int kMaxWindows = 32;  // sub-windows per phase (the last absorbs the rest)

/// Per-worker sinks of the request bodies (single writer each).
struct alignas(64) Slot {
  Hist lat[2][kMaxWindows];         // due -> body end, per phase and sub-window
  std::uint64_t in_window[2] = {};  // completed before the phase's end
  std::uint64_t done[2] = {};       // bodies run, per phase
  std::uint64_t bodies = 0;         // every body this service ran
};

/// What request bodies read: phase seq ranges and window ends. Written by
/// the generator before the requests they classify are submitted.
struct Shared {
  std::atomic<std::uint64_t> lo[2];
  std::atomic<std::uint64_t> hi[2];
  std::atomic<std::uint64_t> end_ns[2];
  std::atomic<std::uint64_t> t0_ns[2];  // phase start (sub-window origin)
  std::atomic<int> windows[2];
  std::atomic<bool> traced{false};
  std::atomic<std::uint64_t> inject_seq{~0ull};  // body that "loses" its count
  static constexpr int kSlots = 8;
  Slot slots[kSlots];
  std::atomic<int> next_slot{0};

  void reset() {
    for (int p = 0; p < 2; ++p) {
      lo[p] = ~0ull;
      hi[p] = ~0ull;
      end_ns[p] = ~0ull;
      t0_ns[p] = 0;
      windows[p] = 1;
    }
    for (Slot& s : slots) new (&s) Slot();  // ~1 MB each: no temporary
    inject_seq = ~0ull;
    next_slot = 0;
  }
};
Shared g_shared;

Slot& my_slot() {
  thread_local Slot* s = &g_shared.slots[std::min(
      g_shared.next_slot.fetch_add(1), Shared::kSlots - 1)];
  return *s;
}

void request_body(const Request& req) {
  const std::uint64_t start = now_ns();
  while (now_ns() - start < kWorkNs) xtask::cpu_pause();
  const std::uint64_t end = now_ns();
  Slot& s = my_slot();
  if (req.b != g_shared.inject_seq.load(std::memory_order_relaxed)) ++s.bodies;
  for (int p = 0; p < 2; ++p) {
    if (req.b < g_shared.lo[p].load(std::memory_order_relaxed) ||
        req.b >= g_shared.hi[p].load(std::memory_order_relaxed))
      continue;
    const auto win = static_cast<int>(
        static_cast<double>(req.a - g_shared.t0_ns[p].load(std::memory_order_relaxed)) *
        1e-9 / kSubWindowS);
    s.lat[p][std::min(win, g_shared.windows[p].load(std::memory_order_relaxed) - 1)].add(
        end - req.a);
    ++s.done[p];
    if (end <= g_shared.end_ns[p].load(std::memory_order_relaxed))
      ++s.in_window[p];
  }
  if (req.b % kStride == 0 && g_shared.traced.load(std::memory_order_relaxed)) {
    const std::uint64_t op_id = (1ull << 62) | req.b;
    spans::record(spans::kQueue, spans::new_id(), op_id, req.b,
                  req.t_submit_ns, start, req.tenant);
    spans::record(spans::kBody, spans::new_id(), op_id, req.b, start, end,
                  req.tenant);
    spans::record(spans::kOp, op_id, 0, req.b, req.a, end, req.tenant);
  }
}

ServeConfig make_config() {
  struct Mix {
    const char* name;
    int prio;
  };
  constexpr Mix kMix[kTenants] = {{"interactive", 5}, {"standard", 3}, {"bulk", 0}};
  ServeConfig cfg;
  cfg.runtime_spec = kSpec;
  for (const Mix& m : kMix) {
    xtask::TenantSpec t;
    t.name = m.name;
    t.rate = 4'000'000;  // above both offered rates' shares
    t.quota = 65'536;
    t.priority = m.prio;
    cfg.tenants.push_back(t);
  }
  return cfg;
}

/// Generator statistics of one phase.
struct Gen {
  std::uint64_t submitted = 0;
  Hist late, submit_ns;
  double admission_sum = 0;
  std::uint64_t admission_samples = 0;
  std::uint64_t ring_depth_max = 0, in_flight_max = 0;
  double elapsed_s = 0;
  double cpu_s = 0;
};

struct State {
  std::unique_ptr<TaskService> svc;
  std::uint64_t next_seq = 0;
};

}  // namespace

Report run_serve(const Options& o, Deadline& dl, double rps) {
  Report r;
  std::uint64_t stream = 0;

  // Open-loop generation for `secs` into phase `phase` (-1: warm-up).
  auto generate = [&](State& st, double secs, int phase, bool traced) {
    Gen g;
    Arrivals arr(o.seed, stream++, rps);
    TaskService& svc = *st.svc;
    const std::uint64_t t0 = now_ns() + 100'000;
    const std::uint64_t t_end = t0 + static_cast<std::uint64_t>(secs * 1e9);
    if (phase >= 0) {
      g_shared.lo[phase].store(st.next_seq);
      g_shared.hi[phase].store(~0ull);
      g_shared.end_ns[phase].store(t_end);
      g_shared.t0_ns[phase].store(t0);
      g_shared.windows[phase].store(std::min(sub_windows(secs), kMaxWindows));
      if (phase == 0 && o.inject_wrong >= 0)
        g_shared.inject_seq.store(st.next_seq +
                                  static_cast<std::uint64_t>(o.inject_wrong));
    }
    dl.arm("serve generator", secs + o.op_deadline_s);
    const double cpu0 = process_cpu_s();
    double due_f = static_cast<double>(t0);
    for (;;) {
      due_f += arr.next_gap_ns();
      const auto due = static_cast<std::uint64_t>(due_f);
      const int tenant = arr.next_tenant();
      if (due >= t_end) break;
      std::uint64_t now = now_ns();
      while (now < due) {
        xtask::cpu_pause();
        now = now_ns();
      }
      g.late.add(now - due);
      Request req;
      req.fn = request_body;
      req.a = due;
      req.b = st.next_seq++;
      svc.submit(tenant, req);
      ++g.submitted;
      if (traced) {
        const std::uint64_t after = now_ns();
        g.submit_ns.add(after - now);
        if (req.b % kStride == 0)
          spans::record(spans::kSubmit, spans::new_id(), (1ull << 62) | req.b,
                        req.b, now, after, static_cast<std::uint32_t>(tenant));
        if ((g.submitted & 4095) == 0) {
          g.admission_sum += svc.admission_factor();
          ++g.admission_samples;
          for (int t = 0; t < kTenants; ++t) {
            const TenantStats ts = svc.tenant_stats(t);
            g.ring_depth_max = std::max<std::uint64_t>(g.ring_depth_max, ts.ring_depth);
            g.in_flight_max = std::max(g.in_flight_max, ts.in_flight);
          }
        }
      }
    }
    g.elapsed_s = static_cast<double>(t_end - t0) * 1e-9;
    g.cpu_s = process_cpu_s() - cpu0;
    dl.disarm();
    if (phase >= 0) g_shared.hi[phase].store(st.next_seq);
    return g;
  };
  // Wait until everything admitted so far has run or been shed.
  auto drain = [&](TaskService& svc) {
    dl.arm("serve drain", o.op_deadline_s);
    while (svc.totals().in_flight != 0)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    dl.disarm();
  };

  std::vector<double> construct_ms;
  double setup_s = 0;
  Placement::spare_cpus();  // this thread is the generator
  auto make = [&] {
    g_shared.reset();
    auto s = std::make_unique<State>();
    const std::uint64_t t0 = now_ns();
    s->svc = std::make_unique<TaskService>(make_config());
    construct_ms.push_back(secs_since(t0) * 1e3);
    Placement::place_new_threads(0);
    generate(*s, o.tiny ? 0.02 : 0.1, -1, false);
    drain(*s->svc);
    return s;
  };
  std::unique_ptr<State> st = repeated_setup(kSetupReps, make, &setup_s);
  TaskService& svc = *st->svc;

  const TenantStats before = svc.totals();
  std::uint64_t entries0[4];
  for (int s = 0; s < 4; ++s) entries0[s] = svc.state_entries(static_cast<ServiceState>(s));

  const double main_share = o.trace ? 0.5 : 1.0;
  const Gen g0 = generate(*st, o.seconds * main_share, 0, false);
  drain(svc);
  const TenantStats mid = svc.totals();
  Gen g1;
  if (o.trace) {
    g_shared.traced.store(true);
    g1 = generate(*st, o.seconds * 0.5, 1, true);
    drain(svc);
    g_shared.traced.store(false);
  }
  const TenantStats after = svc.totals();

  dl.arm("serve stop", o.op_deadline_s);
  std::uint64_t t0 = now_ns();
  svc.stop();
  const double stop_ms = secs_since(t0) * 1e3;
  dl.disarm();

  // Closed accounting after stop(), per tenant and in total, and one body
  // per executed request.
  std::uint64_t bodies = 0, done[2] = {}, in_window[2] = {};
  Hist lat[2];                       // whole phase
  std::vector<double> win_p50, win_p90;  // per sub-window of phase 0
  for (int w = 0; w < kMaxWindows; ++w) {
    Hist h;
    for (const Slot& s : g_shared.slots) h.merge(s.lat[0][w]);
    if (h.count() == 0) continue;
    win_p50.push_back(h.quantile_ns(0.5) * 1e-6);
    win_p90.push_back(h.quantile_ns(0.9) * 1e-6);
  }
  for (const Slot& s : g_shared.slots) {
    bodies += s.bodies;
    for (int p = 0; p < 2; ++p) {
      done[p] += s.done[p];
      in_window[p] += s.in_window[p];
      for (const Hist& h : s.lat[p]) lat[p].merge(h);
    }
  }
  const TenantStats fin = svc.totals();
  auto closed = [](const TenantStats& t) {
    return t.submitted == t.executed + t.shed + t.rejected + t.orphaned &&
           t.in_flight == 0;
  };
  for (int t = 0; t < kTenants; ++t)
    if (!closed(svc.tenant_stats(t))) r.violation = true;
  if (!closed(fin)) r.violation = true;
  std::uint64_t missing = bodies > fin.executed ? bodies - fin.executed
                                                : fin.executed - bodies;
  const std::uint64_t w_sub = mid.submitted - before.submitted;
  const std::uint64_t w_exec = mid.executed - before.executed;
  if (w_sub != g0.submitted) r.violation = true;
  if (done[0] != w_exec) missing = std::max<std::uint64_t>(
      missing, done[0] > w_exec ? done[0] - w_exec : w_exec - done[0]);
  if (missing != 0) r.violation = true;

  r.attempted = w_sub;
  r.failed = std::min(missing, w_sub);
  const double ok = static_cast<double>(w_exec - std::min(w_exec, r.failed));
  const double p50 = lat[0].quantile_ns(0.5) * 1e-6;
  r.e2e = {{"setup_s", setup_s},
           {"ok_frac", ok / static_cast<double>(w_sub)},
           {"latency_ms.p50", median(win_p50)},
           {"latency_ms.p90", median(win_p90)},
           {"throughput_per_s", static_cast<double>(in_window[0]) / g0.elapsed_s},
           {"cpu_ms_per_op", g0.cpu_s * 1e3 / static_cast<double>(w_sub)}};
  r.notes.push_back(Placement::active()
                        ? "placement: service threads one per CPU on 3 CPUs, the generator on the rest"
                        : "placement: fewer than 4 CPUs, nothing pinned");
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "serve: offered=%.0f rps submitted=%llu executed=%llu "
                "rejected=%llu shed=%llu latency samples=%llu whole-window "
                "p90=%.4f ms on %s",
                rps, static_cast<unsigned long long>(w_sub),
                static_cast<unsigned long long>(w_exec),
                static_cast<unsigned long long>(mid.rejected - before.rejected),
                static_cast<unsigned long long>(mid.shed - before.shed),
                static_cast<unsigned long long>(lat[0].count()),
                lat[0].quantile_ns(0.9) * 1e-6, kSpec);
  r.notes.push_back(buf);

  if (o.trace) {
    r.notes.push_back("trace: serve requests sampled at stride " +
                      std::to_string(kStride) + " (seq % " +
                      std::to_string(kStride) + " == 0)");
    // Counters are read after stop(), so they cover the service's whole
    // life: warm-up and both phases.
    const xtask::Counters c = svc.runtime().profiler().total_counters();
    core_counter_metrics(xtask::Counters{}, c, static_cast<double>(fin.submitted),
                         r.e2e["cpu_ms_per_op"], static_cast<double>(kWorkNs) * 1e-6, r);

    std::vector<double> queue_us, exec_us;
    for (const spans::Span& s : spans::collect()) {
      if (s.name == spans::kQueue)
        queue_us.push_back(static_cast<double>(s.end - s.start) * 1e-3);
      else if (s.name == spans::kBody)
        exec_us.push_back(static_cast<double>(s.end - s.start) * 1e-3);
    }
    const double sub = static_cast<double>(after.submitted - before.submitted);
    r.layer["serve.construct_ms"] = median(construct_ms);
    r.layer["serve.stop_ms"] = stop_ms;
    r.layer["serve.submit_ns.p50"] = g1.submit_ns.quantile_ns(0.5);
    r.layer["serve.submit_ns.p99"] = g1.submit_ns.quantile_ns(0.99);
    r.layer["serve.queue_us.p50"] = quantile(queue_us, 0.5);
    r.layer["serve.queue_us.p99"] = quantile(queue_us, 0.99);
    r.layer["serve.exec_us.p50"] = quantile(exec_us, 0.5);
    r.layer["serve.reject_frac"] =
        static_cast<double>(after.rejected - before.rejected) / sub;
    r.layer["serve.shed_frac"] = static_cast<double>(after.shed - before.shed) / sub;
    const char* names[4] = {"accept", "throttle", "shed", "reject"};
    for (int s = 1; s < 4; ++s)
      r.layer[std::string("serve.state_entries.") + names[s]] = static_cast<double>(
          svc.state_entries(static_cast<ServiceState>(s)) - entries0[s]);
    r.layer["serve.admission_factor.mean"] =
        g1.admission_samples ? g1.admission_sum / static_cast<double>(g1.admission_samples)
                             : 0.0;
    r.layer["serve.ring_depth.max"] = static_cast<double>(g1.ring_depth_max);
    r.layer["serve.in_flight.max"] = static_cast<double>(g1.in_flight_max);
    r.layer["serve.latency_ms.p99"] = lat[0].quantile_ns(0.99) * 1e-6;
    r.layer["serve.gen_late_us.p99"] = g0.late.quantile_ns(0.99) * 1e-3;
    r.layer["serve.gen_late_us.max"] = g0.late.max_ns() * 1e-3;
    r.layer["trace.overhead_frac"] = lat[1].quantile_ns(0.5) * 1e-6 / p50 - 1.0;

    st.reset();
    // The service builds its runtime inside its constructor; time the
    // registry's part on a standalone runtime of the same spec.
    t0 = now_ns();
    auto rt = xtask::RuntimeRegistry::make_xtask(
        xtask::RuntimeRegistry::xtask_config(xtask::BackendSpec::parse(kSpec)));
    r.layer["registry.construct_ms"] = secs_since(t0) * 1e3;
    t0 = now_ns();
    rt.reset();
    r.layer["registry.teardown_ms"] = secs_since(t0) * 1e3;
    finish_spans(o, r);
  }
  return r;
}

}  // namespace perfbench
