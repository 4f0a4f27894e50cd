// The repository benchmark binary. One workload per invocation:
//
//   perfbench --workload fib-fine|lu-graph|serve-light|serve-overload
//             --seed N --seconds S --trace 0|1
//             [--tiny] [--inject-wrong K] [--spans PATH] [--print-inputs]
//
// With --trace 0 it prints the end-to-end metrics of one untraced window;
// with --trace 1 it prints the per-layer metrics of a traced run (an
// untraced and a traced window of the same set-up, so the tracing
// overhead is measured too). The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit code 0 only when
// every result was correct; 2 on a wrong result or broken accounting,
// 3 when an op passed its deadline.
#include <cstdlib>
#include <string>

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ok_frac", "frac"},
    {"latency_ms.p50", "ms"},
    {"latency_ms.p90", "ms"},
    {"throughput_per_s", "1/s"},
    {"cpu_ms_per_op", "ms"},
};

// Every name is printed on every workload's traced run; a layer the
// workload does not exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"registry.construct_ms", "ms"},
    {"registry.teardown_ms", "ms"},
    {"core.region_enter_us.p50", "us"},
    {"core.region_exit_us.p50", "us"},
    {"core.spawn_ns.p50", "ns"},
    {"core.spawn_ns.p99", "ns"},
    {"core.taskwait_us.p50", "us"},
    {"core.taskwait_us.p99", "us"},
    {"core.overhead_ns_per_task", "ns"},
    {"core.imm_exec_frac", "frac"},
    {"core.overflow_inline_per_op", "1/op"},
    {"core.steal_req_per_ktask", "1/ktask"},
    {"core.steal_hit_frac", "frac"},
    {"core.remote_frac", "frac"},
    {"core.idle_yields_per_op", "1/op"},
    {"core.tasks_per_op", "1/op"},
    {"core.mode_switches_per_op", "1/op"},
    {"graph.capture_ms", "ms"},
    {"graph.release_wait_us.p50", "us"},
    {"graph.release_wait_us.p99", "us"},
    {"graph.busy_frac", "frac"},
    {"graph.nodes", "count"},
    {"graph.edges", "count"},
    {"graph.parallelism", "x"},
    {"bots.serial_ms", "ms"},
    {"bots.speedup", "x"},
    {"bots.node_body_us.p50", "us"},
    {"bots.lu_gflops", "GFLOP/s"},
    {"serve.construct_ms", "ms"},
    {"serve.stop_ms", "ms"},
    {"serve.submit_ns.p50", "ns"},
    {"serve.submit_ns.p99", "ns"},
    {"serve.queue_us.p50", "us"},
    {"serve.queue_us.p99", "us"},
    {"serve.exec_us.p50", "us"},
    {"serve.reject_frac", "frac"},
    {"serve.shed_frac", "frac"},
    {"serve.state_entries.throttle", "count"},
    {"serve.state_entries.shed", "count"},
    {"serve.state_entries.reject", "count"},
    {"serve.admission_factor.mean", "frac"},
    {"serve.ring_depth.max", "count"},
    {"serve.in_flight.max", "count"},
    {"serve.latency_ms.p99", "ms"},
    {"serve.gen_late_us.p99", "us"},
    {"serve.gen_late_us.max", "us"},
    {"trace.overhead_frac", "frac"},
    {"ref.lomp_latency_ms.p50", "ms"},
};

// Fixed offered rates: ~20% and ~150% of the ~1.0M rps executed capacity
// measured at 3 workers. Never calibrated per run.
constexpr double kLightRps = 200'000;
constexpr double kOverloadRps = 1'500'000;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fib-fine|lu-graph|serve-light|serve-overload --seed N "
               "--seconds S --trace 0|1 [--tiny] [--inject-wrong K] "
               "[--spans PATH] [--print-inputs]\n",
               why);
  std::exit(64);
}

/// Fingerprint of the generated inputs for a seed: the initial LU matrix
/// checksum and a hash of the first serve arrivals.
void print_inputs(const Options& o) {
  Arrivals a(o.seed, 0, kLightRps);
  std::uint64_t h = 1469598103934665603ull;
  for (int i = 0; i < 4096; ++i) {
    const auto gap = static_cast<std::uint64_t>(a.next_gap_ns() * 1024);
    h = (h ^ gap ^ static_cast<std::uint64_t>(a.next_tenant())) * 1099511628211ull;
  }
  std::printf("{\"lu_matrix_checksum\": %.17g, \"serve_arrivals_hash\": \"%016llx\"}\n",
              lu_input_checksum(o.seed, o.tiny), static_cast<unsigned long long>(h));
}

void print_json(const Report& r, bool trace) {
  const bool correct = !r.violation && r.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  const auto print_all = [](const auto& defs, const std::map<std::string, double>& vals) {
    bool first = true;
    for (const MetricDef& d : defs) {
      auto it = vals.find(d.name);
      const double v = it == vals.end() ? 0.0 : it->second;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                  d.name, std::isfinite(v) ? v : 0.0, d.unit);
      first = false;
    }
  };
  if (trace)
    print_all(kPerLayer, r.layer);
  else
    print_all(kEndToEnd, r.e2e);
  std::printf("}}\n");
}

}  // namespace

void core_counter_metrics(const xtask::Counters& b, const xtask::Counters& a,
                          double ops, double cpu_ms_per_op,
                          double serial_ms_per_op, Report& r) {
  const auto d = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  const double created = d(a.ntasks_created, b.ntasks_created);
  const double executed = d(a.ntasks_executed, b.ntasks_executed);
  const double self = d(a.ntasks_self, b.ntasks_self);
  const double off = d(a.ntasks_local, b.ntasks_local) +
                     d(a.ntasks_remote, b.ntasks_remote);
  const double handled = d(a.nreq_handled, b.nreq_handled);
  const double tasks_per_op = created / ops;
  r.layer["core.tasks_per_op"] = tasks_per_op;
  r.layer["core.overhead_ns_per_task"] =
      tasks_per_op > 0 ? (cpu_ms_per_op - serial_ms_per_op) * 1e6 / tasks_per_op : 0;
  r.layer["core.imm_exec_frac"] =
      created > 0 ? d(a.ntasks_imm_exec, b.ntasks_imm_exec) / created : 0;
  r.layer["core.overflow_inline_per_op"] = d(a.overflow.total, b.overflow.total) / ops;
  r.layer["core.steal_req_per_ktask"] =
      executed > 0 ? d(a.nreq_sent, b.nreq_sent) * 1e3 / executed : 0;
  r.layer["core.steal_hit_frac"] =
      handled > 0 ? d(a.nreq_has_steal, b.nreq_has_steal) / handled : 0;
  r.layer["core.remote_frac"] = self + off > 0 ? off / (self + off) : 0;
  r.layer["core.idle_yields_per_op"] = d(a.nidle_yields, b.nidle_yields) / ops;
  r.layer["core.mode_switches_per_op"] = d(a.nmode_switches, b.nmode_switches) / ops;
}

void finish_spans(const Options& o, Report& r) {
  const std::vector<spans::Span> all = spans::collect();
  const std::vector<spans::LayerTime> lt = spans::self_times(all);
  char buf[200];
  for (std::uint16_t n = 0; n < spans::kNameCount; ++n) {
    if (lt[n].count == 0) continue;
    std::snprintf(buf, sizeof buf, "span %-14s n=%-9llu total_ms=%-12.3f self_ms=%.3f",
                  spans::name_of(n), static_cast<unsigned long long>(lt[n].count),
                  lt[n].total_ns * 1e-6, lt[n].self_ns * 1e-6);
    r.notes.push_back(buf);
  }
  r.notes.push_back("spans kept=" + std::to_string(all.size()) +
                    " dropped_at_cap=" + std::to_string(spans::dropped()));
  if (!o.spans_path.empty()) {
    if (spans::write(o.spans_path, all))
      r.notes.push_back("spans written to " + o.spans_path);
    else
      r.notes.push_back("could not write spans to " + o.spans_path);
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  bool print_inputs_only = false;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
      have_seconds = true;
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--inject-wrong") {
      o.inject_wrong = std::strtol(value().c_str(), nullptr, 10);
    } else if (a == "--spans") {
      o.spans_path = value();
    } else if (a == "--print-inputs") {
      print_inputs_only = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed) usage("--seed is required");
  if (print_inputs_only) {
    print_inputs(o);
    return 0;
  }
  if (!have_workload || !have_seconds || !(o.seconds > 0))
    usage("--workload and a positive --seconds are required");

  Placement::init();
  Report r;
  {
    Deadline dl;
    Placement::adopt_existing();
    if (o.workload == "fib-fine")
      r = run_fib_fine(o, dl);
    else if (o.workload == "lu-graph")
      r = run_lu_graph(o, dl);
    else if (o.workload == "serve-light")
      r = run_serve(o, dl, kLightRps);
    else if (o.workload == "serve-overload")
      r = run_serve(o, dl, kOverloadRps);
    else
      usage(("unknown workload " + o.workload).c_str());
  }
  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  print_json(r, o.trace);
  std::fflush(stdout);
  return (r.violation || r.failed != 0) ? 2 : 0;
}
