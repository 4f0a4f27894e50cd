// The four workloads and the helpers they share.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "bots/sparselu.hpp"
#include "core/common.hpp"
#include "prof/profiler.hpp"

namespace perfbench {

/// Runtimes use 3 workers on the 4-core host: the main thread (worker 0
/// or the load generator) and the OS keep a core, which measured 3x less
/// run-to-run spread than 4 workers.
inline constexpr int kThreads = 3;

/// Set-ups per run; setup_s is their median, which keeps one slow
/// set-up (a cold page or a descheduled vCPU) out of the figure.
inline constexpr int kSetupReps = 5;

/// Sparselu shape of lu-graph, and a checksum of the input matrix a seed
/// generates (for the seed-determinism check).
xtask::bots::SparseLuParams lu_params(bool tiny);
double lu_input_checksum(std::uint64_t seed, bool tiny);

Report run_fib_fine(const Options& o, Deadline& dl);
Report run_lu_graph(const Options& o, Deadline& dl);
/// `rps` is the fixed offered rate (never calibrated per run).
Report run_serve(const Options& o, Deadline& dl, double rps);

/// Seeded open-loop arrival process: exponential gaps at a fixed rate and
/// a 0.5/0.3/0.2 tenant split. `stream` separates the arrival sequences of
/// one run's phases.
class Arrivals {
 public:
  Arrivals(std::uint64_t seed, std::uint64_t stream, double rps) noexcept
      : rng_(seed * 0x100000001b3ull + stream), mean_gap_ns_(1e9 / rps) {}
  double next_gap_ns() noexcept {
    return -std::log1p(-rng_.uniform()) * mean_gap_ns_;
  }
  int next_tenant() noexcept {
    const double u = rng_.uniform();
    return u < 0.5 ? 0 : (u < 0.8 ? 1 : 2);
  }

 private:
  xtask::XorShift rng_;
  double mean_gap_ns_;
};

/// One closed-loop window of a batch workload (one client, jobs back to
/// back).
struct BatchWindow {
  std::vector<double> lat_ms;                  // wall time per job
  std::vector<std::vector<double>> by_window;  // lat_ms split by sub-window
  std::uint64_t ok = 0;                        // jobs with a correct result
  double elapsed_s = 0;
  double cpu_s = 0;                            // process CPU in the window
  xtask::Counters before, after;               // read between regions
};

/// The end-to-end metrics, attempted and failed of a batch window.
inline void batch_e2e(const BatchWindow& w, double setup_s, Report& r) {
  const double ops = static_cast<double>(w.lat_ms.size());
  r.attempted = w.lat_ms.size();
  r.failed = r.attempted - w.ok;
  r.e2e = {{"setup_s", setup_s},
           {"ok_frac", static_cast<double>(w.ok) / ops},
           {"latency_ms.p50", windowed_quantile(w.by_window, 0.5)},
           {"latency_ms.p90", windowed_quantile(w.by_window, 0.9)},
           {"throughput_per_s", static_cast<double>(w.ok) / w.elapsed_s},
           {"cpu_ms_per_op", w.cpu_s * 1e3 / ops}};
}

/// The core.* per-layer metrics derived from the runtime's own counters
/// over `ops` benchmark ops (delta = after - before, read between
/// regions). `cpu_ms_per_op` and `serial_ms_per_op` feed the per-task
/// overhead estimate.
void core_counter_metrics(const xtask::Counters& before,
                          const xtask::Counters& after, double ops,
                          double cpu_ms_per_op, double serial_ms_per_op,
                          Report& r);

/// Turn the recorded spans into a self-time table (notes) and write them
/// to `o.spans_path` when set.
void finish_spans(const Options& o, Report& r);

}  // namespace perfbench
