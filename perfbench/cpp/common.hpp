// Shared pieces of the benchmark binary: clocks, process CPU time,
// percentile helpers, the metric table every workload fills in, and the
// per-op deadline watchdog.
#pragma once

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// steady_clock in ns — the same clock TaskService stamps t_submit_ns with.
inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double secs_since(std::uint64_t t0) noexcept {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// User + system CPU time of the whole process (every thread), seconds.
inline double process_cpu_s() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Thread placement for the serve workloads, one thread per core. The
/// service has 3 threads (drain + 2 workers) and the load generator is a
/// 4th busy thread on a 4-core host. Unbound, they shared cores at times:
/// a drain thread waiting behind a spinning worker filled its rings and
/// tipped the service into throttling, and one serve-light run in three
/// had a p90 ten times the others. So each service thread gets one of the
/// first three CPUs the process may use, and the generator the rest.
/// Service threads are created inside the library, so they are found as
/// the process's new threads after the service is built. The batch
/// workloads stay unbound: there 3 busy threads share 4 cores, and
/// binding them only took away the OS's room to move a thread off a
/// descheduled vCPU (fib-fine p90 spread rose from 9% to 27%). With
/// fewer than four CPUs nothing is pinned.
class Placement {
 public:
  /// Read the process's CPU set; call once, before any pinning.
  static void init() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    if (cpus.size() < 4) return;
    Placement& p = get();
    p.runtime_.assign(cpus.begin(), cpus.begin() + 3);
    p.spare_.assign(cpus.begin() + 3, cpus.end());
    p.on_ = true;
  }
  static bool active() noexcept { return get().on_; }

  /// Pin the calling thread to the spare CPUs.
  static void spare_cpus() { pin(0, get().spare_); }

  /// Treat every current thread as placed (helpers that stay where they
  /// were created).
  static void adopt_existing() {
    for (long t : threads()) get().seen_.push_back(t);
  }
  /// Pin each thread not seen before to its own runtime CPU, starting at
  /// `first_slot`, in thread-id (creation) order.
  static void place_new_threads(int first_slot) {
    if (!get().on_) return;
    int slot = first_slot;
    for (long t : threads()) {
      auto& seen = get().seen_;
      if (std::find(seen.begin(), seen.end(), t) != seen.end()) continue;
      seen.push_back(t);
      pin(static_cast<pid_t>(t), {get().runtime_[slot++ % 3]});
    }
  }

 private:
  static Placement& get() {
    static Placement p;
    return p;
  }
  static void pin(pid_t tid, const std::vector<int>& cpus) {
    if (!get().on_) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus) CPU_SET(c, &set);
    sched_setaffinity(tid, sizeof set, &set);  // tid 0: the calling thread
  }
  /// This process's thread ids, ascending.
  static std::vector<long> threads() {
    std::vector<long> out;
    if (DIR* d = opendir("/proc/self/task")) {
      while (const dirent* e = readdir(d))
        if (e->d_name[0] != '.') out.push_back(std::atol(e->d_name));
      closedir(d);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  bool on_ = false;
  std::vector<int> runtime_, spare_;
  std::vector<long> seen_;
};

/// Linear-interpolated quantile (q in [0,1]) of unsorted samples; 0 when
/// empty. Sorts a copy.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Length of the sub-windows a run's latency percentiles are taken over.
/// The reported p50/p90 are the medians of the sub-windows' p50/p90, so
/// one disturbed stretch of a run (a descheduled vCPU) moves the figure
/// by one sub-window's vote, not by its share of the samples' tail.
inline constexpr double kSubWindowS = 2.0;

/// Sub-windows in a window of `secs` (at least one; a remainder joins
/// the last one).
inline int sub_windows(double secs) {
  return std::max(1, static_cast<int>(secs / kSubWindowS));
}

/// Median over sub-windows of the q-quantile of each; `by_window[i]`
/// holds sub-window i's samples.
inline double windowed_quantile(const std::vector<std::vector<double>>& by_window,
                                double q) {
  std::vector<double> per;
  for (const auto& w : by_window)
    if (!w.empty()) per.push_back(quantile(w, q));
  return median(per);
}

/// Log-linear latency histogram over ns values: 32 sub-buckets per
/// octave (~3% bucket width), linear interpolation inside a bucket.
/// Single-writer; merge() per-thread copies at report time. Used where a
/// run produces millions of samples (serve requests).
class Hist {
 public:
  static constexpr int kSubBits = 5;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = (65 - kSubBits) * kSub;

  void add(std::uint64_t ns) noexcept {
    ++counts_[static_cast<std::size_t>(bucket_of(ns))];
    ++n_;
    if (ns > max_) max_ = ns;
  }
  void merge(const Hist& o) noexcept {
    for (int b = 0; b < kBuckets; ++b)
      counts_[static_cast<std::size_t>(b)] += o.counts_[static_cast<std::size_t>(b)];
    n_ += o.n_;
    max_ = std::max(max_, o.max_);
  }
  std::uint64_t count() const noexcept { return n_; }
  double max_ns() const noexcept { return static_cast<double>(max_); }

  /// Quantile in ns; 0 when empty.
  double quantile_ns(double q) const noexcept {
    if (n_ == 0) return 0.0;
    const double target = q * static_cast<double>(n_ - 1);
    double seen = 0.0;
    for (int b = 0; b < kBuckets; ++b) {
      const double c = static_cast<double>(counts_[static_cast<std::size_t>(b)]);
      if (c == 0.0) continue;
      if (seen + c > target) {
        const double lo = lower(b), hi = lower(b + 1);
        return lo + (hi - lo) * ((target - seen + 0.5) / c);
      }
      seen += c;
    }
    return static_cast<double>(max_);
  }

 private:
  static int bucket_of(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<int>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - kSubBits;
    return (shift + 1) * kSub + static_cast<int>((v >> shift) & (kSub - 1));
  }
  static double lower(int b) noexcept {
    if (b < kSub) return static_cast<double>(b);
    const int shift = b / kSub - 1;
    const int sub = b % kSub;
    return std::ldexp(static_cast<double>(kSub + sub), shift);
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t n_ = 0;
  std::uint64_t max_ = 0;
};

/// What every workload reports. `e2e` holds the end-to-end metrics of the
/// untraced window; `layer` the per-layer metrics of a traced run (names
/// the workload does not exercise are filled with 0 by main).
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;   // ops whose output was wrong or missing
  bool violation = false;     // any correctness check failed
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::vector<std::string> notes;  // printed as "# " lines before the JSON
};

/// Command-line options the workloads see. Inputs come only from `seed`.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;          // shrunken inputs for the benchmark's tests
  long inject_wrong = -1;     // corrupt the result of this op index
  std::string spans_path;     // where a traced run writes its spans
  double op_deadline_s = 20.0;
};

/// Per-op deadline: a monitor thread that ends the process (exit code 3)
/// when an armed op runs past its deadline, so a hang is reported as a
/// failed run instead of stalling the caller. Never retried.
class Deadline {
 public:
  Deadline() : th_([this] { loop(); }) {}
  ~Deadline() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      quit_ = true;
    }
    cv_.notify_all();
    th_.join();
  }
  Deadline(const Deadline&) = delete;
  Deadline& operator=(const Deadline&) = delete;

  void arm(const char* what, double seconds) noexcept {
    what_.store(what, std::memory_order_relaxed);
    due_.store(now_ns() + static_cast<std::uint64_t>(seconds * 1e9),
               std::memory_order_release);
  }
  void disarm() noexcept { due_.store(0, std::memory_order_release); }

 private:
  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    while (!quit_) {
      cv_.wait_for(lk, std::chrono::milliseconds(50));
      const std::uint64_t due = due_.load(std::memory_order_acquire);
      if (due != 0 && now_ns() > due) {
        std::fprintf(stderr, "perfbench: op '%s' passed its deadline\n",
                     what_.load(std::memory_order_relaxed));
        std::fflush(stderr);
        _exit(3);
      }
    }
  }

  std::atomic<std::uint64_t> due_{0};
  std::atomic<const char*> what_{""};
  std::mutex mu_;
  std::condition_variable cv_;
  bool quit_ = false;
  std::thread th_;  // last: starts after the members it reads
};

/// Run the set-up `reps` times, keep the last result, and return the
/// median set-up time (s). `make` returns the workload state; earlier
/// states are destroyed, so their teardown is not part of set-up.
template <typename Make>
auto repeated_setup(int reps, Make&& make, double* setup_s) {
  std::vector<double> times;
  auto t0 = now_ns();
  auto state = make();
  times.push_back(secs_since(t0));
  for (int r = 1; r < reps; ++r) {
    state.reset();
    t0 = now_ns();
    state = make();
    times.push_back(secs_since(t0));
  }
  *setup_s = median(times);
  return state;
}

}  // namespace perfbench
