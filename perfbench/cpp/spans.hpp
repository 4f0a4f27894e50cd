// In-memory spans for the traced run. Every call the benchmark makes into
// a layer (region, task body, spawn, taskwait, graph replay, graph node,
// submit, request queue wait and body) can record one span: name, start,
// end, parent span, op id. Spans go to per-thread buffers (no shared
// cache line on the recording path), stay in memory, and are written out
// once at exit. A layer's self time is its span minus the part of that
// interval its child spans cover.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::spans {

enum Name : std::uint16_t {
  kOp = 0,     // one benchmark op: a job, a replay, or a request
  kRun,        // Runtime::run / LompRuntime::run call
  kRoot,       // root task body of a region
  kTask,       // a spawned task body
  kSpawn,      // TaskContext::spawn call
  kTaskwait,   // TaskContext::taskwait call
  kReplay,     // TaskGraph::replay call
  kNode,       // one graph node body
  kSubmit,     // TaskService::submit call
  kQueue,      // admission stamp -> request body start
  kBody,       // request body
  kNameCount,
};

const char* name_of(std::uint16_t n) noexcept;

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: no parent
  std::uint64_t op = 0;
  std::uint64_t start = 0;   // steady_clock ns
  std::uint64_t end = 0;
  std::uint32_t arg = 0;     // node index / request tenant
  std::uint16_t name = 0;
};

/// A fresh span id, unique across threads (never 0).
std::uint64_t new_id() noexcept;

/// Append one span to this thread's buffer. A buffer that reaches its cap
/// counts the span as dropped instead of growing further.
void record(std::uint16_t name, std::uint64_t id, std::uint64_t parent,
            std::uint64_t op, std::uint64_t start, std::uint64_t end,
            std::uint32_t arg = 0) noexcept;

/// All recorded spans. Call only when no thread is recording.
std::vector<Span> collect();
std::uint64_t dropped() noexcept;

/// Per span name: count, summed duration, summed self time (ns).
struct LayerTime {
  std::uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
};
std::vector<LayerTime> self_times(const std::vector<Span>& spans);

/// Binary dump: "PBSPANS1", u64 count, then `count` Span records as laid
/// out above, then the name table as NUL-separated strings. Returns false
/// on I/O failure.
bool write(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench::spans
