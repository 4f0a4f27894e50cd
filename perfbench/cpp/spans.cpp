#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench::spans {
namespace {

// Per-thread cap: bounds memory at ~12 MB per recording thread.
constexpr std::size_t kMaxPerThread = 256 * 1024;

struct Buffer {
  std::vector<Span> spans;
  std::uint64_t next = 0;
  std::uint64_t tid = 0;
  std::uint64_t dropped = 0;
};

std::mutex g_mu;  // guards g_buffers
std::vector<std::unique_ptr<Buffer>> g_buffers;

Buffer& local() {
  thread_local Buffer* buf = [] {
    std::lock_guard<std::mutex> lk(g_mu);
    g_buffers.push_back(std::make_unique<Buffer>());
    Buffer* b = g_buffers.back().get();
    b->tid = g_buffers.size();
    b->spans.reserve(4096);
    return b;
  }();
  return *buf;
}

}  // namespace

const char* name_of(std::uint16_t n) noexcept {
  static const char* const kNames[kNameCount] = {
      "op",       "core.run",     "core.root",   "core.task",
      "core.spawn", "core.taskwait", "graph.replay", "graph.node",
      "serve.submit", "serve.queue", "serve.body"};
  return n < kNameCount ? kNames[n] : "?";
}

std::uint64_t new_id() noexcept {
  Buffer& b = local();
  return (b.tid << 40) | ++b.next;
}

void record(std::uint16_t name, std::uint64_t id, std::uint64_t parent,
            std::uint64_t op, std::uint64_t start, std::uint64_t end,
            std::uint32_t arg) noexcept {
  Buffer& b = local();
  if (b.spans.size() >= kMaxPerThread) {
    ++b.dropped;
    return;
  }
  b.spans.push_back(Span{id, parent, op, start, end, arg, name});
}

std::vector<Span> collect() {
  std::lock_guard<std::mutex> lk(g_mu);
  std::vector<Span> out;
  for (const auto& b : g_buffers)
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  return out;
}

std::uint64_t dropped() noexcept {
  std::lock_guard<std::mutex> lk(g_mu);
  std::uint64_t n = 0;
  for (const auto& b : g_buffers) n += b->dropped;
  return n;
}

std::vector<LayerTime> self_times(const std::vector<Span>& spans) {
  // Children grouped by parent id; each span's self time is its length
  // minus the union of its children's intervals clipped to it (children
  // may overlap: task bodies run on several workers at once).
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      kids;
  kids.reserve(spans.size());
  for (const Span& s : spans)
    if (s.parent != 0) kids[s.parent].emplace_back(s.start, s.end);

  std::vector<LayerTime> out(kNameCount);
  for (const Span& s : spans) {
    if (s.name >= kNameCount || s.end < s.start) continue;
    const double len = static_cast<double>(s.end - s.start);
    double covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::uint64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start);
        hi = std::min(hi, s.end);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += static_cast<double>(cur_hi - cur_lo);
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += static_cast<double>(cur_hi - cur_lo);
    }
    LayerTime& lt = out[s.name];
    ++lt.count;
    lt.total_ns += len;
    lt.self_ns += len - covered;
  }
  return out;
}

bool write(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::uint64_t n = spans.size();
  bool ok = std::fwrite("PBSPANS1", 1, 8, f) == 8 &&
            std::fwrite(&n, sizeof n, 1, f) == 1 &&
            std::fwrite(spans.data(), sizeof(Span), spans.size(), f) ==
                spans.size();
  for (std::uint16_t i = 0; ok && i < kNameCount; ++i) {
    const char* s = name_of(i);
    ok = std::fwrite(s, 1, std::char_traits<char>::length(s) + 1, f) > 0;
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench::spans
