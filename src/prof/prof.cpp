#include "prof/prof.h"

#include "obs/json.h"
#include "obs/obs.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

namespace upaq::prof {

namespace {

// -1 = unresolved, 0 = off, 1 = on. Resolved once from UPAQ_TRACE; after
// that every enabled() call is a single relaxed load.
std::atomic<int> g_enabled{-1};

int resolve_enabled_slow() {
  const char* s = std::getenv("UPAQ_TRACE");
  const int on = (s != nullptr && s[0] != '\0' && !(s[0] == '0' && s[1] == '\0'))
                     ? 1
                     : 0;
  int expected = -1;
  g_enabled.compare_exchange_strong(expected, on, std::memory_order_relaxed);
  return g_enabled.load(std::memory_order_relaxed);
}

std::atomic<std::uint64_t> g_counters[static_cast<int>(Counter::kCount)];

/// Per-thread event buffer. Owned jointly by the recording thread (via a
/// thread_local shared_ptr) and the global registry, so events survive the
/// thread's exit until the next reset().
struct ThreadBuf {
  std::mutex mutex;  ///< appends vs snapshot/reset from other threads
  std::vector<Event> events;
  std::uint64_t tid = 0;
  std::string name;
  int depth = 0;  ///< live span nesting depth (recording thread only)
};

std::mutex g_registry_mutex;
std::vector<std::shared_ptr<ThreadBuf>>& registry() {
  static auto* r = new std::vector<std::shared_ptr<ThreadBuf>>();
  return *r;
}
std::uint64_t g_next_tid = 0;

ThreadBuf& thread_buf() {
  thread_local std::shared_ptr<ThreadBuf> buf = [] {
    auto b = std::make_shared<ThreadBuf>();
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    b->tid = g_next_tid++;
    registry().push_back(b);
    return b;
  }();
  return *buf;
}

std::mutex g_meta_mutex;
std::map<std::string, std::string>& meta_map() {
  static auto* m = new std::map<std::string, std::string>();
  return *m;
}

}  // namespace

bool enabled() {
  const int s = g_enabled.load(std::memory_order_relaxed);
  if (s >= 0) return s == 1;
  return resolve_enabled_slow() == 1;
}

void set_enabled(bool on) {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kGemmFlops: return "gemm_flops";
    case Counter::kIm2colBytes: return "im2col_bytes";
    case Counter::kActQuantCalls: return "act_quant_calls";
    case Counter::kPackedSegments: return "packed_segments";
    case Counter::kPoolJobs: return "pool_jobs";
    case Counter::kPoolTasks: return "pool_tasks";
    case Counter::kGemmKernelCalls: return "gemm_kernel_calls";
    case Counter::kWorkspaceBytes: return "workspace_bytes";
    case Counter::kQgemmMacs: return "qgemm_macs";
    case Counter::kPanelBuilds: return "panel_builds";
    case Counter::kCount: break;
  }
  return "?";
}

void add(Counter c, std::uint64_t n) {
  if (!enabled()) return;
  g_counters[static_cast<int>(c)].fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t counter_value(Counter c) {
  return g_counters[static_cast<int>(c)].load(std::memory_order_relaxed);
}

void Span::open(const char* name, std::string detail) {
  name_ = name;
  detail_ = std::move(detail);
  ThreadBuf& buf = thread_buf();
  depth_ = ++buf.depth;
  start_ns_ = obs::now_ns();
}

Span::Span(const char* name) {
  if (enabled()) open(name, {});
}

Span::Span(const char* name, std::string detail) {
  if (enabled()) open(name, std::move(detail));
}

Span::Span(std::string name, std::string detail) {
  if (enabled()) {
    // Reuse open() for the bookkeeping; the string is moved in afterwards to
    // avoid a copy through the const char* path.
    open("", std::move(detail));
    name_ = std::move(name);
  }
}

Span::~Span() {
  if (start_ns_ < 0) return;
  const std::int64_t end = obs::now_ns();
  ThreadBuf& buf = thread_buf();
  --buf.depth;
  Event e;
  e.name = std::move(name_);
  e.detail = std::move(detail_);
  e.tid = buf.tid;
  e.start_ns = start_ns_;
  e.dur_ns = end - start_ns_;
  e.depth = depth_;
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.events.push_back(std::move(e));
}

void set_thread_name(std::string name) {
  ThreadBuf& buf = thread_buf();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.name = std::move(name);
}

void set_metadata(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(g_meta_mutex);
  meta_map()[key] = value;
}

std::vector<std::pair<std::string, std::string>> metadata() {
  std::lock_guard<std::mutex> lock(g_meta_mutex);
  return {meta_map().begin(), meta_map().end()};
}

std::vector<Event> snapshot_events() {
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    bufs = registry();
  }
  std::vector<Event> out;
  for (const auto& b : bufs) {
    std::lock_guard<std::mutex> lock(b->mutex);
    out.insert(out.end(), b->events.begin(), b->events.end());
  }
  return out;
}

std::vector<std::pair<std::uint64_t, std::string>> thread_names() {
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    bufs = registry();
  }
  std::vector<std::pair<std::uint64_t, std::string>> out;
  for (const auto& b : bufs) {
    std::lock_guard<std::mutex> lock(b->mutex);
    if (!b->name.empty()) out.emplace_back(b->tid, b->name);
  }
  return out;
}

void reset() {
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    bufs = registry();
  }
  for (const auto& b : bufs) {
    std::lock_guard<std::mutex> lock(b->mutex);
    b->events.clear();
  }
  for (auto& c : g_counters) c.store(0, std::memory_order_relaxed);
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  const double clamped = std::min(std::max(q, 0.0), 1.0);
  const double rank = clamped * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

std::vector<SpanStats> aggregate(const std::vector<Event>& events) {
  std::map<std::string, std::vector<double>> by_name;
  for (const auto& e : events)
    by_name[e.name].push_back(static_cast<double>(e.dur_ns) * 1e-6);
  std::vector<SpanStats> out;
  for (auto& [name, durs] : by_name) {
    std::sort(durs.begin(), durs.end());
    SpanStats s;
    s.name = name;
    s.count = static_cast<std::int64_t>(durs.size());
    double total = 0;
    for (auto d : durs) total += d;
    s.total_ms = total;
    s.mean_ms = s.total_ms / static_cast<double>(s.count);
    s.p50_ms = percentile(durs, 0.50);
    s.p90_ms = percentile(durs, 0.90);
    s.p99_ms = percentile(durs, 0.99);
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(), [](const SpanStats& a, const SpanStats& b) {
    return a.total_ms > b.total_ms;
  });
  return out;
}

std::string stats_table(const std::vector<SpanStats>& stats,
                        std::size_t max_rows) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-32s %8s %12s %10s %10s %10s %10s\n",
                "span", "count", "total ms", "mean ms", "p50 ms", "p90 ms",
                "p99 ms");
  out += line;
  const std::size_t rows =
      max_rows == 0 ? stats.size() : std::min(max_rows, stats.size());
  for (std::size_t i = 0; i < rows; ++i) {
    const auto& s = stats[i];
    std::snprintf(line, sizeof(line),
                  "%-32s %8lld %12.3f %10.4f %10.4f %10.4f %10.4f\n",
                  s.name.c_str(), static_cast<long long>(s.count), s.total_ms,
                  s.mean_ms, s.p50_ms, s.p90_ms, s.p99_ms);
    out += line;
  }
  if (rows < stats.size()) {
    std::snprintf(line, sizeof(line), "  ... %zu more spans omitted\n",
                  stats.size() - rows);
    out += line;
  }
  return out;
}

std::string chrome_trace_json() {
  std::vector<Event> events = snapshot_events();
  // Per-thread strictly increasing timestamps: sort by (tid, start, deeper
  // first so a parent precedes the children it encloses at the same tick),
  // then nudge exact ties forward by 1 ns.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.depth < b.depth;
  });

  std::string out = "{\n\"traceEvents\": [\n";
  char line[256];
  bool first = true;
  for (const auto& [tid, name] : thread_names()) {
    std::string esc;
    obs::json::escape(esc, name);
    std::snprintf(line, sizeof(line),
                  "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                  "\"tid\": %llu, \"args\": {\"name\": \"%s\"}}",
                  first ? "" : ",\n", static_cast<unsigned long long>(tid),
                  esc.c_str());
    out += line;
    first = false;
  }
  std::uint64_t prev_tid = ~0ull;
  std::int64_t prev_ts = 0;
  for (const auto& e : events) {
    std::int64_t ts = e.start_ns;
    if (e.tid == prev_tid && ts <= prev_ts) ts = prev_ts + 1;
    prev_tid = e.tid;
    prev_ts = ts;
    std::string name, detail;
    obs::json::escape(name, e.name);
    obs::json::escape(detail, e.detail);
    std::snprintf(line, sizeof(line),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
                  "%llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"depth\": %d",
                  first ? "" : ",\n", name.c_str(),
                  static_cast<unsigned long long>(e.tid),
                  static_cast<double>(ts) * 1e-3,
                  static_cast<double>(e.dur_ns) * 1e-3, e.depth);
    out += line;
    if (!detail.empty()) {
      out += ", \"detail\": \"";
      out += detail;
      out += "\"";
    }
    out += "}}";
    first = false;
  }
  out += "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {";
  bool first_meta = true;
  for (const auto& [k, v] : metadata()) {
    std::string ek, ev;
    obs::json::escape(ek, k);
    obs::json::escape(ev, v);
    std::snprintf(line, sizeof(line), "%s\"%s\": \"%s\"",
                  first_meta ? "" : ", ", ek.c_str(), ev.c_str());
    out += line;
    first_meta = false;
  }
  for (int c = 0; c < static_cast<int>(Counter::kCount); ++c) {
    std::snprintf(line, sizeof(line), "%s\"counter.%s\": \"%llu\"",
                  first_meta ? "" : ", ",
                  counter_name(static_cast<Counter>(c)),
                  static_cast<unsigned long long>(
                      counter_value(static_cast<Counter>(c))));
    out += line;
    first_meta = false;
  }
  out += "}\n}\n";
  return out;
}

bool write_chrome_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = chrome_trace_json();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace upaq::prof
