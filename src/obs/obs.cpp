#include "obs/obs.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>

namespace upaq::obs {

namespace {

std::atomic<int> g_enabled{1};  // always-on by default

std::atomic<std::uint64_t> g_counters[static_cast<int>(Counter::kCount)];
std::atomic<std::int64_t> g_gauges[static_cast<int>(Gauge::kCount)];

constexpr int kHistCount = static_cast<int>(Hist::kCount);

/// Per-thread histogram shard. Owned jointly by the recording thread and the
/// global registry (same lifetime pattern as prof's thread buffers), so the
/// counts survive thread exit until the next reset().
struct HistShard {
  std::atomic<std::uint64_t> buckets[kHistCount][kHistBuckets] = {};
  std::atomic<std::uint64_t> count[kHistCount] = {};
  std::atomic<std::uint64_t> sum_ns[kHistCount] = {};
  std::uint64_t sid = 0;  ///< registration order; merges walk ascending sid
};

std::mutex g_shard_mutex;
std::vector<std::shared_ptr<HistShard>>& shard_registry() {
  static auto* r = new std::vector<std::shared_ptr<HistShard>>();
  return *r;
}
std::uint64_t g_next_sid = 0;

HistShard& shard() {
  thread_local std::shared_ptr<HistShard> s = [] {
    auto sh = std::make_shared<HistShard>();
    std::lock_guard<std::mutex> lock(g_shard_mutex);
    sh->sid = g_next_sid++;
    shard_registry().push_back(sh);
    return sh;
  }();
  return *s;
}

// --- event log ring -------------------------------------------------------

std::atomic<int> g_level{-1};  // -1: unresolved from UPAQ_LOG_LEVEL

int resolve_level_slow() {
  const char* s = std::getenv("UPAQ_LOG_LEVEL");
  Level lv = Level::kInfo;
  if (s != nullptr && s[0] != '\0') parse_level(s, lv);
  int expected = -1;
  g_level.compare_exchange_strong(expected, static_cast<int>(lv),
                                  std::memory_order_relaxed);
  return g_level.load(std::memory_order_relaxed);
}

struct Ring {
  std::mutex mutex;
  std::deque<Event> events;
  std::size_t capacity = 1024;
  std::uint64_t next_seq = 0;
};
Ring& ring() {
  static auto* r = new Ring();
  return *r;
}

std::int64_t epoch_ns() {
  static const std::int64_t e = now_ns();
  return e;
}

// --- exemplar -------------------------------------------------------------

struct ExemplarSlot {
  std::mutex mutex;
  RequestTrace trace;
  bool set = false;
};
ExemplarSlot& exemplar_slot() {
  static auto* s = new ExemplarSlot();
  return *s;
}

}  // namespace

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kSubmitted: return "serve_submitted";
    case Counter::kShedCapacity: return "serve_shed_capacity";
    case Counter::kShedDeadline: return "serve_shed_deadline";
    case Counter::kBatches: return "serve_batches";
    case Counter::kCount: break;
  }
  return "?";
}

const char* gauge_name(Gauge g) {
  switch (g) {
    case Gauge::kQueueDepth: return "queue_depth";
    case Gauge::kBatchFill: return "batch_fill";
    case Gauge::kArenaHighWater: return "arena_high_water_bytes";
    case Gauge::kCount: break;
  }
  return "?";
}

const char* hist_name(Hist h) {
  switch (h) {
    case Hist::kDetect: return "detect_latency";
    case Hist::kServeQueue: return "serve_queue";
    case Hist::kServePre: return "serve_stage_pre";
    case Hist::kServeDetect: return "serve_stage_detect";
    case Hist::kServePost: return "serve_stage_post";
    case Hist::kServeTotal: return "serve_total";
    case Hist::kCount: break;
  }
  return "?";
}

int bucket_of(std::uint64_t ns) {
  if (ns < 8) return static_cast<int>(ns);
  const int o = 63 - std::countl_zero(ns);  // octave, >= 3
  const int sub = static_cast<int>((ns >> (o - 2)) & 3);
  const int b = 8 + (o - 3) * 4 + sub;
  return b < kHistBuckets ? b : kHistBuckets - 1;
}

std::uint64_t bucket_floor(int bucket) {
  if (bucket < 8) return static_cast<std::uint64_t>(bucket < 0 ? 0 : bucket);
  const int o = 3 + (bucket - 8) / 4;
  const int sub = (bucket - 8) % 4;
  return (1ull << o) + (static_cast<std::uint64_t>(sub) << (o - 2));
}

double HistSnapshot::quantile_ns(double q) const {
  if (count == 0) return 0.0;
  const double clamped = std::min(std::max(q, 0.0), 1.0);
  // Target the rank'th record (0-based, linear like prof::percentile).
  const double rank = clamped * static_cast<double>(count - 1);
  std::uint64_t cum = 0;
  for (int b = 0; b < kHistBuckets; ++b) {
    const std::uint64_t n = buckets[b];
    if (n == 0) continue;
    if (static_cast<double>(cum + n) > rank) {
      // Interpolate within the bucket by rank position.
      const double lo = static_cast<double>(bucket_floor(b));
      const double hi = b + 1 < kHistBuckets
                            ? static_cast<double>(bucket_floor(b + 1))
                            : lo;
      const double frac =
          (rank - static_cast<double>(cum)) / static_cast<double>(n);
      return lo + frac * (hi - lo);
    }
    cum += n;
  }
  return static_cast<double>(bucket_floor(kHistBuckets - 1));
}

double HistSnapshot::mean_ms() const {
  return count == 0
             ? 0.0
             : static_cast<double>(sum_ns) / static_cast<double>(count) * 1e-6;
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed) == 1; }

void set_enabled(bool on) {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

void add(Counter c, std::uint64_t n) {
  if (!enabled()) return;
  g_counters[static_cast<int>(c)].fetch_add(n, std::memory_order_relaxed);
}

void gauge_set(Gauge g, std::int64_t v) {
  if (!enabled()) return;
  g_gauges[static_cast<int>(g)].store(v, std::memory_order_relaxed);
}

void gauge_max(Gauge g, std::int64_t v) {
  if (!enabled()) return;
  auto& slot = g_gauges[static_cast<int>(g)];
  std::int64_t cur = slot.load(std::memory_order_relaxed);
  while (v > cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void record(Hist h, std::uint64_t ns) {
  if (!enabled()) return;
  HistShard& s = shard();
  const int hi = static_cast<int>(h);
  s.buckets[hi][bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
  s.count[hi].fetch_add(1, std::memory_order_relaxed);
  s.sum_ns[hi].fetch_add(ns, std::memory_order_relaxed);
}

void log_event(Level lv, std::string name, std::vector<Field> fields) {
  if (!enabled()) return;
  if (static_cast<int>(lv) > static_cast<int>(log_level())) return;
  Event e;
  e.t_ms = static_cast<double>(now_ns() - epoch_ns()) * 1e-6;
  e.level = lv;
  e.name = std::move(name);
  e.fields = std::move(fields);
  Ring& r = ring();
  std::lock_guard<std::mutex> lock(r.mutex);
  e.seq = r.next_seq++;
  r.events.push_back(std::move(e));
  while (r.events.size() > r.capacity) r.events.pop_front();
}

void offer_exemplar(const RequestTrace& t) {
  if (!enabled()) return;
  ExemplarSlot& s = exemplar_slot();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (!s.set || t.total_ms > s.trace.total_ms) {
    s.trace = t;
    s.set = true;
  }
}

std::uint64_t counter_value(Counter c) {
  return g_counters[static_cast<int>(c)].load(std::memory_order_relaxed);
}

std::int64_t gauge_value(Gauge g) {
  return g_gauges[static_cast<int>(g)].load(std::memory_order_relaxed);
}

HistSnapshot hist_snapshot(Hist h) {
  std::vector<std::shared_ptr<HistShard>> shards;
  {
    std::lock_guard<std::mutex> lock(g_shard_mutex);
    shards = shard_registry();
  }
  // Registration order == ascending sid; keep it explicit so the merge
  // order is pinned even if the registry is ever reordered.
  std::sort(shards.begin(), shards.end(),
            [](const auto& a, const auto& b) { return a->sid < b->sid; });
  HistSnapshot out;
  const int hi = static_cast<int>(h);
  for (const auto& s : shards) {
    for (int b = 0; b < kHistBuckets; ++b)
      out.buckets[b] += s->buckets[hi][b].load(std::memory_order_relaxed);
    out.count += s->count[hi].load(std::memory_order_relaxed);
    out.sum_ns += s->sum_ns[hi].load(std::memory_order_relaxed);
  }
  return out;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* level_name(Level lv) {
  switch (lv) {
    case Level::kError: return "error";
    case Level::kWarn: return "warn";
    case Level::kInfo: return "info";
    case Level::kDebug: return "debug";
  }
  return "?";
}

bool parse_level(const std::string& s, Level& out) {
  if (s == "error" || s == "0") out = Level::kError;
  else if (s == "warn" || s == "warning" || s == "1") out = Level::kWarn;
  else if (s == "info" || s == "2") out = Level::kInfo;
  else if (s == "debug" || s == "3") out = Level::kDebug;
  else return false;
  return true;
}

Level log_level() {
  const int lv = g_level.load(std::memory_order_relaxed);
  if (lv >= 0) return static_cast<Level>(lv);
  return static_cast<Level>(resolve_level_slow());
}

void set_log_level(Level lv) {
  g_level.store(static_cast<int>(lv), std::memory_order_relaxed);
}

Field fstr(std::string key, std::string value) {
  return {std::move(key), std::move(value), true};
}

Field fnum(std::string key, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return {std::move(key), buf, false};
}

Field fint(std::string key, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  return {std::move(key), buf, false};
}

Field fuint(std::string key, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return {std::move(key), buf, false};
}

Field fbool(std::string key, bool v) {
  return {std::move(key), v ? "true" : "false", false};
}

void set_ring_capacity(std::size_t cap) {
  Ring& r = ring();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.capacity = cap == 0 ? 1 : cap;
  r.events.clear();
  r.next_seq = 0;
}

std::vector<Event> events() {
  Ring& r = ring();
  std::lock_guard<std::mutex> lock(r.mutex);
  return {r.events.begin(), r.events.end()};
}

std::uint64_t events_logged() {
  Ring& r = ring();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.next_seq;
}

std::uint64_t events_dropped() {
  Ring& r = ring();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.next_seq - r.events.size();
}

RequestTrace exemplar() {
  ExemplarSlot& s = exemplar_slot();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.trace;
}

void reset_exemplar() {
  ExemplarSlot& s = exemplar_slot();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.trace = RequestTrace{};
  s.set = false;
}

Snapshot snapshot() {
  Snapshot out;
  for (int c = 0; c < static_cast<int>(Counter::kCount); ++c)
    out.counters.emplace_back(counter_name(static_cast<Counter>(c)),
                              counter_value(static_cast<Counter>(c)));
  for (int g = 0; g < static_cast<int>(Gauge::kCount); ++g)
    out.gauges.emplace_back(gauge_name(static_cast<Gauge>(g)),
                            gauge_value(static_cast<Gauge>(g)));
  const std::uint64_t submitted = counter_value(Counter::kSubmitted);
  if (submitted > 0)
    out.shed_rate = static_cast<double>(counter_value(Counter::kShedCapacity) +
                                        counter_value(Counter::kShedDeadline)) /
                    static_cast<double>(submitted);
  for (int h = 0; h < kHistCount; ++h)
    out.hists.push_back({hist_name(static_cast<Hist>(h)),
                         hist_snapshot(static_cast<Hist>(h))});
  out.exemplar = exemplar();
  out.events = events();
  out.events_dropped = events_dropped();
  return out;
}

void reset() {
  for (auto& c : g_counters) c.store(0, std::memory_order_relaxed);
  for (auto& g : g_gauges) g.store(0, std::memory_order_relaxed);
  std::vector<std::shared_ptr<HistShard>> shards;
  {
    std::lock_guard<std::mutex> lock(g_shard_mutex);
    shards = shard_registry();
  }
  for (const auto& s : shards)
    for (int h = 0; h < kHistCount; ++h) {
      for (int b = 0; b < kHistBuckets; ++b)
        s->buckets[h][b].store(0, std::memory_order_relaxed);
      s->count[h].store(0, std::memory_order_relaxed);
      s->sum_ns[h].store(0, std::memory_order_relaxed);
    }
  {
    Ring& r = ring();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.events.clear();
    r.next_seq = 0;
  }
  reset_exemplar();
}

}  // namespace upaq::obs
