// upaq::obs — always-on, low-overhead production metrics.
//
// prof (UPAQ_TRACE) answers "why was this run slow" with full span traces,
// but it is opt-in and priced accordingly. obs is the layer that is ALWAYS
// live in production: a serving process must be able to prove it is meeting
// its latency deadlines continuously, not only when someone re-runs the
// workload under a profiler. Three primitives, all updated on the hot path
// with relaxed atomics on thread-private cache lines:
//
//   - Histograms: fixed-bin log-scale latency histograms (1 ns resolution at
//     the bottom, ~25% worst-case relative bucket width, 252 bins covering
//     the full uint64 nanosecond range — values past the top land in the
//     last bucket, nothing is ever dropped). Each thread records into its
//     own shard; snapshots merge shards in ascending prof-style thread-id
//     order. All state is integral (bucket counts, count, sum of ns), so a
//     merged snapshot is bitwise identical no matter how the same records
//     were distributed across threads.
//   - Counters: process-global monotonic relaxed atomics (submitted,
//     shed-by-reason, batches). Completed requests and detect() calls are
//     the `count` of the kServeTotal and kDetect histograms.
//   - Gauges: last-write-wins (queue depth, batch fill) or monotonic-max
//     (arena high-water) atomics.
//
// On top of those, two bounded structures fed off the hot path:
//
//   - A ring-buffer structured event log for the rare,
//     must-be-explainable events: capacity/deadline sheds with reasons,
//     recall-gate trips, model-variant lowering. Leveled via UPAQ_LOG_LEVEL
//     (error|warn|info|debug); the ring overwrites oldest, and the dropped
//     count is part of the contract.
//   - A tail-biased request-trace exemplar: the slowest request seen since
//     the last reset keeps its full span tree (queue -> pre -> detect ->
//     post), so a p99 outlier in the histogram can be explained after the
//     fact without a trace of every request.
//
// The runtime kill switch (set_enabled) reduces every record site to one
// relaxed load.
// Timing feeds queueing decisions and reports, never arithmetic, so obs can
// not perturb detections — the serve-vs-serial bitwise gate runs with it on.
//
// Layering: obs is the bottom of the link order — standard library only;
// even prof sits above it (prof reuses obs's clock and JSON escaping).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace upaq::obs {

// ---------------------------------------------------------------------------
// Metric identity

enum class Counter : int {
  kSubmitted = 0,    ///< serve: requests accepted by submit()
  kShedCapacity,     ///< serve: requests shed at submit (queue full)
  kShedDeadline,     ///< serve: requests shed at batch formation (too old)
  kBatches,          ///< serve: cross-scene batches formed
  kCount,
};
const char* counter_name(Counter c);

enum class Gauge : int {
  kQueueDepth = 0,       ///< serve: queue length after the last submit/pull
  kBatchFill,            ///< serve: size of the most recently formed batch
  kArenaHighWater,       ///< workspace: largest per-thread arena peak, bytes
  kCount,
};
const char* gauge_name(Gauge g);

enum class Hist : int {
  kDetect = 0,       ///< detect() wall latency (serial path); count = calls
  kServeQueue,       ///< serve: submit -> batch formation
  kServePre,         ///< serve: pillarize stage, per batch
  kServeDetect,      ///< serve: forward_batch stage, per batch
  kServePost,        ///< serve: decode stage, per batch
  kServeTotal,       ///< serve: submit -> decode done, per request; count =
                     ///< requests completed
  kCount,
};
const char* hist_name(Hist h);

// ---------------------------------------------------------------------------
// Log-scale bucketing (values are nanoseconds)
//
// v < 8 gets its own bucket; past that each power-of-two octave splits into
// 4 sub-buckets, so bucket widths grow geometrically with <= 25% relative
// error. 64-bit values fit in 252 buckets; bucket_of saturates at the top
// (the overflow bucket) rather than dropping.

inline constexpr int kHistBuckets = 252;

int bucket_of(std::uint64_t ns);
/// Smallest value mapping to `bucket` (the bucket's inclusive lower edge).
std::uint64_t bucket_floor(int bucket);

/// Merged view of one histogram across every thread shard.
struct HistSnapshot {
  std::uint64_t buckets[kHistBuckets] = {};
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;

  /// Linear interpolation inside the bracketing bucket; 0 when empty.
  double quantile_ns(double q) const;
  double quantile_ms(double q) const { return quantile_ns(q) * 1e-6; }
  double mean_ms() const;
  bool operator==(const HistSnapshot&) const = default;
};

// ---------------------------------------------------------------------------
// Hot-path recording. Each call is one relaxed load (the kill switch) plus
// 1-3 relaxed RMWs on thread-private state.

/// Runtime kill switch; defaults to ON (obs is always-on by design — the
/// switch exists for the overhead ablation and tests).
bool enabled();
void set_enabled(bool on);

void add(Counter c, std::uint64_t n = 1);
void gauge_set(Gauge g, std::int64_t v);
/// Monotonic ratchet: keeps max(current, v).
void gauge_max(Gauge g, std::int64_t v);
void record(Hist h, std::uint64_t ns);

std::uint64_t counter_value(Counter c);
std::int64_t gauge_value(Gauge g);
/// Merges every thread shard in ascending shard-id (registration) order.
/// All state is integral, so the result is bitwise independent of how the
/// same records were spread over threads.
HistSnapshot hist_snapshot(Hist h);

/// Steady-clock nanoseconds (monotonic, arbitrary origin).
std::int64_t now_ns();

/// RAII latency recorder: records the scope's wall time into `h`.
class ScopedTimer {
 public:
  explicit ScopedTimer(Hist h) : h_(h), t0_(enabled() ? now_ns() : -1) {}
  ~ScopedTimer() {
    if (t0_ >= 0) record(h_, static_cast<std::uint64_t>(now_ns() - t0_));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Hist h_;
  std::int64_t t0_;
};

// ---------------------------------------------------------------------------
// Structured event log

enum class Level : int { kError = 0, kWarn, kInfo, kDebug };
const char* level_name(Level lv);
/// Accepts "error"/"warn"/"warning"/"info"/"debug" and "0".."3".
bool parse_level(const std::string& s, Level& out);

/// Active level. First call resolves UPAQ_LOG_LEVEL from the environment
/// (default info); afterwards one relaxed load. Events MORE verbose than the
/// active level are dropped before they reach the ring.
Level log_level();
void set_log_level(Level lv);

/// One key/value of an event. `quoted` distinguishes JSON strings from raw
/// numbers/bools so the snapshot JSON stays typed.
struct Field {
  std::string key;
  std::string value;
  bool quoted = true;
};
Field fstr(std::string key, std::string value);
Field fnum(std::string key, double v);
Field fint(std::string key, std::int64_t v);
Field fuint(std::string key, std::uint64_t v);
Field fbool(std::string key, bool v);

struct Event {
  std::uint64_t seq = 0;  ///< monotonically increasing over accepted events
  double t_ms = 0.0;      ///< ms since the process obs epoch (first use)
  Level level = Level::kInfo;
  std::string name;
  std::vector<Field> fields;
};

/// Appends to the bounded ring (oldest overwritten) unless filtered by
/// level or the kill switch.
void log_event(Level lv, std::string name, std::vector<Field> fields);

/// Resizes the ring (default 1024) and clears it. Tests use tiny rings to
/// pin the overwrite contract.
void set_ring_capacity(std::size_t cap);
/// Oldest-first copy of the retained events.
std::vector<Event> events();
/// Accepted events since the last reset (including overwritten ones).
std::uint64_t events_logged();
/// Accepted events no longer retained (overwritten by the ring).
std::uint64_t events_dropped();

// ---------------------------------------------------------------------------
// Request-trace exemplar (tail-biased)

struct TraceSpan {
  std::string name;      ///< "queue", "pre", "detect", "post"
  double start_ms = 0.0; ///< real (steady-clock) ms, server-relative
  double dur_ms = 0.0;
};

struct RequestTrace {
  std::uint64_t req_id = 0;
  int priority = 0;
  int batch = 0;          ///< size of the batch the request rode in
  double total_ms = 0.0;  ///< real arrival -> retire
  std::vector<TraceSpan> spans;
};

/// Keeps `t` iff it is the slowest offer since the last reset. The caller
/// offers at most once per batch (its slowest member), so the mutex inside
/// is touched a handful of times per batch, never per histogram record.
void offer_exemplar(const RequestTrace& t);
/// Copy of the current slowest trace (req_id == 0 when none captured).
RequestTrace exemplar();
void reset_exemplar();

// ---------------------------------------------------------------------------
// Snapshot

struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  double shed_rate = 0.0;  ///< (shed_capacity + shed_deadline) / submitted
  struct NamedHist {
    std::string name;
    HistSnapshot hist;
  };
  std::vector<NamedHist> hists;
  RequestTrace exemplar;
  std::vector<Event> events;
  std::uint64_t events_dropped = 0;
};

/// Consistent-enough point-in-time view (individual atomics are read
/// relaxed; cross-metric skew is bounded by in-flight updates).
Snapshot snapshot();

/// Zeroes every counter/gauge/histogram shard and clears the event ring,
/// its sequence numbers, and the exemplar. Level and enabled persist.
void reset();

}  // namespace upaq::obs
