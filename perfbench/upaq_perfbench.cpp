// upaq_perfbench: the repository benchmark. It measures the program from
// outside, through the public entry points of zoo, core, data, detectors and
// serve, and checks every output it measures.
//
//   upaq_perfbench --workload lidar_frame --seed 1 --seconds 30 --trace 0
//                  --cache upaq_zoo_cache
//
// perfbench/run.py builds this binary from source and runs it; the workload
// names and metric bounds live in BENCHMARK.json at the repository root.
//
// Models. `fp32` is the zoo's pretrained detector. `hck` is the cached
// UPAQ (HCK) outcome lowered onto the packed integer path with the untuned
// core::QuantizedModel constructor: the tuned constructor races kernels on
// wall-clock time, so how many layers it lowers (and therefore both latency
// and detections) varies from run to run.
//
// Scenes. Each workload has one fixed scene set, the same for every seed,
// so mAP compares exactly across commits and a phase's mean scene cost does
// not move with the seed; the seed picks where in the set each phase starts.
//
// Every workload runs three phases, each a fixed share of --seconds:
//   C  closed loop, one caller: fp32 and hck detect() interleaved per scene
//      (the order alternates per scene); per-scene latency and mAP.
//   A  open loop at a fixed absolute rate below capacity, hck model: latency
//      of each request from its due time to its detections.
//   B  open loop at a fixed absolute rate above capacity, hck model, 100 ms
//      deadline: goodput (requests done within 100 ms of their due time per
//      second of schedule) and the share of requests shed.
// The phases take turns in rounds of about kRoundS seconds (C, then A, then
// B), so a slow stretch of the host lands on every phase alike instead of
// on whichever phase it overlaps. Each open-loop turn starts from an empty
// queue. Rates are absolute, never scaled from a capacity measured in the
// same run, so two commits always see the same offered load. The frame
// workloads feed phases A and B through an in-order sensor loop (one
// caller, no batching, no stage overlap); lidar_stream feeds them through
// serve::Server.
//
// Threads. Every workload runs on one pool lane. On a shared 4-vCPU VM,
// one lane repeated within a few percent from run to run, where two lanes
// drifted by 15-22% between runs (the pair of vCPUs the lanes share is
// descheduled unevenly). The cost: the server overlaps its stages only with
// a second lane, so stage overlap is not measured.
//
// Steal. On a virtual machine the hypervisor can stop a vCPU to run another
// guest; /proc/stat counts that time as "steal". Latency samples (C, A) and
// phase-B requests whose interval saw steal are left out of the end-to-end
// metrics, since they measure the neighbours rather than the program; the
// share kept is printed. The choice depends only on the steal counter, never
// on the measured times, so it cannot favour a faster or slower commit.
// Neighbours also slow a run without stealing (shared cores and caches), and
// at any one time they slow some vCPUs far more than others (one PointPillars
// scene measured 4.3 ms on one vCPU and 6.6 ms on another of the same VM
// within seconds), for stretches longer than a run. So each round pins the
// benchmark thread to the next CPU it may use, in turn, and the end-to-end
// figures come from the quieter windows of the run: p50s from the lower
// quartile of window medians (quiet_median), goodput and shed share from the
// better quartile of windows. The p99s use every steal-free sample; they
// spread 0.1-0.3 (quartile distance over median, ten runs) even so, so they
// are per-layer figures of the traced run, not end-to-end metrics.
//
// Checks. A detect() that throws, a box with a non-finite field, or a
// repeat of a scene whose detections differ bitwise from the first pass
// counts as a failed operation. Every served stream result must equal the
// serial detect() of its scene bitwise. lidar_stream first replays its
// scene set through the server with nothing shed and stops unless the
// detections equal serial detect(). mAP must clear a floor per variant.
//
// With --trace 1 the run records the per-layer ledger instead: the
// benchmark's own prof spans around each public call, the prof counters and
// the per-layer spans the program already emits. The traced closed loop
// alternates untraced and traced blocks of scenes, which gives
// trace.overhead_frac. End-to-end numbers come only from untraced runs.
//
// The last line of stdout is one JSON object: correct, attempted, failed and
// the metrics of the mode (end-to-end with --trace 0, per-layer with 1).
#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/qmodel.h"
#include "data/scenario.h"
#include "detectors/pointpillars.h"
#include "detectors/smoke.h"
#include "parallel/thread_pool.h"
#include "prof/prof.h"
#include "serve/serve.h"
#include "serve/stream.h"
#include "tensor/serialize.h"
#include "tensor/workspace.h"
#include "zoo/experiment.h"

namespace {

using namespace upaq;
using SteadyClock = std::chrono::steady_clock;
using Boxes = std::vector<eval::Box3D>;

// Taken during static initialisation, so the first setup is timed from
// (just after) process start.
const SteadyClock::time_point g_process_start = SteadyClock::now();

double ms_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - t0)
      .count();
}

// ----------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  zoo::ModelKind model;
  std::vector<data::ScenarioFamily> families;  ///< scenes alternate these
  bool serve;                 ///< phases A/B through serve::Server
  int scenes;                 ///< fixed scene set size
  double share_c, share_a;    ///< of --seconds; phase B gets the rest
  double rate_a_hz, rate_b_hz;
  double map_floor_fp32, map_floor_hck;  ///< percent, at the zoo eval IoU
};

constexpr double kDeadlineMs = 100.0;  ///< one frame of a 10 Hz LiDAR
constexpr double kWindowMs = 250.0;    ///< phase-B goodput/shed window
constexpr double kRoundS = 2.5;        ///< one turn of C, A and B
constexpr std::size_t kQuietWindow = 32;  ///< samples per latency window
constexpr int kQueueCapacity = 16;
// One scene per batch. The packed PFN linear (qnn::PackedLinear) quantizes
// its whole input with one activation scale, and a cross-scene batch
// concatenates every scene's point rows into that input, so at max_batch > 1
// the hck detections depend on which scenes share a batch and the served
// output is no longer bitwise equal to serial detect(). The staged pipeline,
// queueing and shedding are still measured.
constexpr int kMaxBatch = 1;
constexpr int kThreads = 1;         ///< pool lanes (see "Threads" above)
constexpr int kSetups = 7;          ///< setup_s is the median of these
constexpr int kWarmupScenes = 16;   ///< per variant, in setup
constexpr int kBlock = 8;           ///< scenes per traced/untraced block
constexpr std::uint64_t kSceneSeed = 0x5ce7a10ULL;

const std::vector<Workload>& workloads() {
  using data::ScenarioFamily;
  static const std::vector<Workload> w = {
      {"lidar_frame", zoo::ModelKind::kPointPillars,
       {ScenarioFamily::kBaseline}, false, 400, 0.50, 0.30, 100.0, 600.0,
       20.0, 18.0},
      {"camera_frame", zoo::ModelKind::kSmoke, {ScenarioFamily::kBaseline},
       false, 400, 0.50, 0.30, 45.0, 250.0, 4.0, 3.0},
      {"lidar_stream", zoo::ModelKind::kPointPillars,
       {ScenarioFamily::kBaseline, ScenarioFamily::kJam}, true, 200, 0.25,
       0.45, 100.0, 800.0, 20.0, 15.0},
  };
  return w;
}

// ----------------------------------------------------------------------------
// Steal

/// CPU time the hypervisor stole from this machine's vCPUs so far, in
/// USER_HZ ticks summed over all CPUs (the "steal" column of /proc/stat);
/// 0 where the kernel does not report it.
std::uint64_t steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  return got == 8 ? v[7] : 0;
}

/// Marks the stretches of a phase in which steal happened. poll() reads the
/// counter (at most every 0.5 ms); when it moved since the last read, the
/// time between the two reads is dirty. A sample is clean when its interval
/// overlaps no dirty stretch; the rule errs towards dirty, never clean,
/// provided polls come at least once per sample.
class StealWatch {
 public:
  void poll(double now_ms) {
    if (have_ && now_ms - last_ms_ < 0.5) return;
    const std::uint64_t v = steal_ticks();
    if (have_ && v != last_) dirty_.emplace_back(last_ms_, now_ms);
    last_ = v;
    last_ms_ = now_ms;
    have_ = true;
  }
  bool clean(double from_ms, double to_ms) const {
    auto it = std::lower_bound(
        dirty_.begin(), dirty_.end(), from_ms,
        [](const std::pair<double, double>& d, double t) { return d.second < t; });
    return it == dirty_.end() || it->first >= to_ms;
  }

 private:
  std::vector<std::pair<double, double>> dirty_;  ///< sorted, disjoint
  std::uint64_t last_ = 0;
  double last_ms_ = 0.0;
  bool have_ = false;
};

/// The CPUs this process may run on, in ascending order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    for (int i = 0; i < CPU_SETSIZE; ++i)
      if (CPU_ISSET(i, &set)) out.push_back(i);
  return out;
}

/// Pins the calling thread (with one pool lane, all of the work) to `cpu`.
void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

/// The measured run's clock and steal record, shared by every phase, so
/// all sample times are in ms since the first round began.
struct RunClock {
  SteadyClock::time_point t0 = SteadyClock::now();
  StealWatch watch;

  double now() const { return ms_since(t0); }
  /// Reads the clock and polls the steal counter.
  double poll() {
    const double t = now();
    watch.poll(t);
    return t;
  }
};

double pct(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return prof::percentile(v, q);
}

double median(std::vector<double> v) { return pct(std::move(v), 0.5); }

/// The clean subset of `v`, or all of `v` when too few samples were clean
/// for a stable statistic (a host that steals nearly all the time).
std::vector<double> steal_free(const std::vector<double>& v,
                               const std::vector<char>& clean) {
  std::vector<double> out;
  for (std::size_t i = 0; i < v.size(); ++i)
    if (clean[i]) out.push_back(v[i]);
  if (out.size() < std::max<std::size_t>(50, v.size() / 10)) return v;
  return out;
}

/// Median latency of the quieter stretches of a run: the samples (in time
/// order) are cut into windows of kQuietWindow, and the 25th percentile of
/// the window medians is returned. Neighbours on a shared host slow whole
/// stretches of a run without showing as steal; this keeps the figure to
/// the stretches they left alone. Falls back to the plain median when there
/// are too few windows.
double quiet_median(const std::vector<double>& v) {
  std::vector<double> medians;
  for (std::size_t w0 = 0; w0 + kQuietWindow <= v.size(); w0 += kQuietWindow)
    medians.push_back(median(std::vector<double>(
        v.begin() + static_cast<std::ptrdiff_t>(w0),
        v.begin() + static_cast<std::ptrdiff_t>(w0 + kQuietWindow))));
  if (medians.size() < 4) return median(v);
  return pct(medians, 0.25);
}

// ----------------------------------------------------------------------------
// Output checks

bool finite_boxes(const Boxes& boxes) {
  for (const auto& b : boxes)
    for (float v : {b.x, b.y, b.z, b.length, b.width, b.height, b.yaw, b.score})
      if (!std::isfinite(v)) return false;
  return true;
}

bool same_boxes(const Boxes& a, const Boxes& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    const float fx[] = {x.x, x.y, x.z, x.length, x.width, x.height, x.yaw,
                        x.score};
    const float fy[] = {y.x, y.y, y.z, y.length, y.width, y.height, y.yaw,
                        y.score};
    if (std::memcmp(fx, fy, sizeof(fx)) != 0 || x.label != y.label)
      return false;
  }
  return true;
}

/// Attempts and outcomes of one phase; failures are logged to stderr (the
/// first few only, to keep a broken build readable).
struct Tally {
  const char* phase = "";
  std::int64_t sent = 0, succeeded = 0, shed = 0, failed = 0;

  void fail(const std::string& why) {
    if (++failed <= 5)
      std::fprintf(stderr, "FAIL [%s]: %s\n", phase, why.c_str());
  }
};

/// Runs `fn` (one detect or staged call); a throw counts as a failure.
bool guarded(Tally& t, const std::function<void()>& fn) {
  try {
    fn();
    return true;
  } catch (const std::exception& e) {
    t.fail(std::string("exception: ") + e.what());
  }
  return false;
}

/// Checks one result: finite, and bitwise equal to `ref`, or recorded as
/// `ref` when `have_ref` is false (the scene's first pass).
void check_result(Tally& t, const Boxes& dets, Boxes& ref, char& have_ref,
                  const char* what) {
  if (!finite_boxes(dets)) {
    t.fail(std::string(what) + ": non-finite box field");
  } else if (!have_ref) {
    ref = dets;
    have_ref = 1;
    ++t.succeeded;
  } else if (!same_boxes(dets, ref)) {
    t.fail(std::string(what) + ": detections differ from the first pass");
  } else {
    ++t.succeeded;
  }
}

// ----------------------------------------------------------------------------
// Setup: zoo cache, models, lowering, scenes, warm-up

/// Every cache file the workload loads must be present and well formed, so
/// the zoo never falls back to training or recompressing inside a run.
bool cache_complete(const std::string& dir, zoo::ModelKind kind) {
  const bool pp = kind == zoo::ModelKind::kPointPillars;
  const std::string base = dir + (pp ? "/pointpillars.upaq" : "/smoke.upaq");
  const std::string stem =
      dir + (pp ? "/exp_PointPillars_UPAQ__HCK_" : "/exp_SMOKE_UPAQ__HCK_");
  bool ok = true;
  for (const std::string& path :
       {base, stem + ".row", stem + ".plan", stem + ".state",
        stem + ".packed"}) {
    std::error_code ec;
    if (!std::filesystem::is_regular_file(path, ec) ||
        std::filesystem::file_size(path, ec) == 0) {
      std::fprintf(stderr, "zoo cache: missing or empty %s\n", path.c_str());
      ok = false;
    }
  }
  for (const std::string& path : {base, stem + ".state"})
    if (ok && !io::is_tensor_map_file(path)) {
      std::fprintf(stderr, "zoo cache: not a tensor map: %s\n", path.c_str());
      ok = false;
    }
  return ok;
}

struct SetupTimes {
  double zoo_load_ms = 0.0, lower_ms = 0.0, warmup_ms = 0.0, total_s = 0.0;
};

struct Models {
  std::unique_ptr<zoo::Zoo> zoo;
  std::unique_ptr<detectors::Detector3D> fp32;
  zoo::FrameworkOutcome outcome;  ///< cached UPAQ (HCK) model, float weights
  std::unique_ptr<core::QuantizedModel> hck;  ///< lowered view of outcome
  std::vector<data::Scene> scenes;
  SetupTimes times;
};

std::vector<data::Scene> make_scenes(const Workload& w) {
  serve::StreamConfig sc;
  sc.scenes = w.scenes;
  sc.poisson = false;
  sc.seed = kSceneSeed;
  for (auto f : w.families) sc.mixture.push_back(data::scenario_config(f));
  std::vector<data::Scene> out;
  for (auto& a : serve::make_stream(sc)) out.push_back(std::move(a.scene));
  return out;
}

std::unique_ptr<Models> setup(const Workload& w, const std::string& cache,
                              SteadyClock::time_point t0) {
  auto m = std::make_unique<Models>();
  auto t = SteadyClock::now();
  zoo::ZooConfig zc;
  zc.cache_dir = cache;
  zc.verbose = false;
  m->zoo = std::make_unique<zoo::Zoo>(zc);
  zoo::ExperimentRunner runner(*m->zoo);
  if (w.model == zoo::ModelKind::kPointPillars)
    m->fp32 = m->zoo->pointpillars();
  else
    m->fp32 = m->zoo->smoke();
  m->fp32->set_training(false);
  m->outcome = runner.run(zoo::Framework::kUpaqHck, w.model);
  m->times.zoo_load_ms = ms_since(t);

  t = SteadyClock::now();
  m->hck = std::make_unique<core::QuantizedModel>(*m->outcome.model,
                                                  m->outcome.plan);
  m->times.lower_ms = ms_since(t);

  m->scenes = make_scenes(w);

  t = SteadyClock::now();
  for (std::size_t i = 0; i < kWarmupScenes; ++i) {
    (void)m->fp32->detect(m->scenes[i]);
    (void)m->hck->detect(m->scenes[i]);
  }
  m->times.warmup_ms = ms_since(t);
  m->times.total_s = ms_since(t0) / 1000.0;
  return m;
}

// ----------------------------------------------------------------------------
// Traced ledger

/// Span totals and prof counters folded out of the prof buffers. absorb()
/// empties the buffers, so a long run never holds more than one block.
struct Ledger {
  std::map<std::string, double> ms;
  std::map<std::string, std::int64_t> calls;
  std::array<double, static_cast<int>(prof::Counter::kCount)> counters{};
  std::int64_t scenes = 0;

  void absorb() {
    for (const auto& e : prof::snapshot_events()) {
      ms[e.name] += static_cast<double>(e.dur_ns) * 1e-6;
      ++calls[e.name];
    }
    for (int c = 0; c < static_cast<int>(prof::Counter::kCount); ++c)
      counters[static_cast<std::size_t>(c)] += static_cast<double>(
          prof::counter_value(static_cast<prof::Counter>(c)));
    prof::reset();
  }
  double span_ms(const std::string& name) const {
    auto it = ms.find(name);
    return it == ms.end() ? 0.0 : it->second;
  }
  std::int64_t span_calls(const std::string& name) const {
    auto it = calls.find(name);
    return it == calls.end() ? 0 : it->second;
  }
  double counter(prof::Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  double per_scene(double v) const {
    return scenes > 0 ? v / static_cast<double>(scenes) : 0.0;
  }
};

// ----------------------------------------------------------------------------
// Phase C: closed loop

struct Variant {
  const char* name = "";
  detectors::Detector3D* det = nullptr;     ///< detect() entry point
  detectors::Detector3D* staged = nullptr;  ///< model behind it (staged and
                                            ///< render calls)
  std::vector<std::pair<double, double>> spans;  ///< untraced start, end
  std::vector<double> ms;         ///< untraced per-scene latency
  std::vector<char> clean;        ///< no steal during the sample
  std::vector<double> traced_ms;
  std::vector<Boxes> ref;         ///< first-pass detections per scene
  std::vector<char> have;
  Ledger ledger;                  ///< traced blocks only
  double map = 0.0;
};

struct Closed {
  Tally tally{"closed"};
  Variant fp32, hck;
  double pillars = 0.0, points = 0.0, dets = 0.0;  ///< traced hck sums
  std::size_t done = 0;    ///< scenes run per variant so far, untraced
  double elapsed_ms = 0.0;  ///< time spent in phase C so far
};

/// One traced scene: the benchmark's own spans around each public call.
/// PointPillars runs its staged API (bitwise equal to detect()); SMOKE runs
/// render() and then detect(), which renders again inside. `detect_ms` is
/// the time of the detect()-equivalent part, for trace.overhead_frac.
Boxes traced_scene(const Workload& w, Variant& v, const data::Scene& scene,
                   Closed& c, bool count_shape, double& detect_ms) {
  Boxes dets;
  if (w.model == zoo::ModelKind::kPointPillars) {
    auto& pp = static_cast<detectors::PointPillars&>(*v.staged);
    const auto t = SteadyClock::now();
    prof::Span span("bench.detect");
    detectors::PointPillars::Pillars pil;
    {
      prof::Span s("bench.pp.pillarize");
      pil = pp.pillarize(scene);
    }
    std::vector<detectors::PointPillars::HeadOutput> heads;
    {
      prof::Span s("bench.pp.forward");
      heads = pp.forward_batch({&pil});
    }
    {
      prof::Span s("bench.pp.decode");
      dets = pp.decode(heads[0].cls_logits, heads[0].reg_out);
    }
    detect_ms = ms_since(t);
    if (count_shape) {
      c.pillars += static_cast<double>(pil.coords.size());
      c.points += static_cast<double>(scene.points.size());
    }
  } else {
    auto& smoke = static_cast<detectors::Smoke&>(*v.staged);
    {
      prof::Span s("bench.smoke.render");
      (void)smoke.render(scene);
    }
    const auto t = SteadyClock::now();
    {
      prof::Span span("bench.detect");
      dets = v.det->detect(scene);
    }
    detect_ms = ms_since(t);
  }
  if (count_shape) c.dets += static_cast<double>(dets.size());
  return dets;
}

void init_closed(Models& m, Closed& c) {
  const std::size_t n = m.scenes.size();
  c.fp32.name = "fp32";
  c.fp32.det = c.fp32.staged = m.fp32.get();
  c.hck.name = "hck";
  c.hck.det = m.hck.get();
  c.hck.staged = m.outcome.model.get();
  for (Variant* v : {&c.fp32, &c.hck}) {
    v->ref.assign(n, {});
    v->have.assign(n, 0);
  }
}

/// One turn of phase C: runs blocks of scenes until phase C as a whole has
/// used `budget_ms`. The first pass over the scene set always completes in
/// the first turn (it yields mAP and the reference detections).
void run_closed(const Workload& w, Models& m, std::size_t offset,
                double budget_ms, bool trace, RunClock& clock, Closed& c) {
  const std::size_t n = m.scenes.size();
  const double t_start = clock.now();

  const auto untraced = [&](std::size_t i, Variant& v) {
    Boxes dets;
    ++c.tally.sent;
    clock.poll();
    const double start = clock.now();
    if (!guarded(c.tally, [&] { dets = v.det->detect(m.scenes[i]); })) return;
    const double end = clock.poll();
    v.spans.emplace_back(start, end);
    check_result(c.tally, dets, v.ref[i], v.have[i], v.name);
  };
  const auto traced_block = [&](std::size_t first, Variant& v) {
    const bool hck = &v == &c.hck;
    prof::reset();
    prof::set_enabled(true);
    for (std::size_t k = 0; k < kBlock; ++k) {
      const std::size_t i = (first + k) % n;
      Boxes dets;
      double detect_ms = 0.0;
      ++c.tally.sent;
      const bool ok = guarded(c.tally, [&] {
        dets = traced_scene(w, v, m.scenes[i], c, hck, detect_ms);
      });
      v.traced_ms.push_back(detect_ms);
      ++v.ledger.scenes;
      if (ok) check_result(c.tally, dets, v.ref[i], v.have[i], v.name);
    }
    prof::set_enabled(false);
    v.ledger.absorb();
  };

  while (c.done < n || c.elapsed_ms + clock.now() - t_start < budget_ms) {
    const std::size_t first = (offset + c.done) % n;
    for (std::size_t k = 0; k < kBlock; ++k) {
      const std::size_t i = (first + k) % n;
      const bool hck_first = ((c.done + k) & 1) != 0;
      untraced(i, hck_first ? c.hck : c.fp32);
      untraced(i, hck_first ? c.fp32 : c.hck);
    }
    if (trace) {
      traced_block(first, c.fp32);
      traced_block(first, c.hck);
    }
    c.done += kBlock;
  }
  c.elapsed_ms += clock.now() - t_start;
}

/// After the last round: per-sample latency and steal flags, and mAP.
void finish_closed(const Workload& w, Models& m, RunClock& clock, Closed& c) {
  const std::size_t n = m.scenes.size();
  clock.watch.poll(clock.now() + 1.0);
  for (Variant* v : {&c.fp32, &c.hck})
    for (const auto& [start, end] : v->spans) {
      v->ms.push_back(end - start);
      v->clean.push_back(clock.watch.clean(start, end) ? 1 : 0);
    }

  const double iou = zoo::ExperimentConfig{}.eval_iou(w.model);
  for (Variant* v : {&c.fp32, &c.hck}) {
    std::vector<eval::FrameDetections> frames(n);
    for (std::size_t i = 0; i < n; ++i) {
      frames[i].detections = v->ref[i];
      for (const auto& gt : m.scenes[i].objects)
        if (v->det->observes(gt)) frames[i].ground_truth.push_back(gt);
    }
    v->map = eval::map_percent(frames, iou);
  }
}

// ----------------------------------------------------------------------------
// Phases A and B: open loop

/// One scheduled request of an open-loop phase; times in ms on the
/// RunClock.
struct Request {
  double due = 0.0, submit = 0.0, done = 0.0;
  double queue = 0.0, pipeline = 0.0;  ///< serve only
  bool shed = false, ok = false;
};

struct Stream {
  Tally tally;
  const std::vector<data::Scene>* scenes = nullptr;
  const std::vector<Boxes>* ref = nullptr;  ///< serial hck detect() per scene
  std::size_t offset = 0;                   ///< scene of the first request
  double rate_hz = 0.0;
  std::vector<Request> reqs;
  /// [first, end) request indices of each turn, in order.
  std::vector<std::pair<std::size_t, std::size_t>> turns;
  std::int64_t shed_capacity = 0, shed_deadline = 0, batches = 0;
  const StealWatch* watch = nullptr;
  Ledger ledger;  ///< traced serve phases only

  std::size_t scene_of(std::size_t i) const {
    return (offset + i) % scenes->size();
  }
  /// Served-request latency from due time, steal-free where possible.
  std::vector<double> latency_ms() const {
    std::vector<double> v;
    std::vector<char> clean;
    for (const auto& r : reqs)
      if (r.ok) {
        v.push_back(r.done - r.due);
        clean.push_back(watch->clean(r.due, r.done));
      }
    return steal_free(v, clean);
  }
  /// Phase B, per window of about kWindowMs of schedule (each turn is cut
  /// into equal windows; none spans two turns): the share of the requests
  /// due in the window that finished within the deadline (`good`) or were
  /// shed. Windows that saw steal are left out (all are kept when too few
  /// are clean). Like quiet_median, the figure is taken from the quieter
  /// windows: the 75th percentile of the good shares, the 25th of the shed
  /// shares.
  double window_share(bool good) const {
    std::vector<double> all, clean;
    for (const auto& [first, end] : turns) {
      const double turn_ms = static_cast<double>(end - first) * 1000.0 / rate_hz;
      const auto windows = static_cast<std::size_t>(
          std::max(1.0, std::floor(turn_ms / kWindowMs)));
      for (std::size_t k = 0; k < windows; ++k) {
        const std::size_t w0 = first + (end - first) * k / windows;
        const std::size_t w1 = first + (end - first) * (k + 1) / windows;
        if (w1 == w0) continue;
        std::int64_t hits = 0;
        for (std::size_t i = w0; i < w1; ++i) {
          const Request& r = reqs[i];
          hits += good ? (r.ok && r.done - r.due <= kDeadlineMs) : r.shed;
        }
        const double share =
            static_cast<double>(hits) / static_cast<double>(w1 - w0);
        all.push_back(share);
        if (watch->clean(reqs[w0].due, reqs[w1 - 1].due + kDeadlineMs))
          clean.push_back(share);
      }
    }
    if (all.empty()) return 0.0;
    return pct(clean.size() >= std::max<std::size_t>(3, all.size() / 4) ? clean
                                                                        : all,
               good ? 0.75 : 0.25);
  }
  double goodput_hz() const { return window_share(true) * rate_hz; }
  double shed_frac() const { return window_share(false); }
};

void finish(Stream& s, Request& r, const Boxes& dets, const Boxes& ref) {
  if (!finite_boxes(dets)) {
    s.tally.fail("non-finite box field");
  } else if (!same_boxes(dets, ref)) {
    s.tally.fail("stream detections differ from serial detect()");
  } else {
    r.ok = true;
    ++s.tally.succeeded;
  }
}

/// In-order sensor loop over requests [first, end): frames become due at a
/// fixed rate; the one caller runs detect() on the oldest pending frame.
/// Like the server, a full queue sheds its oldest request and a request
/// queued longer than the deadline is shed when it reaches the front.
void run_inorder(detectors::Detector3D& det, double deadline_ms,
                 std::size_t first, std::size_t end, RunClock& clock,
                 Stream& s) {
  std::deque<std::size_t> queue;
  std::size_t next = first;
  while (next < end || !queue.empty()) {
    const double now = clock.poll();
    while (next < end && s.reqs[next].due <= now) {
      s.reqs[next].submit = now;
      queue.push_back(next++);
      if (queue.size() > static_cast<std::size_t>(kQueueCapacity)) {
        s.reqs[queue.front()].shed = true;
        s.reqs[queue.front()].done = now;
        queue.pop_front();
        ++s.shed_capacity;
      }
    }
    if (queue.empty()) {
      std::this_thread::yield();
      continue;
    }
    Request& r = s.reqs[queue.front()];
    const std::size_t idx = s.scene_of(queue.front());
    queue.pop_front();
    if (deadline_ms > 0.0 && now - r.submit > deadline_ms) {
      r.shed = true;
      r.done = now;
      ++s.shed_deadline;
      continue;
    }
    Boxes dets;
    if (!guarded(s.tally, [&] { dets = det.detect((*s.scenes)[idx]); }))
      continue;
    r.done = clock.now();
    finish(s, r, dets, (*s.ref)[idx]);
  }
}

/// Drives a fresh serve::Server over requests [first, end) with the same
/// loop as serve::run_open_loop, so the benchmark sees each request's due
/// and submit time: the generator shares a thread with step(), so submits
/// run late while a step is in flight, and latency is taken from the due
/// time.
void run_served(detectors::PointPillars& model, double deadline_ms,
                std::size_t first, std::size_t end, RunClock& clock,
                Stream& s) {
  serve::ServeConfig cfg;
  cfg.max_batch = kMaxBatch;
  cfg.queue_capacity = kQueueCapacity;
  cfg.deadline_ms = deadline_ms;
  serve::Server server(model, cfg);
  const double base = clock.now();  // RunClock time of the server's 0
  std::vector<serve::Result> results;
  std::size_t next = first;
  const bool ok = guarded(s.tally, [&] {
    while (next < end || !server.idle()) {
      const double now = base + server.now_ms();
      clock.watch.poll(now);
      while (next < end && s.reqs[next].due <= now) {
        s.reqs[next].submit = now;
        server.submit((*s.scenes)[s.scene_of(next)]);
        ++next;
      }
      if (!server.step() && next < end) std::this_thread::yield();
    }
    results = server.poll();
  });
  if (!ok) return;
  const auto& st = server.stats();
  s.shed_capacity += static_cast<std::int64_t>(st.shed_capacity);
  s.shed_deadline += static_cast<std::int64_t>(st.shed_deadline);
  s.batches += static_cast<std::int64_t>(st.batches);
  if (st.submitted != st.completed + st.shed_capacity + st.shed_deadline ||
      results.size() != end - first)
    s.tally.fail("submitted != completed + shed");
  for (const auto& res : results) {
    if (res.id < 1 || res.id > end - first) {
      s.tally.fail("result with unknown request id");
      continue;
    }
    const std::size_t i = first + res.id - 1;
    Request& r = s.reqs[i];
    r.done = base + res.done_ms;
    r.shed = res.shed;
    if (res.shed) continue;
    r.queue = res.queue_ms;
    r.pipeline = res.pipeline_ms;
    finish(s, r, res.detections, (*s.ref)[s.scene_of(i)]);
  }
}

/// Replays the scene set through a server that sheds nothing; true iff
/// every scene comes back bitwise equal to serial detect().
bool serve_gate(detectors::PointPillars& model,
                const std::vector<data::Scene>& scenes,
                const std::vector<Boxes>& ref) {
  serve::ServeConfig cfg;
  cfg.max_batch = kMaxBatch;
  cfg.queue_capacity = static_cast<int>(scenes.size()) + 1;
  serve::Server server(model, cfg);
  for (const auto& s : scenes) server.submit(s);
  server.drain();
  const auto results = server.poll();
  if (results.size() != scenes.size()) return false;
  for (const auto& r : results)
    if (r.shed || r.id < 1 || r.id > scenes.size() ||
        !same_boxes(r.detections, ref[r.id - 1]))
      return false;
  return true;
}

/// One turn of an open-loop phase: `seconds` of requests at the phase's
/// rate, due from now on, starting from an empty queue.
void run_stream(const Workload& w, Models& m, double seconds,
                double deadline_ms, bool trace, RunClock& clock, Stream& s) {
  const auto count = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(seconds * s.rate_hz)));
  const std::size_t first = s.reqs.size(), end = first + count;
  s.reqs.resize(end);
  const double base = clock.now();
  for (std::size_t i = 0; i < count; ++i)
    s.reqs[first + i].due =
        base + static_cast<double>(i + 1) * 1000.0 / s.rate_hz;
  s.turns.emplace_back(first, end);
  trace = trace && w.serve;  // the frame workloads' ledger is phase C's
  if (trace) {
    prof::reset();
    prof::set_enabled(true);
  }
  if (w.serve)
    run_served(static_cast<detectors::PointPillars&>(*m.outcome.model),
               deadline_ms, first, end, clock, s);
  else
    run_inorder(*m.hck, deadline_ms, first, end, clock, s);
  if (trace) {
    prof::set_enabled(false);
    s.ledger.absorb();
  }
  s.tally.sent += static_cast<std::int64_t>(count);
  s.tally.shed = s.shed_capacity + s.shed_deadline;
}

// ----------------------------------------------------------------------------
// Reporting

double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_tally(const Tally& t) {
  std::printf("  %-8s sent %lld  succeeded %lld  shed %lld  failed %lld\n",
              t.phase, static_cast<long long>(t.sent),
              static_cast<long long>(t.succeeded),
              static_cast<long long>(t.shed),
              static_cast<long long>(t.failed));
}

/// One line per round: the hck closed-loop median, the phase-A median
/// latency and the phase-B goodput of that round's turns. A host slowdown
/// shows here as the rounds it hit.
void print_rounds(const std::vector<int>& cpus,
                  const std::vector<std::size_t>& closed_ends,
                  const Closed& c, const Stream& a, const Stream& b) {
  std::printf("per round (cpu, hck closed p50 ms, stream A p50 ms, "
              "B goodput/s):\n");
  std::size_t c0 = 0;
  for (std::size_t k = 0; k < closed_ends.size() && k < b.turns.size(); ++k) {
    std::vector<double> closed, lat;
    for (std::size_t i = c0; i < closed_ends[k]; ++i)
      closed.push_back(c.hck.ms[i]);
    c0 = closed_ends[k];
    for (std::size_t i = a.turns[k].first; i < a.turns[k].second; ++i)
      if (a.reqs[i].ok) lat.push_back(a.reqs[i].done - a.reqs[i].due);
    const auto [b0, b1] = b.turns[k];
    std::int64_t good = 0;
    for (std::size_t i = b0; i < b1; ++i)
      good += b.reqs[i].ok && b.reqs[i].done - b.reqs[i].due <= kDeadlineMs;
    std::printf("  %2zu  cpu %d  %7.3f  %7.3f  %6.1f\n", k,
                cpus.empty() ? -1 : cpus[k % cpus.size()],
                closed.empty() ? 0.0 : median(closed),
                lat.empty() ? 0.0 : median(lat),
                static_cast<double>(good) * b.rate_hz /
                    static_cast<double>(b1 - b0));
  }
}

std::vector<Metric> end_to_end_metrics(const std::vector<double>& setup_s,
                                       const Closed& c, const Stream& a,
                                       const Stream& b) {
  const auto fp32 = steal_free(c.fp32.ms, c.fp32.clean);
  const auto hck = steal_free(c.hck.ms, c.hck.clean);
  const auto lat = a.latency_ms();
  std::printf("samples kept (steal-free): fp32 %zu/%zu, hck %zu/%zu, "
              "stream A %zu/%lld\n",
              fp32.size(), c.fp32.ms.size(), hck.size(), c.hck.ms.size(),
              lat.size(), static_cast<long long>(a.tally.succeeded));
  const double fp32_p50 = quiet_median(fp32), hck_p50 = quiet_median(hck);
  return {
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"fp32_p50_ms", fp32_p50, "ms"},
      {"hck_p50_ms", hck_p50, "ms"},
      {"hck_speedup", hck_p50 > 0.0 ? fp32_p50 / hck_p50 : 0.0, "x"},
      {"fp32_map", c.fp32.map, "%"},
      {"hck_map", c.hck.map, "%"},
      {"stream_p50_ms", quiet_median(lat), "ms"},
      {"stream_goodput_hz", b.goodput_hz(), "1/s"},
      {"stream_shed_frac", b.shed_frac(), "ratio"},
  };
}

/// Per-layer ledger of a traced run (see BENCHMARK.json for the list). A
/// layer the workload never runs reports 0.
std::vector<Metric> layer_metrics(const Workload& w, const Models& m,
                                  const std::vector<SetupTimes>& setups,
                                  const Closed& c, const Stream& a,
                                  const Stream& b, std::int64_t steady_allocs) {
  std::vector<Metric> out;
  const auto add = [&](const char* name, double v, const char* unit) {
    out.push_back({name, v, unit});
  };
  const bool pp = w.model == zoo::ModelKind::kPointPillars;
  const Ledger& H = c.hck.ledger;
  const Ledger& F = c.fp32.ledger;

  // Tails of the end-to-end latencies: the untraced closed-loop scenes and
  // phase A's requests of this run, steal-free.
  add("fp32_p99_ms", pct(steal_free(c.fp32.ms, c.fp32.clean), 0.99), "ms");
  add("hck_p99_ms", pct(steal_free(c.hck.ms, c.hck.clean), 0.99), "ms");
  add("stream_p99_ms", pct(a.latency_ms(), 0.99), "ms");

  // detectors: the benchmark's spans around the staged / render calls, hck.
  const auto pp_only = [&](double v) { return pp ? v : 0.0; };
  add("pp.pillarize_ms", pp_only(H.per_scene(H.span_ms("bench.pp.pillarize"))),
      "ms");
  add("pp.pillars_per_scene", pp_only(H.per_scene(c.pillars)), "count");
  add("pp.points_per_scene", pp_only(H.per_scene(c.points)), "count");
  add("pp.forward_ms", pp_only(H.per_scene(H.span_ms("bench.pp.forward"))),
      "ms");
  // Per forward_batch call: the server's batches on lidar_stream, one scene
  // per call on lidar_frame.
  double fb_ms = pp_only(H.per_scene(H.span_ms("bench.pp.forward")));
  if (w.serve) {
    const auto calls = a.ledger.span_calls("detect.batch") +
                       b.ledger.span_calls("detect.batch");
    fb_ms = calls > 0 ? (a.ledger.span_ms("detect.batch") +
                         b.ledger.span_ms("detect.batch")) /
                            static_cast<double>(calls)
                      : 0.0;
  }
  add("pp.forward_batch_ms", fb_ms, "ms");
  add("pp.decode_ms", pp_only(H.per_scene(H.span_ms("bench.pp.decode"))), "ms");
  add("pp.dets_per_scene", pp_only(H.per_scene(c.dets)), "count");
  add("smoke.render_ms", pp ? 0.0 : H.per_scene(H.span_ms("bench.smoke.render")),
      "ms");
  add("smoke.network_ms",
      pp ? 0.0
         : H.per_scene(H.span_ms("bench.detect") - H.span_ms("pre.normalize")),
      "ms");

  // nn: the program's per-layer spans grouped by layer kind, hck model.
  std::map<std::string, nn::LayerKind> kinds;
  for (const auto& l : m.outcome.model->layers()) {
    kinds[l->name()] = l->kind();
    kinds[nn::layer_kind_name(l->kind())] = l->kind();
  }
  const auto kind_ms = [&](const Ledger& L,
                           std::initializer_list<nn::LayerKind> ks) {
    double sum = 0.0;
    for (const auto& [name, ms] : L.ms) {
      auto it = kinds.find(name);
      if (it != kinds.end() &&
          std::find(ks.begin(), ks.end(), it->second) != ks.end())
        sum += ms;
    }
    return sum;
  };
  using K = nn::LayerKind;
  const double conv = kind_ms(H, {K::kConv2d});
  const double linear = kind_ms(H, {K::kLinear});
  add("nn.conv_ms", H.per_scene(conv), "ms");
  add("nn.linear_ms", H.per_scene(linear), "ms");
  add("nn.relu_ms", H.per_scene(kind_ms(H, {K::kRelu, K::kLeakyRelu})), "ms");
  add("nn.bn_ms", H.per_scene(kind_ms(H, {K::kBatchNorm})), "ms");
  add("nn.upsample_ms", H.per_scene(kind_ms(H, {K::kUpsample})), "ms");
  add("nn.pool_scatter_ms",
      H.per_scene(kind_ms(H, {K::kMaxPool}) + H.span_ms("pfn.maxpool") +
                  H.span_ms("pre.scatter")),
      "ms");
  double top = 0.0;
  for (const auto& [name, ms] : H.ms)
    if (kinds.count(name) != 0) top = std::max(top, ms);
  const double detect_ms = H.span_ms("bench.detect");
  add("nn.top_layer_share", detect_ms > 0.0 ? top / detect_ms : 0.0, "ratio");

  // tensor: float GEMM work of the fp32 variant, over its conv+linear time.
  const double f_gemm_ms = kind_ms(F, {K::kConv2d, K::kLinear});
  const double flops = F.counter(prof::Counter::kGemmFlops);
  add("tensor.gemm_gflops", f_gemm_ms > 0.0 ? flops / (f_gemm_ms * 1e6) : 0.0,
      "GFLOP/s");
  add("tensor.gemm_flops_per_scene", F.per_scene(flops), "count");
  add("tensor.im2col_bytes_per_scene",
      F.per_scene(F.counter(prof::Counter::kIm2colBytes)), "bytes");
  add("tensor.workspace_high_water_bytes",
      static_cast<double>(workspace::stats().high_water_bytes), "bytes");
  add("tensor.steady_block_allocs", static_cast<double>(steady_allocs),
      "count");

  // qnn: integer GEMM work of the hck variant, over its conv+linear time.
  const double macs = H.counter(prof::Counter::kQgemmMacs);
  add("qnn.int_gops",
      conv + linear > 0.0 ? 2.0 * macs / ((conv + linear) * 1e6) : 0.0,
      "GOP/s");
  add("qnn.qgemm_macs_per_scene", H.per_scene(macs), "count");
  add("qnn.act_quant_calls_per_scene",
      H.per_scene(H.counter(prof::Counter::kActQuantCalls)), "count");
  add("qnn.lowered_layers", m.hck->lowered_layers(), "count");
  add("qnn.steady_panel_builds", H.counter(prof::Counter::kPanelBuilds),
      "count");

  // parallel: pool dispatches per scene, both variants.
  const double scenes = static_cast<double>(F.scenes + H.scenes);
  const auto per_scene_both = [&](prof::Counter k) {
    return scenes > 0.0 ? (F.counter(k) + H.counter(k)) / scenes : 0.0;
  };
  add("parallel.pool_jobs_per_scene", per_scene_both(prof::Counter::kPoolJobs),
      "count");
  add("parallel.pool_tasks_per_scene",
      per_scene_both(prof::Counter::kPoolTasks), "count");

  // serve: request timings of phase A, shedding and batching of phase B.
  std::vector<double> queue, pipeline, late;
  for (const auto& r : a.reqs) {
    late.push_back(r.submit - r.due);
    if (r.ok) {
      queue.push_back(r.queue);
      pipeline.push_back(r.pipeline);
    }
  }
  const auto serve_only = [&](double v) { return w.serve ? v : 0.0; };
  add("serve.queue_wait_p50_ms", serve_only(pct(queue, 0.5)), "ms");
  add("serve.queue_wait_p99_ms", serve_only(pct(queue, 0.99)), "ms");
  add("serve.pipeline_p50_ms", serve_only(pct(pipeline, 0.5)), "ms");
  add("serve.batch_mean",
      serve_only(b.batches > 0
                     ? static_cast<double>(b.tally.sent - b.tally.shed) /
                           static_cast<double>(b.batches)
                     : 0.0),
      "count");
  add("serve.shed_capacity", serve_only(static_cast<double>(b.shed_capacity)),
      "count");
  add("serve.shed_deadline", serve_only(static_cast<double>(b.shed_deadline)),
      "count");
  add("serve.gen_late_p99_ms", serve_only(pct(late, 0.99)), "ms");

  // zoo + core: setup components, medians over the setups.
  std::vector<double> load, lower, warm;
  for (const SetupTimes& s : setups) {
    load.push_back(s.zoo_load_ms);
    lower.push_back(s.lower_ms);
    warm.push_back(s.warmup_ms);
  }
  add("zoo.load_ms", median(load), "ms");
  add("core.lower_ms", median(lower), "ms");
  add("setup.warmup_ms", median(warm), "ms");

  const double untraced = median(c.fp32.ms) + median(c.hck.ms);
  const double traced = median(c.fp32.traced_ms) + median(c.hck.traced_ms);
  add("trace.overhead_frac", untraced > 0.0 ? traced / untraced - 1.0 : 0.0,
      "ratio");
  return out;
}

struct Args {
  std::string workload, cache;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--cache") a.cache = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && !a.cache.empty() &&
         a.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--cache DIR\n",
                 argv[0]);
    return 2;
  }
  const Workload* wp = nullptr;
  for (const auto& w : workloads())
    if (args.workload == w.name) wp = &w;
  if (wp == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *wp;
  if (!cache_complete(args.cache, w.model)) {
    std::fprintf(stderr, "zoo cache at %s is incomplete; refusing to train\n",
                 args.cache.c_str());
    return 2;
  }
  prof::set_enabled(false);  // untraced unless a phase switches it on
  parallel::set_thread_count(kThreads);

  // Setup, several times, on the CPUs in turn like the rounds; setup_s is
  // the median. The last one is measured.
  const std::vector<int> cpus = allowed_cpus();
  std::unique_ptr<Models> mp;
  std::vector<SetupTimes> setups;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    if (!cpus.empty()) pin_to(cpus[static_cast<std::size_t>(k) % cpus.size()]);
    mp.reset();  // free the previous setup before timing the next
    mp = setup(w, args.cache,
               k == 0 ? g_process_start : SteadyClock::now());
    setups.push_back(mp->times);
    setup_s.push_back(mp->times.total_s);
  }
  Models& m = *mp;
  const auto allocs_before =
      static_cast<std::int64_t>(workspace::stats().block_allocs);

  const auto offset = static_cast<std::size_t>(args.seed % m.scenes.size());
  Closed c;
  init_closed(m, c);
  Stream a, b;
  a.tally.phase = "stream_a";
  b.tally.phase = "stream_b";
  for (Stream* s : {&a, &b}) {
    s->scenes = &m.scenes;
    s->ref = &c.hck.ref;
    s->offset = offset;
  }
  a.rate_hz = w.rate_a_hz;
  b.rate_hz = w.rate_b_hz;

  RunClock clock;
  a.watch = b.watch = &clock.watch;
  const int rounds =
      std::max(1, static_cast<int>(std::lround(args.seconds / kRoundS)));
  const double slice_s = args.seconds / rounds;
  const double share_b = 1.0 - w.share_c - w.share_a;
  bool gate_ok = true;
  std::vector<std::size_t> closed_ends;  // hck samples at the end of a round
  for (int k = 0; k < rounds; ++k) {
    if (!cpus.empty()) pin_to(cpus[static_cast<std::size_t>(k) % cpus.size()]);
    run_closed(w, m, offset, (k + 1) * slice_s * w.share_c * 1000.0,
               args.trace, clock, c);
    closed_ends.push_back(c.hck.spans.size());
    if (k == 0 && w.serve) {
      gate_ok = serve_gate(
          static_cast<detectors::PointPillars&>(*m.outcome.model), m.scenes,
          c.hck.ref);
      if (!gate_ok) {
        std::fprintf(stderr, "FAIL: serve != serial detect()\n");
        break;
      }
    }
    run_stream(w, m, slice_s * w.share_a, 0.0, args.trace, clock, a);
    run_stream(w, m, slice_s * share_b, kDeadlineMs, args.trace, clock, b);
  }
  finish_closed(w, m, clock, c);
  const auto steady_allocs =
      static_cast<std::int64_t>(workspace::stats().block_allocs) -
      allocs_before;

  const bool map_ok =
      c.fp32.map >= w.map_floor_fp32 && c.hck.map >= w.map_floor_hck;
  if (!map_ok)
    std::fprintf(stderr,
                 "FAIL: mAP below floor (fp32 %.2f, floor %.2f; hck %.2f, "
                 "floor %.2f)\n",
                 c.fp32.map, w.map_floor_fp32, c.hck.map, w.map_floor_hck);

  std::printf("upaq_perfbench: workload %s, seed %llu, %.1f s, trace %d, "
              "pool lanes %d, nproc %u, %zu scenes\n",
              w.name, static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, parallel::thread_count(),
              std::thread::hardware_concurrency(), m.scenes.size());
  std::printf("requests per phase:\n");
  print_tally(c.tally);
  print_tally(a.tally);
  print_tally(b.tally);
  print_rounds(cpus, closed_ends, c, a, b);

  const auto metrics =
      args.trace ? layer_metrics(w, m, setups, c, a, b, steady_allocs)
                 : end_to_end_metrics(setup_s, c, a, b);
  std::printf("metrics:\n");
  for (const auto& mt : metrics)
    std::printf("  %-34s %16.6f %s\n", mt.name.c_str(), mt.value, mt.unit);

  const std::int64_t attempted = c.tally.sent + a.tally.sent + b.tally.sent;
  const std::int64_t failed = c.tally.failed + a.tally.failed +
                              b.tally.failed + (gate_ok ? 0 : 1);
  const bool correct = failed == 0 && map_ok;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
