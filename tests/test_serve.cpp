// upaq::serve contract tests.
//
// The headline property is bitwise equivalence: the served detections must
// equal the serial detect() loop exactly — at every thread count, every
// batch size, and with the stage pipeline on or off. The rest pins the
// queue contract (bounded capacity, FIFO within priority, shed-oldest of
// the lowest priority under overflow), deadline shedding against a virtual
// clock, run-to-drain completeness (submitted == completed + shed, one
// result per id), the batch histogram, the obs serve records against
// ServeStats under forced overload, and the steady-state
// zero-scratch-allocation guarantee inherited from the workspace arena.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "core/qmodel.h"
#include "core/upaq.h"
#include "data/scene.h"
#include "detectors/pointpillars.h"
#include "obs/obs.h"
#include "parallel/thread_pool.h"
#include "prof/prof.h"
#include "serve/serve.h"
#include "serve/stream.h"
#include "tensor/rng.h"
#include "tensor/workspace.h"

namespace upaq {
namespace {

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    parallel::set_thread_count(1);
    prof::set_enabled(false);
    prof::reset();
    obs::reset();
  }
  void TearDown() override {
    prof::set_enabled(false);
    prof::reset();
    parallel::set_thread_count(1);
  }
};

std::vector<data::Scene> test_scenes(int n, std::uint64_t seed = 7) {
  Rng rng(seed);
  data::SceneGenerator gen;
  std::vector<data::Scene> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(gen.sample(rng));
  return out;
}

std::unique_ptr<detectors::PointPillars> make_model(
    detectors::PointPillarsConfig cfg = detectors::PointPillarsConfig::scaled()) {
  Rng rng(4242);
  auto model = std::make_unique<detectors::PointPillars>(cfg, rng);
  model->set_training(false);
  return model;
}

void expect_same_boxes(const std::vector<eval::Box3D>& a,
                       const std::vector<eval::Box3D>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(a[i].x),
              std::bit_cast<std::uint32_t>(b[i].x));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(a[i].y),
              std::bit_cast<std::uint32_t>(b[i].y));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(a[i].z),
              std::bit_cast<std::uint32_t>(b[i].z));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(a[i].length),
              std::bit_cast<std::uint32_t>(b[i].length));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(a[i].width),
              std::bit_cast<std::uint32_t>(b[i].width));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(a[i].height),
              std::bit_cast<std::uint32_t>(b[i].height));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(a[i].yaw),
              std::bit_cast<std::uint32_t>(b[i].yaw));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(a[i].score),
              std::bit_cast<std::uint32_t>(b[i].score));
    EXPECT_EQ(a[i].label, b[i].label);
  }
}

/// Drains `scenes` through a server and returns the results sorted by id
/// (submit order).
std::vector<serve::Result> drain_all(detectors::PointPillars& model,
                                     const std::vector<data::Scene>& scenes,
                                     serve::ServeConfig cfg) {
  serve::Server server(model, cfg);
  for (const auto& s : scenes) server.submit(s);
  server.drain();
  EXPECT_TRUE(server.idle());
  auto results = server.poll();
  std::sort(results.begin(), results.end(),
            [](const serve::Result& a, const serve::Result& b) {
              return a.id < b.id;
            });
  return results;
}

/// Serves `scenes` through `model` at every thread count x batch size x
/// pipeline mode and asserts each result equals `serial`, bitwise.
void expect_serve_matches_serial(
    detectors::PointPillars& model, const std::vector<data::Scene>& scenes,
    const std::vector<std::vector<eval::Box3D>>& serial) {
  for (const int threads : {1, 4}) {
    parallel::set_thread_count(threads);
    for (const int batch : {1, 2, 4}) {
      for (const bool pipeline : {false, true}) {
        serve::ServeConfig cfg;
        cfg.max_batch = batch;
        cfg.queue_capacity = static_cast<int>(scenes.size()) + 1;
        cfg.pipeline = pipeline;
        const auto results = drain_all(model, scenes, cfg);
        ASSERT_EQ(results.size(), scenes.size())
            << "threads=" << threads << " batch=" << batch
            << " pipeline=" << pipeline;
        for (std::size_t i = 0; i < results.size(); ++i) {
          SCOPED_TRACE("threads=" + std::to_string(threads) +
                       " batch=" + std::to_string(batch) +
                       " pipeline=" + std::to_string(pipeline) +
                       " scene=" + std::to_string(i));
          EXPECT_FALSE(results[i].shed);
          expect_same_boxes(results[i].detections, serial[i]);
        }
      }
    }
  }
}

/// The tentpole property: served == serial, bitwise, for every combination
/// of thread count x batch size x pipeline mode.
TEST_F(ServeTest, DetectionsMatchSerialLoopAtEveryThreadAndBatchSize) {
  auto model = make_model();
  const auto scenes = test_scenes(5);

  std::vector<std::vector<eval::Box3D>> serial;
  for (const auto& s : scenes) serial.push_back(model->detect(s));
  expect_serve_matches_serial(*model, scenes, serial);
}

/// The same property on the packed integer path. The lowered model
/// quantizes each layer's activations with a per-matrix scale, so any
/// layer that saw several scenes in one matrix would make a scene's
/// detections depend on its batch mates.
TEST_F(ServeTest, PackedModelDetectionsMatchSerialLoopInBatches) {
  // An untrained head scores every anchor near its sigmoid(-2.5) ~ 0.076
  // prior, far below the default threshold; 0.08 keeps a few dozen boxes
  // over the scene set, whose scores are the bitwise-sensitive part of the
  // comparison.
  auto cfg = detectors::PointPillarsConfig::scaled();
  cfg.score_threshold = 0.08f;
  auto model = make_model(cfg);
  core::UpaqCompressor compressor(core::UpaqConfig::hck());
  auto result = compressor.compress(*model);
  model->set_training(false);
  core::QuantizedModel qmodel(*model, std::move(result.plan));
  ASSERT_GT(qmodel.lowered_layers(), 0);
  const auto scenes = test_scenes(6);

  std::vector<std::vector<eval::Box3D>> serial;
  std::size_t boxes = 0;
  for (const auto& s : scenes) {
    serial.push_back(qmodel.detect(s));
    boxes += serial.back().size();
  }
  ASSERT_GT(boxes, 0u) << "no detections: the comparison would be vacuous";
  expect_serve_matches_serial(*model, scenes, serial);
}

/// Capacity overflow sheds the oldest request of the lowest priority; when
/// everything queued outranks the newcomer, the newcomer itself sheds.
TEST_F(ServeTest, BoundedQueueShedsOldestOfLowestPriority) {
  auto model = make_model();
  const auto scenes = test_scenes(1);
  double vt = 0.0;

  serve::ServeConfig cfg;
  cfg.queue_capacity = 3;
  cfg.clock = [&vt] { return vt; };
  serve::Server server(*model, cfg);

  const auto id1 = server.submit(scenes[0], /*priority=*/0);
  const auto id2 = server.submit(scenes[0], /*priority=*/1);
  const auto id3 = server.submit(scenes[0], /*priority=*/0);
  EXPECT_EQ(server.queue_depth(), 3u);

  // Full queue, equal-or-lower priority present: oldest prio-0 (id1) sheds.
  const auto id4 = server.submit(scenes[0], /*priority=*/0);
  EXPECT_EQ(server.queue_depth(), 3u);
  auto shed = server.poll();
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].id, id1);
  EXPECT_TRUE(shed[0].shed);
  EXPECT_TRUE(shed[0].detections.empty());

  // Full queue, incoming outranks everything: oldest of the lowest class
  // (id3 — the oldest remaining prio-0) sheds, not the newcomer.
  const auto id5 = server.submit(scenes[0], /*priority=*/2);
  shed = server.poll();
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].id, id3);

  // Full queue where everything outranks the newcomer: the newcomer sheds.
  const auto id6 = server.submit(scenes[0], /*priority=*/-1);
  shed = server.poll();
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].id, id6);

  EXPECT_EQ(server.stats().shed_capacity, 3u);
  EXPECT_EQ(server.stats().shed_deadline, 0u);
  EXPECT_EQ(server.stats().submitted, 6u);
  (void)id2;
  (void)id4;
  (void)id5;
  server.drain();
  EXPECT_EQ(server.stats().completed, 3u);
}

/// Batches pull highest priority first and FIFO within a priority, so the
/// completion order over two batches is exactly [high in submit order,
/// low in submit order].
TEST_F(ServeTest, BatchFormationIsPriorityThenFifo) {
  auto model = make_model();
  const auto scenes = test_scenes(1);

  serve::ServeConfig cfg;
  cfg.max_batch = 2;
  cfg.queue_capacity = 8;
  serve::Server server(*model, cfg);

  const auto a = server.submit(scenes[0], 0);
  const auto b = server.submit(scenes[0], 1);
  const auto c = server.submit(scenes[0], 0);
  const auto d = server.submit(scenes[0], 1);
  server.drain();

  const auto results = server.poll();  // completion order
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].id, b);
  EXPECT_EQ(results[1].id, d);
  EXPECT_EQ(results[2].id, a);
  EXPECT_EQ(results[3].id, c);
  EXPECT_EQ(results[0].batch, 2);
  EXPECT_EQ(results[2].batch, 2);
}

/// Deadline shedding against a virtual clock: only requests older than the
/// deadline at batch-formation time shed, oldest first; fresh ones serve.
TEST_F(ServeTest, DeadlineShedsOnlyStaleRequests) {
  auto model = make_model();
  const auto scenes = test_scenes(2);
  double vt = 0.0;

  serve::ServeConfig cfg;
  cfg.queue_capacity = 8;
  cfg.deadline_ms = 10.0;
  cfg.clock = [&vt] { return vt; };
  serve::Server server(*model, cfg);

  const auto stale = server.submit(scenes[0]);
  vt = 5.0;
  const auto fresh = server.submit(scenes[1]);
  vt = 12.0;  // stale is 12 ms old (> 10), fresh is 7 ms old
  server.drain();

  auto results = server.poll();
  std::sort(results.begin(), results.end(),
            [](const serve::Result& x, const serve::Result& y) {
              return x.id < y.id;
            });
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].id, stale);
  EXPECT_TRUE(results[0].shed);
  EXPECT_EQ(results[1].id, fresh);
  EXPECT_FALSE(results[1].shed);
  EXPECT_EQ(server.stats().shed_deadline, 1u);
  EXPECT_EQ(server.stats().shed_capacity, 0u);

  // The shed scene's detections must still be reachable serially — shedding
  // is a queueing decision, never a model-state one.
  expect_same_boxes(results[1].detections, model->detect(scenes[1]));
}

/// Run-to-drain accounting: every submitted scene yields exactly one
/// result; submitted == completed + shed, ids unique and gapless.
TEST_F(ServeTest, DrainDeliversExactlyOneResultPerSubmit) {
  auto model = make_model();
  const auto scenes = test_scenes(3);

  serve::ServeConfig cfg;
  cfg.max_batch = 2;
  cfg.queue_capacity = 4;  // overflows on a 10-submit burst
  serve::Server server(*model, cfg);

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i)
    ids.push_back(
        server.submit(scenes[static_cast<std::size_t>(i) % scenes.size()]));
  server.drain();
  EXPECT_TRUE(server.idle());

  const auto results = server.poll();
  ASSERT_EQ(results.size(), ids.size());
  std::set<std::uint64_t> seen;
  std::uint64_t shed_count = 0;
  for (const auto& r : results) {
    EXPECT_TRUE(seen.insert(r.id).second) << "duplicate result id " << r.id;
    if (r.shed) {
      ++shed_count;
      EXPECT_EQ(r.batch, 0);
    } else {
      EXPECT_GE(r.batch, 1);
      EXPECT_LE(r.batch, cfg.max_batch);
    }
  }
  for (const auto id : ids) EXPECT_TRUE(seen.count(id)) << "lost id " << id;

  const auto& st = server.stats();
  EXPECT_EQ(st.submitted, 10u);
  EXPECT_GT(st.shed_capacity, 0u);  // the burst must actually overflow
  EXPECT_EQ(st.completed + st.shed_capacity + st.shed_deadline, 10u);
  EXPECT_EQ(shed_count, st.shed_capacity + st.shed_deadline);
  // Nothing left behind.
  EXPECT_TRUE(server.poll().empty());
  EXPECT_EQ(server.queue_depth(), 0u);
}

/// The batch-size histogram and the obs serve records agree with the stats.
TEST_F(ServeTest, BatchHistogramMatchesFormation) {
  auto model = make_model();
  const auto scenes = test_scenes(1);

  serve::ServeConfig cfg;
  cfg.max_batch = 2;
  cfg.queue_capacity = 8;
  serve::Server server(*model, cfg);
  for (int i = 0; i < 5; ++i) server.submit(scenes[0]);
  server.drain();

  const auto& st = server.stats();
  EXPECT_EQ(st.batches, 3u);  // 2 + 2 + 1
  ASSERT_EQ(st.batch_hist.size(), 3u);
  EXPECT_EQ(st.batch_hist[0], 0u);
  EXPECT_EQ(st.batch_hist[1], 1u);
  EXPECT_EQ(st.batch_hist[2], 2u);
  EXPECT_EQ(st.completed, 5u);
  EXPECT_EQ(obs::counter_value(obs::Counter::kBatches), 3u);
  EXPECT_EQ(obs::hist_snapshot(obs::Hist::kServeTotal).count, 5u);
  EXPECT_EQ(obs::counter_value(obs::Counter::kShedCapacity), 0u);
  EXPECT_EQ(obs::counter_value(obs::Counter::kShedDeadline), 0u);
}

/// Forced overload with a virtual clock: every obs serve record equals the
/// ServeStats field that counts the same event — one tick per shed request,
/// split by cause, and one kServeTotal record per completed request.
TEST_F(ServeTest, ObsRecordsMatchStatsUnderForcedOverload) {
  auto model = make_model();
  const auto scene = test_scenes(1, 99)[0];
  double vt = 0.0;

  serve::ServeConfig cfg;
  cfg.max_batch = 2;
  cfg.queue_capacity = 2;
  cfg.deadline_ms = 10.0;
  cfg.clock = [&vt] { return vt; };
  serve::Server server(*model, cfg);

  // Burst of 5 into a 2-deep queue: exactly 3 capacity sheds.
  for (int i = 0; i < 5; ++i) server.submit(scene);
  EXPECT_EQ(obs::counter_value(obs::Counter::kShedCapacity), 3u);
  // Age the survivors past the deadline: exactly 2 deadline sheds.
  vt = 25.0;
  server.drain();
  EXPECT_EQ(obs::counter_value(obs::Counter::kShedDeadline), 2u);
  // Two fresh requests are served in one batch.
  for (int i = 0; i < 2; ++i) server.submit(scene);
  server.drain();

  const auto& st = server.stats();
  EXPECT_EQ(st.submitted, 7u);
  EXPECT_EQ(st.shed_capacity, 3u);
  EXPECT_EQ(st.shed_deadline, 2u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(obs::counter_value(obs::Counter::kSubmitted), st.submitted);
  EXPECT_EQ(obs::counter_value(obs::Counter::kShedCapacity), st.shed_capacity);
  EXPECT_EQ(obs::counter_value(obs::Counter::kShedDeadline), st.shed_deadline);
  EXPECT_EQ(obs::counter_value(obs::Counter::kBatches), st.batches);
  EXPECT_EQ(obs::hist_snapshot(obs::Hist::kServeTotal).count, st.completed);
  EXPECT_EQ(server.poll().size(), 7u);
}

/// Steady state allocates no new workspace blocks: after one warm-up pass
/// over the scene set, a second identical pass is served entirely from the
/// arena (reuses grow, block count does not).
TEST_F(ServeTest, SteadyStateAllocatesNoNewScratchBlocks) {
  auto model = make_model();
  const auto scenes = test_scenes(4);

  serve::ServeConfig cfg;
  cfg.max_batch = 2;
  cfg.queue_capacity = 8;
  auto pass = [&] {
    serve::Server server(*model, cfg);
    for (const auto& s : scenes) server.submit(s);
    server.drain();
    return server.poll();
  };

  (void)pass();  // warm-up: grows the arena to this workload's high water
  const workspace::Stats warm = workspace::stats();
  const auto results = pass();  // identical batches, identical shapes
  const workspace::Stats steady = workspace::stats();

  EXPECT_EQ(results.size(), scenes.size());
  EXPECT_EQ(steady.block_allocs, warm.block_allocs)
      << "steady-state serving hit the heap for scratch";
  EXPECT_GT(steady.reuses, warm.reuses);
}

/// The stream generator: deterministic in the seed, monotone due times, and
/// scene content independent of the arrival process (same seed + different
/// rate or process -> identical scenes).
TEST_F(ServeTest, StreamIsSeededAndSceneContentIsRateInvariant) {
  serve::StreamConfig a;
  a.scenes = 6;
  a.rate_hz = 30.0;
  a.seed = 11;
  const auto s1 = serve::make_stream(a);
  const auto s2 = serve::make_stream(a);
  ASSERT_EQ(s1.size(), 6u);
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].due_ms, s2[i].due_ms);
    ASSERT_EQ(s1[i].scene.points.size(), s2[i].scene.points.size());
    if (i > 0) {
      EXPECT_GE(s1[i].due_ms, s1[i - 1].due_ms);
    }
  }

  serve::StreamConfig b = a;
  b.rate_hz = 300.0;
  b.poisson = false;
  const auto s3 = serve::make_stream(b);
  ASSERT_EQ(s3.size(), s1.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    ASSERT_EQ(s3[i].scene.points.size(), s1[i].scene.points.size());
    ASSERT_EQ(s3[i].scene.objects.size(), s1[i].scene.objects.size());
    for (std::size_t p = 0; p < s1[i].scene.points.size(); ++p) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(s3[i].scene.points[p].x),
                std::bit_cast<std::uint32_t>(s1[i].scene.points[p].x));
      EXPECT_EQ(std::bit_cast<std::uint32_t>(s3[i].scene.points[p].z),
                std::bit_cast<std::uint32_t>(s1[i].scene.points[p].z));
    }
  }
  // Fixed-rate arrivals are evenly spaced.
  for (std::size_t i = 1; i < s3.size(); ++i)
    EXPECT_NEAR(s3[i].due_ms - s3[i - 1].due_ms, 1000.0 / 300.0, 1e-9);
}

}  // namespace
}  // namespace upaq
