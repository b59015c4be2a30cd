// upaq::obs contract tests: log-scale bucket boundaries, thread-distribution-
// independent (bitwise) histogram merges, the bounded event ring's overwrite
// accounting, level filtering, the Prometheus/JSON exporters (including the
// validator's rejection paths), the JSON reader (with its nesting cap) +
// path lookup feeding the bench-regression gate, the gate's
// pass/fail/missing semantics against a perturbed bench document, request-id
// propagation into the tail exemplar through a real serve run, one detect
// histogram record per detect() call, and the disabled-mode "changes
// nothing" guarantee on detections.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "data/scene.h"
#include "detectors/pointpillars.h"
#include "detectors/smoke.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/regress.h"
#include "parallel/thread_pool.h"
#include "serve/serve.h"
#include "serve/stream.h"

namespace upaq {
namespace {

/// Every test owns the global obs state: enabled, empty, info level.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::set_log_level(obs::Level::kInfo);
    obs::set_ring_capacity(1024);
    obs::reset();
  }
  void TearDown() override {
    obs::set_enabled(true);
    obs::set_log_level(obs::Level::kInfo);
    obs::set_ring_capacity(1024);
    obs::reset();
  }
};

// ---------------------------------------------------------------------------
// Bucketing

TEST_F(ObsTest, BucketBoundaries) {
  // v < 8: exact, one bucket per value.
  for (std::uint64_t v = 0; v < 8; ++v)
    EXPECT_EQ(obs::bucket_of(v), static_cast<int>(v)) << v;
  // First octave past the exact range.
  EXPECT_EQ(obs::bucket_of(8), 8);
  EXPECT_EQ(obs::bucket_of(15), 11);
  EXPECT_EQ(obs::bucket_of(16), 12);
  // The top of uint64 saturates into the last bucket instead of dropping.
  EXPECT_EQ(obs::bucket_of(std::numeric_limits<std::uint64_t>::max()),
            obs::kHistBuckets - 1);
}

TEST_F(ObsTest, BucketFloorIsInclusiveLowerEdge) {
  for (std::uint64_t v : {0ull, 1ull, 7ull, 8ull, 9ull, 15ull, 16ull, 100ull,
                          1000ull, 123456789ull, 1ull << 40, (1ull << 62) + 5}) {
    const int b = obs::bucket_of(v);
    EXPECT_LE(obs::bucket_floor(b), v) << v;
    EXPECT_EQ(obs::bucket_of(obs::bucket_floor(b)), b) << v;
    if (b + 1 < obs::kHistBuckets) {
      EXPECT_GT(obs::bucket_floor(b + 1), v) << v;
    }
  }
}

TEST_F(ObsTest, QuantilesAreOrderedAndBracketed) {
  for (std::uint64_t ns = 1000; ns <= 100000; ns += 1000)
    obs::record(obs::Hist::kDetect, ns);
  const auto h = obs::hist_snapshot(obs::Hist::kDetect);
  EXPECT_EQ(h.count, 100u);
  const double p50 = h.quantile_ns(0.5), p99 = h.quantile_ns(0.99);
  EXPECT_LE(p50, p99);
  // Log buckets guarantee <= 25% relative error on each quantile.
  EXPECT_NEAR(p50, 50000.0, 0.25 * 50000.0);
  EXPECT_NEAR(p99, 99000.0, 0.25 * 99000.0);
  EXPECT_NEAR(h.mean_ms(), 50.5e-3, 0.5e-3);
}

TEST_F(ObsTest, MergeIsBitwiseIndependentOfThreadDistribution) {
  // Same 4000 records, once from one thread and once spread over 4 threads,
  // must produce byte-identical snapshots: all histogram state is integral.
  std::vector<std::uint64_t> values;
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 4000; ++i) {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    values.push_back(x % 5000000);
  }

  for (auto v : values) obs::record(obs::Hist::kDetect, v);
  const auto serial = obs::hist_snapshot(obs::Hist::kDetect);

  obs::reset();
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([&values, t] {
      for (std::size_t i = t; i < values.size(); i += 4)
        obs::record(obs::Hist::kDetect, values[i]);
    });
  for (auto& w : workers) w.join();
  const auto merged = obs::hist_snapshot(obs::Hist::kDetect);

  EXPECT_EQ(serial, merged);
  EXPECT_EQ(serial.count, 4000u);
}

TEST_F(ObsTest, CountersAndGauges) {
  obs::add(obs::Counter::kSubmitted, 10);
  obs::add(obs::Counter::kShedCapacity, 2);
  obs::add(obs::Counter::kShedDeadline);
  obs::gauge_set(obs::Gauge::kQueueDepth, 7);
  obs::gauge_set(obs::Gauge::kQueueDepth, 3);  // last write wins
  obs::gauge_max(obs::Gauge::kArenaHighWater, 100);
  obs::gauge_max(obs::Gauge::kArenaHighWater, 50);  // ratchet keeps max
  EXPECT_EQ(obs::counter_value(obs::Counter::kSubmitted), 10u);
  EXPECT_EQ(obs::gauge_value(obs::Gauge::kQueueDepth), 3);
  EXPECT_EQ(obs::gauge_value(obs::Gauge::kArenaHighWater), 100);
  const auto s = obs::snapshot();
  EXPECT_NEAR(s.shed_rate, 0.3, 1e-12);  // (2 + 1) / 10
}

// ---------------------------------------------------------------------------
// Event ring

TEST_F(ObsTest, RingOverwritesOldestAndCountsDropped) {
  obs::set_ring_capacity(4);
  for (int i = 0; i < 10; ++i)
    obs::log_event(obs::Level::kInfo, "e" + std::to_string(i),
                   {obs::fint("i", i)});
  const auto evs = obs::events();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs.front().name, "e6");  // oldest retained
  EXPECT_EQ(evs.back().name, "e9");
  EXPECT_EQ(obs::events_logged(), 10u);
  EXPECT_EQ(obs::events_dropped(), 6u);
  // seq stays monotonic across the overwrite.
  for (std::size_t i = 1; i < evs.size(); ++i)
    EXPECT_EQ(evs[i].seq, evs[i - 1].seq + 1);
}

TEST_F(ObsTest, LevelFiltersBeforeTheRing) {
  obs::set_log_level(obs::Level::kWarn);
  obs::log_event(obs::Level::kDebug, "dropped.debug", {});
  obs::log_event(obs::Level::kInfo, "dropped.info", {});
  obs::log_event(obs::Level::kWarn, "kept.warn", {});
  obs::log_event(obs::Level::kError, "kept.error", {});
  const auto evs = obs::events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].name, "kept.warn");
  EXPECT_EQ(evs[1].name, "kept.error");
  EXPECT_EQ(obs::events_dropped(), 0u);  // filtered != dropped
}

TEST_F(ObsTest, ParseLevelAcceptsNamesAndDigits) {
  obs::Level lv;
  EXPECT_TRUE(obs::parse_level("error", lv));
  EXPECT_EQ(lv, obs::Level::kError);
  EXPECT_TRUE(obs::parse_level("warning", lv));
  EXPECT_EQ(lv, obs::Level::kWarn);
  EXPECT_TRUE(obs::parse_level("3", lv));
  EXPECT_EQ(lv, obs::Level::kDebug);
  EXPECT_FALSE(obs::parse_level("loud", lv));
}

// ---------------------------------------------------------------------------
// Exporters

TEST_F(ObsTest, PrometheusTextValidatesAndCarriesTheData) {
  obs::add(obs::Counter::kSubmitted, 5);
  for (std::uint64_t ns : {1000000ull, 2000000ull, 40000000ull})
    obs::record(obs::Hist::kServeTotal, ns);
  const std::string text = obs::prometheus_text(obs::snapshot());
  std::string err;
  EXPECT_TRUE(obs::validate_prometheus(text, &err)) << err;
  EXPECT_NE(text.find("# TYPE upaq_serve_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("upaq_serve_submitted_total 5"), std::string::npos);
  EXPECT_NE(text.find("upaq_serve_total_ms_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("upaq_serve_total_ms_count 3"), std::string::npos);
}

TEST_F(ObsTest, ValidatorRejectsMalformedExpositions) {
  std::string err;
  // Sample without a TYPE declaration.
  EXPECT_FALSE(obs::validate_prometheus("upaq_x_total 1\n", &err));
  // Non-numeric value.
  EXPECT_FALSE(obs::validate_prometheus(
      "# TYPE upaq_x counter\nupaq_x nan-ish\n", &err));
  // Cumulative bucket counts must be non-decreasing.
  EXPECT_FALSE(obs::validate_prometheus(
      "# TYPE upaq_h histogram\n"
      "upaq_h_bucket{le=\"1\"} 5\n"
      "upaq_h_bucket{le=\"2\"} 3\n"
      "upaq_h_bucket{le=\"+Inf\"} 5\n"
      "upaq_h_sum 1\nupaq_h_count 5\n",
      &err));
  // +Inf bucket must equal _count.
  EXPECT_FALSE(obs::validate_prometheus(
      "# TYPE upaq_h histogram\n"
      "upaq_h_bucket{le=\"+Inf\"} 4\n"
      "upaq_h_sum 1\nupaq_h_count 5\n",
      &err));
  // Bad metric-name charset.
  EXPECT_FALSE(obs::validate_prometheus(
      "# TYPE upaq-bad counter\nupaq-bad 1\n", &err));
}

TEST_F(ObsTest, SnapshotJsonRoundTripsThroughTheReader) {
  obs::add(obs::Counter::kSubmitted, 3);
  obs::record(obs::Hist::kDetect, 7000000);  // 7 ms
  obs::log_event(obs::Level::kInfo, "model.lowered",
                 {obs::fstr("model", "Quantized(PointPillars)")});
  // Every Field kind, with a key and a string value that need escaping.
  obs::log_event(obs::Level::kWarn, "serve.shed",
                 {obs::fuint("req_id", 42), obs::fint("priority", -3),
                  obs::fstr("reason", "cap\"acity\n\\"),
                  obs::fbool("late", false), obs::fnum("queued_ms", 1.5),
                  obs::fstr("odd\"key\t", "v")});
  obs::RequestTrace t;
  t.req_id = 9;
  t.batch = 2;
  t.total_ms = 12.5;
  t.spans.push_back({"queue", 0.0, 3.0});
  t.spans.push_back({"detect", 3.0, 9.5});
  obs::offer_exemplar(t);

  obs::json::Value v;
  std::string err;
  ASSERT_TRUE(obs::json::parse(obs::snapshot_json(obs::snapshot()), v, &err))
      << err;
  auto at = [&v](const char* path) -> const obs::json::Value& {
    const auto* p = v.at_path(path);
    EXPECT_NE(p, nullptr) << path;
    static const obs::json::Value null_value;
    return p != nullptr ? *p : null_value;
  };
  EXPECT_EQ(at("counters.serve_submitted").number, 3.0);
  EXPECT_EQ(at("histograms.detect_latency.count").number, 1.0);
  EXPECT_EQ(at("exemplar.req_id").number, 9.0);
  EXPECT_EQ(at("exemplar.spans.1.name").str, "detect");
  // The search value may itself contain dots: segments split outside [...].
  EXPECT_EQ(at("events.[event=model.lowered].model").str,
            "Quantized(PointPillars)");
  EXPECT_EQ(at("events.[event=serve.shed].level").str, "warn");
  EXPECT_EQ(at("events.[event=serve.shed].req_id").number, 42.0);
  EXPECT_EQ(at("events.[event=serve.shed].priority").number, -3.0);
  EXPECT_EQ(at("events.[event=serve.shed].reason").str, "cap\"acity\n\\");
  EXPECT_EQ(at("events.[event=serve.shed].late").kind,
            obs::json::Value::Kind::kBool);
  EXPECT_FALSE(at("events.[event=serve.shed].late").boolean);
  EXPECT_EQ(at("events.[event=serve.shed].queued_ms").number, 1.5);
  EXPECT_EQ(at("events.[event=serve.shed].odd\"key\t").str, "v");
}

// ---------------------------------------------------------------------------
// JSON reader

TEST_F(ObsTest, JsonParserHandlesTheRepoSubset) {
  obs::json::Value v;
  std::string err;
  ASSERT_TRUE(obs::json::parse(
      R"({"a": [1, 2.5, -3e2], "s": "x\n\"y", "b": true, "n": null,)"
      R"( "o": {"k": 0}})",
      v, &err))
      << err;
  EXPECT_EQ(v.at_path("a.2")->number, -300.0);
  EXPECT_EQ(v.at_path("s")->str, "x\n\"y");
  EXPECT_TRUE(v.at_path("b")->boolean);
  EXPECT_EQ(v.at_path("o.k")->number, 0.0);
  EXPECT_EQ(v.at_path("o.missing"), nullptr);

  EXPECT_FALSE(obs::json::parse("{\"a\": 1} trailing", v, &err));
  EXPECT_FALSE(obs::json::parse("{\"a\": }", v, &err));
  EXPECT_FALSE(obs::json::parse("[1, 2,]", v, &err));
}

TEST_F(ObsTest, JsonParserRejectsDeepNestingWithAnError) {
  // A million levels would overflow the recursive parser's stack; the depth
  // cap turns them into a parse error instead.
  obs::json::Value v;
  std::string err;
  const std::string arrays(1000000, '[');
  EXPECT_FALSE(obs::json::parse(arrays, v, &err));
  EXPECT_NE(err.find("nesting"), std::string::npos) << err;
  std::string objects;
  for (int i = 0; i < 1000000; ++i) objects += "{\"a\":";
  err.clear();
  EXPECT_FALSE(obs::json::parse(objects, v, &err));
  EXPECT_NE(err.find("nesting"), std::string::npos) << err;
  // Nesting at the cap still parses.
  const std::string ok = std::string(256, '[') + std::string(256, ']');
  EXPECT_TRUE(obs::json::parse(ok, v, &err)) << err;
  EXPECT_FALSE(obs::json::parse("[" + ok + "]", v, &err));
}

TEST_F(ObsTest, AtPathSearchesArraysOfObjects) {
  obs::json::Value v;
  ASSERT_TRUE(obs::json::parse(
      R"({"variants": [{"variant": "fp32", "p50": 7.0},)"
      R"( {"variant": "packed", "p50": 4.5}]})",
      v));
  EXPECT_EQ(v.at_path("variants.[variant=packed].p50")->number, 4.5);
  EXPECT_EQ(v.at_path("variants.[variant=absent].p50"), nullptr);
}

// ---------------------------------------------------------------------------
// Regression gate

const char* kBaselineDoc = R"({
  "metrics": [
    {"name": "p50", "file": "bench", "path": "lat.p50_ms",
     "baseline": 6.0, "direction": "lower_better", "rel_slack": 0.5},
    {"name": "speedup", "file": "bench", "path": "speedup",
     "baseline": 1.26, "direction": "higher_better", "abs_bound": 1.05},
    {"name": "other", "file": "unsupplied", "path": "x",
     "baseline": 1.0, "direction": "lower_better", "rel_slack": 0.1}
  ]
})";

TEST_F(ObsTest, RegressionGatePassesWithinSlack) {
  obs::json::Value base, cur;
  ASSERT_TRUE(obs::json::parse(kBaselineDoc, base));
  obs::regress::Baseline b;
  std::string err;
  ASSERT_TRUE(obs::regress::parse_baseline(base, b, &err)) << err;
  ASSERT_TRUE(obs::json::parse(R"({"lat": {"p50_ms": 7.1}, "speedup": 1.2})",
                               cur));
  const auto res = obs::regress::compare(b, {{"bench", &cur}});
  ASSERT_EQ(res.size(), 3u);
  EXPECT_EQ(res[0].status, obs::regress::Status::kPass);  // 7.1 <= 9.0
  EXPECT_EQ(res[1].status, obs::regress::Status::kPass);  // 1.2 >= 1.05
  EXPECT_EQ(res[2].status, obs::regress::Status::kSkippedFile);
  EXPECT_TRUE(obs::regress::all_pass(res));
}

TEST_F(ObsTest, RegressionGateFailsOnPerturbedBench) {
  // The acceptance demo: perturb the current bench 3x over baseline and the
  // gate must trip; drop the speedup below the ratchet floor, same.
  obs::json::Value base, cur;
  ASSERT_TRUE(obs::json::parse(kBaselineDoc, base));
  obs::regress::Baseline b;
  ASSERT_TRUE(obs::regress::parse_baseline(base, b));
  ASSERT_TRUE(obs::json::parse(R"({"lat": {"p50_ms": 18.0}, "speedup": 0.97})",
                               cur));
  const auto res = obs::regress::compare(b, {{"bench", &cur}});
  EXPECT_EQ(res[0].status, obs::regress::Status::kFail);  // 18 > 9.0
  EXPECT_EQ(res[1].status, obs::regress::Status::kFail);  // 0.97 < 1.05
  EXPECT_FALSE(obs::regress::all_pass(res));
  const std::string rep = obs::regress::report(res);
  EXPECT_NE(rep.find("FAIL"), std::string::npos);
}

TEST_F(ObsTest, RegressionGateFailsOnMissingMetricInSuppliedFile) {
  obs::json::Value base, cur;
  ASSERT_TRUE(obs::json::parse(kBaselineDoc, base));
  obs::regress::Baseline b;
  ASSERT_TRUE(obs::regress::parse_baseline(base, b));
  // p50 renamed away: supplied file, absent path -> hard failure.
  ASSERT_TRUE(obs::json::parse(R"({"speedup": 1.2})", cur));
  const auto res = obs::regress::compare(b, {{"bench", &cur}});
  EXPECT_EQ(res[0].status, obs::regress::Status::kMissingMetric);
  EXPECT_FALSE(obs::regress::all_pass(res));
}

TEST_F(ObsTest, BaselineParserRejectsSlacklessMetrics) {
  obs::json::Value doc;
  ASSERT_TRUE(obs::json::parse(
      R"({"metrics": [{"name": "x", "file": "f", "path": "p",)"
      R"( "baseline": 1.0, "direction": "lower_better"}]})",
      doc));
  obs::regress::Baseline b;
  std::string err;
  EXPECT_FALSE(obs::regress::parse_baseline(doc, b, &err));
  EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------------------
// Serve integration: request ids, exemplar, disabled-mode purity

TEST_F(ObsTest, ServeRunPopulatesMetricsAndExemplar) {
  parallel::set_thread_count(2);
  Rng rng(4242);
  detectors::PointPillars model(detectors::PointPillarsConfig::scaled(), rng);
  model.set_training(false);
  serve::StreamConfig scfg;
  scfg.scenes = 6;
  scfg.rate_hz = 50.0;
  const auto arrivals = serve::make_stream(scfg);
  (void)model.detect(arrivals.front().scene);
  obs::reset();

  serve::ServeConfig cfg;
  const auto rep = serve::run_open_loop(model, arrivals, cfg);
  EXPECT_EQ(rep.results.size(), 6u);

  EXPECT_EQ(obs::counter_value(obs::Counter::kSubmitted), 6u);
  EXPECT_EQ(obs::hist_snapshot(obs::Hist::kServeTotal).count, 6u);
  // One record per stage per batch, taken from the exemplar's stage stamps.
  const std::uint64_t batches = obs::counter_value(obs::Counter::kBatches);
  EXPECT_GE(batches, 1u);
  EXPECT_EQ(obs::hist_snapshot(obs::Hist::kServePre).count, batches);
  EXPECT_EQ(obs::hist_snapshot(obs::Hist::kServeDetect).count, batches);
  EXPECT_EQ(obs::hist_snapshot(obs::Hist::kServePost).count, batches);

  // The exemplar is a real request: its id came through submit(), and its
  // span tree has the full queue -> pre -> detect -> post decomposition.
  const auto ex = obs::exemplar();
  bool id_known = false;
  for (const auto& r : rep.results) id_known |= (r.id == ex.req_id);
  EXPECT_TRUE(id_known);
  ASSERT_EQ(ex.spans.size(), 4u);
  EXPECT_EQ(ex.spans[0].name, "queue");
  EXPECT_EQ(ex.spans[1].name, "pre");
  EXPECT_EQ(ex.spans[2].name, "detect");
  EXPECT_EQ(ex.spans[3].name, "post");
  for (const auto& sp : ex.spans) EXPECT_GE(sp.dur_ms, 0.0);
  EXPECT_GE(ex.batch, 1);
  parallel::set_thread_count(1);
}

TEST_F(ObsTest, DetectHistogramCountsEveryDetectCall) {
  // kDetect's count is the detect-call counter: one record per detect() of
  // either detector, none while obs is disabled.
  Rng rng(4242);
  detectors::PointPillars pp(detectors::PointPillarsConfig::scaled(), rng);
  detectors::Smoke smoke(detectors::SmokeConfig::scaled(), rng);
  Rng srng(7);
  data::SceneGenerator gen;
  const auto scene = gen.sample(srng);
  for (int i = 0; i < 3; ++i) (void)pp.detect(scene);
  for (int i = 0; i < 2; ++i) (void)smoke.detect(scene);
  obs::set_enabled(false);
  (void)pp.detect(scene);
  obs::set_enabled(true);
  EXPECT_EQ(obs::hist_snapshot(obs::Hist::kDetect).count, 5u);
}

TEST_F(ObsTest, DisablingObsChangesNoDetections) {
  Rng rng(4242);
  detectors::PointPillars model(detectors::PointPillarsConfig::scaled(), rng);
  model.set_training(false);
  Rng srng(7);
  data::SceneGenerator gen;
  const auto scene = gen.sample(srng);

  obs::set_enabled(true);
  const auto on = model.detect(scene);
  obs::set_enabled(false);
  const auto off = model.detect(scene);
  obs::set_enabled(true);

  // Timing feeds reports, never arithmetic: bitwise-identical boxes.
  ASSERT_EQ(on.size(), off.size());
  for (std::size_t i = 0; i < on.size(); ++i) {
    EXPECT_EQ(on[i].x, off[i].x);
    EXPECT_EQ(on[i].y, off[i].y);
    EXPECT_EQ(on[i].z, off[i].z);
    EXPECT_EQ(on[i].yaw, off[i].yaw);
    EXPECT_EQ(on[i].score, off[i].score);
    EXPECT_EQ(on[i].label, off[i].label);
  }
  // And nothing was recorded while disabled.
  obs::reset();
  obs::set_enabled(false);
  obs::add(obs::Counter::kSubmitted);
  obs::record(obs::Hist::kDetect, 1000);
  obs::log_event(obs::Level::kError, "should.not.appear", {});
  obs::set_enabled(true);
  EXPECT_EQ(obs::counter_value(obs::Counter::kSubmitted), 0u);
  EXPECT_EQ(obs::hist_snapshot(obs::Hist::kDetect).count, 0u);
  EXPECT_TRUE(obs::events().empty());
}

}  // namespace
}  // namespace upaq
