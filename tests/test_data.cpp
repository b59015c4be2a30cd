// Tests for the synthetic dataset: scene invariants, LiDAR simulation
// properties, camera projection round-trips, rendering, split sizes, and the
// scenario-family corruption contracts (determinism, occlusion geometry,
// dropout rate, multi-class size distributions).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "data/scenario.h"
#include "data/scene.h"

namespace upaq {
namespace {

TEST(SceneGenerator, ProducesCarsWithinRangeAndNoHeavyOverlap) {
  data::SceneGenerator gen;
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const auto scene = gen.sample(rng);
    ASSERT_GE(scene.objects.size(), 1u);
    ASSERT_LE(scene.objects.size(), 6u);
    for (const auto& car : scene.objects) {
      EXPECT_GE(car.x, gen.config().x_min);
      EXPECT_LE(car.x, gen.config().x_max);
      EXPECT_GE(car.y, gen.config().y_min);
      EXPECT_LE(car.y, gen.config().y_max);
      EXPECT_GT(car.length, 2.5f);
      EXPECT_GT(car.width, 1.0f);
      EXPECT_EQ(car.label, 0);
    }
    for (std::size_t i = 0; i < scene.objects.size(); ++i)
      for (std::size_t j = i + 1; j < scene.objects.size(); ++j)
        EXPECT_LT(eval::iou_bev(scene.objects[i], scene.objects[j]), 0.05)
            << "cars placed on top of each other";
  }
}

TEST(SceneGenerator, LidarPointsClusterAroundCars) {
  data::SceneGenerator gen;
  Rng rng(2);
  const auto scene = gen.sample(rng);
  ASSERT_FALSE(scene.points.empty());
  // Each car must have a reasonable number of nearby points.
  for (const auto& car : scene.objects) {
    int nearby = 0;
    for (const auto& p : scene.points) {
      const float d = std::hypot(p.x - car.x, p.y - car.y);
      if (d < std::max(car.length, car.width)) ++nearby;
    }
    EXPECT_GE(nearby, 5) << "car at (" << car.x << "," << car.y
                         << ") has almost no LiDAR returns";
  }
}

TEST(SceneGenerator, PointDensityDecaysWithDistance) {
  data::SceneConfig cfg;
  cfg.min_cars = 1;
  cfg.max_cars = 1;
  cfg.ground_clutter_points = 0;
  cfg.distractor_clusters = 0;
  data::SceneGenerator gen(cfg);
  Rng rng(3);
  // Average points for near vs far cars over several draws.
  double near_pts = 0.0, far_pts = 0.0;
  int near_n = 0, far_n = 0;
  for (int i = 0; i < 60; ++i) {
    const auto scene = gen.sample(rng);
    const auto& car = scene.objects.at(0);
    const float dist = std::hypot(car.x, car.y);
    if (dist < 15.0f) {
      near_pts += static_cast<double>(scene.points.size());
      ++near_n;
    } else if (dist > 30.0f) {
      far_pts += static_cast<double>(scene.points.size());
      ++far_n;
    }
  }
  ASSERT_GT(near_n, 0);
  ASSERT_GT(far_n, 0);
  EXPECT_GT(near_pts / near_n, 1.5 * far_pts / far_n);
}

TEST(Camera, ProjectUnprojectRoundTrip) {
  data::Camera cam;
  Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    const float x = rng.uniform(3.0f, 40.0f);
    const float y = rng.uniform(-15.0f, 15.0f);
    const float z = rng.uniform(0.0f, 3.0f);
    float u = 0, v = 0;
    ASSERT_TRUE(cam.project(x, y, z, u, v));
    float rx = 0, ry = 0, rz = 0;
    cam.unproject(u, v, x, rx, ry, rz);
    EXPECT_NEAR(rx, x, 1e-4);
    EXPECT_NEAR(ry, y, 1e-3);
    EXPECT_NEAR(rz, z, 1e-3);
  }
}

TEST(Camera, BehindCameraIsRejected) {
  data::Camera cam;
  float u, v;
  EXPECT_FALSE(cam.project(-5.0f, 0.0f, 1.0f, u, v));
  EXPECT_FALSE(cam.project(0.0f, 0.0f, 1.0f, u, v));
}

TEST(Camera, FartherObjectsProjectSmaller) {
  data::Camera cam;
  float u1, v1, u2, v2;
  // Two points 2 m apart laterally, at 10 m vs 40 m depth.
  cam.project(10.0f, -1.0f, 1.0f, u1, v1);
  cam.project(10.0f, 1.0f, 1.0f, u2, v2);
  const float span_near = std::fabs(u2 - u1);
  cam.project(40.0f, -1.0f, 1.0f, u1, v1);
  cam.project(40.0f, 1.0f, 1.0f, u2, v2);
  const float span_far = std::fabs(u2 - u1);
  EXPECT_NEAR(span_near / span_far, 4.0f, 0.05f);
}

TEST(RenderCamera, ShapeRangeAndCarVisibility) {
  data::SceneGenerator gen;
  Rng rng(5);
  const auto scene = gen.sample(rng);
  data::Camera cam;
  Rng render_rng(6);
  const Tensor img = data::render_camera(scene, cam, render_rng);
  EXPECT_EQ(img.shape(), (Shape{3, cam.height, cam.width}));
  EXPECT_GE(img.min(), 0.0f);
  EXPECT_LE(img.max(), 1.0f);
  // The image should not be constant (background gradient + noise + cars).
  EXPECT_GT(img.var(), 1e-4f);
}

/// FNV-1a over the bits of a render plus the engine word that follows it, so
/// both the image and the number of draws the render consumed are pinned.
std::uint64_t render_hash(const data::Scene& scene, std::uint64_t seed) {
  Rng rng(seed);
  const Tensor img = data::render_camera(scene, data::Camera{}, rng);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t word, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (word >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const float p : img.flat()) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &p, sizeof bits);
    mix(bits, 4);
  }
  mix(rng.engine()(), 8);
  return h;
}

TEST(RenderCamera, FrozenRendersAndEngineState) {
  // Values frozen from the scalar per-pixel Rng::normal render. Any change
  // in a pixel bit or in the number of engine draws a render consumes (the
  // next word is hashed too) breaks them. Night scenes take the ambient /
  // contrast pass and sd 0.05; dropout_noise scenes carry the degraded
  // sensor config with the default render.
  struct Case {
    data::ScenarioFamily family;
    std::uint64_t seed;
    std::uint64_t hash[3];
  };
  const Case cases[] = {
      {data::ScenarioFamily::kBaseline, 11,
       {14810537064026215336ULL, 18366194554256357124ULL, 9865416294693692069ULL}},
      {data::ScenarioFamily::kNight, 12,
       {10724515951881120507ULL, 8003241096869979391ULL, 15369219837631342247ULL}},
      {data::ScenarioFamily::kDropoutNoise, 13,
       {10513782386399601706ULL, 12994387024917862670ULL, 6129790268719370021ULL}},
  };
  for (const Case& c : cases) {
    const auto scenes = data::make_scenario_scenes(c.family, 3, c.seed);
    for (std::size_t i = 0; i < scenes.size(); ++i)
      EXPECT_EQ(render_hash(scenes[i], c.seed * 100 + i), c.hash[i])
          << data::scenario_name(c.family) << " scene " << i;
  }
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0;
}

void expect_finite_unit(const Tensor& img) {
  for (const float p : img.flat()) {
    ASSERT_TRUE(std::isfinite(p));
    ASSERT_GE(p, 0.0f);
    ASSERT_LE(p, 1.0f);
  }
}

TEST(RenderCamera, HostileBoxesDrawNothing) {
  // Boxes with a non-finite field are skipped before the far-to-near sort (a
  // NaN x would break its ordering) and finite boxes far behind the camera
  // never project: either way they draw no albedo and no pixel, so the render
  // equals the render without them.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const auto clean = data::make_scenario_scenes(data::ScenarioFamily::kBaseline, 1, 3)[0];
  ASSERT_GE(clean.objects.size(), 2u);
  data::Scene hostile = clean;
  auto with = [&](auto edit) {
    eval::Box3D b = clean.objects[0];
    edit(b);
    return b;
  };
  const std::vector<eval::Box3D> bad = {
      with([&](eval::Box3D& b) { b.x = nan; }),
      with([&](eval::Box3D& b) { b.y = nan; }),
      with([&](eval::Box3D& b) { b.x = inf; }),
      with([&](eval::Box3D& b) { b.y = -inf; }),
      with([&](eval::Box3D& b) { b.height = inf; }),
      with([&](eval::Box3D& b) { b.yaw = nan; }),
      with([&](eval::Box3D& b) { b.x = -1e30f; }),
      with([&](eval::Box3D& b) { b.x = -1e30f; b.y = 1e30f; }),
  };
  // Interleave them with the real boxes so the sort sees both.
  hostile.objects.clear();
  for (std::size_t i = 0; i < std::max(clean.objects.size(), bad.size()); ++i) {
    if (i < bad.size()) hostile.objects.push_back(bad[i]);
    if (i < clean.objects.size()) hostile.objects.push_back(clean.objects[i]);
  }
  for (const auto& rc : {data::RenderConditions{},
                         data::scenario_config(data::ScenarioFamily::kNight).render}) {
    hostile.render = rc;
    data::Scene reference = clean;
    reference.render = rc;
    Rng ra(21), rb(21);
    const Tensor got = data::render_camera(hostile, data::Camera{}, ra);
    const Tensor want = data::render_camera(reference, data::Camera{}, rb);
    expect_finite_unit(got);
    EXPECT_TRUE(same_bits(got, want));
    EXPECT_EQ(ra.engine()(), rb.engine()());
  }
}

TEST(RenderCamera, HullBeyondIntRangeIsClamped) {
  // A corner just in front of the camera with a huge lateral offset projects
  // to |u| far past 2^31. Its hull lies off the image, so the box draws its
  // albedo and hue and paints nothing: exactly what the same box at a
  // moderate off-image offset does.
  const auto clean = data::make_scenario_scenes(data::ScenarioFamily::kBaseline, 1, 4)[0];
  for (const float y : {1e12f, -1e12f, 1e30f, -1e30f}) {
    data::Scene huge = clean, moderate = clean;
    eval::Box3D b = clean.objects[0];
    b.x = 0.6f;
    b.y = y;
    huge.objects.push_back(b);
    b.y = y > 0 ? 1000.0f : -1000.0f;
    moderate.objects.push_back(b);
    Rng ra(5), rb(5);
    const Tensor got = data::render_camera(huge, data::Camera{}, ra);
    const Tensor want = data::render_camera(moderate, data::Camera{}, rb);
    expect_finite_unit(got);
    EXPECT_TRUE(same_bits(got, want)) << "y " << y;
    EXPECT_EQ(ra.engine()(), rb.engine()());
  }
}

TEST(MakeDataset, SplitSizesFollow801010) {
  const auto ds = data::make_dataset(100, 9);
  EXPECT_EQ(ds.train.size(), 80u);
  EXPECT_EQ(ds.val.size(), 10u);
  EXPECT_EQ(ds.test.size(), 10u);
  EXPECT_THROW(data::make_dataset(5, 9), std::invalid_argument);
}

TEST(MakeDataset, DeterministicPerSeed) {
  const auto a = data::make_dataset(20, 77);
  const auto b = data::make_dataset(20, 77);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (std::size_t i = 0; i < a.train.size(); ++i) {
    ASSERT_EQ(a.train[i].objects.size(), b.train[i].objects.size());
    ASSERT_EQ(a.train[i].points.size(), b.train[i].points.size());
    for (std::size_t j = 0; j < a.train[i].objects.size(); ++j)
      EXPECT_EQ(a.train[i].objects[j].x, b.train[i].objects[j].x);
  }
  const auto c = data::make_dataset(20, 78);
  bool differs = a.train[0].objects.size() != c.train[0].objects.size() ||
                 a.train[0].objects[0].x != c.train[0].objects[0].x;
  EXPECT_TRUE(differs);
}

bool bits_equal(float a, float b) {
  std::uint32_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

bool same_point(const data::LidarPoint& a, const data::LidarPoint& b) {
  return bits_equal(a.x, b.x) && bits_equal(a.y, b.y) && bits_equal(a.z, b.z) &&
         bits_equal(a.intensity, b.intensity);
}

bool same_box(const eval::Box3D& a, const eval::Box3D& b) {
  return bits_equal(a.x, b.x) && bits_equal(a.y, b.y) && bits_equal(a.z, b.z) &&
         bits_equal(a.length, b.length) && bits_equal(a.width, b.width) &&
         bits_equal(a.height, b.height) && bits_equal(a.yaw, b.yaw) &&
         bits_equal(a.score, b.score) && a.label == b.label;
}

bool same_scene(const data::Scene& a, const data::Scene& b) {
  if (a.objects.size() != b.objects.size()) return false;
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t i = 0; i < a.objects.size(); ++i)
    if (!same_box(a.objects[i], b.objects[i])) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i)
    if (!same_point(a.points[i], b.points[i])) return false;
  return bits_equal(a.render.ambient, b.render.ambient) &&
         bits_equal(a.render.contrast, b.render.contrast) &&
         bits_equal(a.render.noise_sd, b.render.noise_sd);
}

TEST(ScenarioFamilies, SameSeedIsBitwiseIdenticalPerFamily) {
  for (const auto family : data::all_scenario_families()) {
    const auto a = data::make_scenario_scenes(family, 4, 123);
    const auto b = data::make_scenario_scenes(family, 4, 123);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
      EXPECT_TRUE(same_scene(a[i], b[i]))
          << data::scenario_name(family) << " scene " << i
          << " not bitwise reproducible";
  }
}

TEST(ScenarioFamilies, FamiliesDifferAndNamesRoundTrip) {
  const auto base = data::make_scenario_scenes(data::ScenarioFamily::kBaseline,
                                               2, 123);
  const auto jam = data::make_scenario_scenes(data::ScenarioFamily::kJam, 2,
                                              123);
  EXPECT_FALSE(same_scene(base[0], jam[0]));
  for (const auto family : data::all_scenario_families()) {
    data::ScenarioFamily parsed;
    ASSERT_TRUE(data::scenario_from_name(data::scenario_name(family), parsed));
    EXPECT_EQ(parsed, family);
  }
  data::ScenarioFamily sink;
  EXPECT_FALSE(data::scenario_from_name("bogus", sink));
}

TEST(ScenarioFamilies, NightCarriesRenderConditions) {
  const auto night = data::make_scenario_scenes(data::ScenarioFamily::kNight,
                                                1, 9);
  EXPECT_LT(night[0].render.ambient, 1.0f);
  EXPECT_LT(night[0].render.contrast, 1.0f);
  EXPECT_GT(night[0].render.noise_sd, 0.02f);
  const auto base = data::make_scenario_scenes(data::ScenarioFamily::kBaseline,
                                               1, 9);
  EXPECT_EQ(base[0].render.ambient, 1.0f);
  EXPECT_EQ(base[0].render.contrast, 1.0f);
}

TEST(SceneGenerator, OcclusionRemovesOnlyShadowedPoints) {
  data::SceneConfig clean_cfg;
  clean_cfg.min_cars = 3;
  clean_cfg.max_cars = 5;
  data::SceneConfig occ_cfg = clean_cfg;
  occ_cfg.occlusion = true;
  occ_cfg.occlusion_keep = 0.0f;  // remove every shadowed point
  data::SceneGenerator clean_gen(clean_cfg), occ_gen(occ_cfg);

  std::size_t removed_total = 0;
  for (std::uint64_t seed = 50; seed < 56; ++seed) {
    // Occlusion is the only knob that differs and it draws after the clean
    // passes, so the same seed gives the same pre-occlusion scene.
    Rng ra(seed), rb(seed);
    const auto clean = clean_gen.sample(ra);
    const auto occ = occ_gen.sample(rb);
    ASSERT_EQ(clean.objects.size(), occ.objects.size());
    ASSERT_LE(occ.points.size(), clean.points.size());

    // The surviving points must be an in-order subset of the clean scene,
    // and every removed point must lie strictly behind some object's far
    // edge inside its azimuth shadow cone.
    std::size_t oi = 0;
    for (const auto& p : clean.points) {
      if (oi < occ.points.size() && same_point(p, occ.points[oi])) {
        ++oi;
        continue;
      }
      ++removed_total;
      const float pr = std::hypot(p.x, p.y);
      const float paz = std::atan2(p.y, p.x);
      bool shadowed = false;
      for (const auto& obj : clean.objects) {
        const float r = 0.5f * std::hypot(obj.length, obj.width);
        const float dist = std::hypot(obj.x, obj.y);
        if (dist <= r + 0.5f) continue;
        if (pr <= dist + r + 0.3f) continue;
        const float az = std::atan2(obj.y, obj.x);
        float delta = paz - az;
        while (delta > 3.14159265f) delta -= 2.0f * 3.14159265f;
        while (delta < -3.14159265f) delta += 2.0f * 3.14159265f;
        const float half = std::asin(std::min(0.999f, r / dist));
        if (std::fabs(delta) < half) {
          shadowed = true;
          break;
        }
      }
      EXPECT_TRUE(shadowed) << "removed point (" << p.x << "," << p.y
                            << ") is not behind any occluder";
    }
    EXPECT_EQ(oi, occ.points.size())
        << "occluded scene is not an ordered subset of the clean scene";
  }
  EXPECT_GT(removed_total, 0u) << "occlusion pass never removed anything";
}

TEST(SceneGenerator, DropoutFractionWithinTolerance) {
  data::SceneConfig clean_cfg;
  data::SceneConfig drop_cfg = clean_cfg;
  drop_cfg.dropout_fraction = 0.3f;
  data::SceneGenerator clean_gen(clean_cfg), drop_gen(drop_cfg);
  std::size_t clean_total = 0, kept_total = 0;
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    Rng ra(seed), rb(seed);
    clean_total += clean_gen.sample(ra).points.size();
    kept_total += drop_gen.sample(rb).points.size();
  }
  ASSERT_GT(clean_total, 0u);
  const double removed =
      1.0 - static_cast<double>(kept_total) / static_cast<double>(clean_total);
  EXPECT_GT(removed, 0.2);
  EXPECT_LT(removed, 0.4);
}

TEST(SceneGenerator, RangeNoisePerturbsWithoutChangingCounts) {
  data::SceneConfig clean_cfg;
  data::SceneConfig noisy_cfg = clean_cfg;
  noisy_cfg.range_noise_scale = 1.5f;
  data::SceneGenerator clean_gen(clean_cfg), noisy_gen(noisy_cfg);
  Rng ra(7), rb(7);
  const auto clean = clean_gen.sample(ra);
  const auto noisy = noisy_gen.sample(rb);
  ASSERT_EQ(clean.points.size(), noisy.points.size());
  ASSERT_EQ(clean.objects.size(), noisy.objects.size());
  for (std::size_t i = 0; i < clean.objects.size(); ++i)
    EXPECT_TRUE(same_box(clean.objects[i], noisy.objects[i]));
  int moved = 0;
  for (std::size_t i = 0; i < clean.points.size(); ++i) {
    const float d = std::hypot(clean.points[i].x - noisy.points[i].x,
                               clean.points[i].y - noisy.points[i].y);
    if (d > 0.0f) ++moved;
    EXPECT_LT(d, 5.0f) << "range noise displaced a point implausibly far";
  }
  EXPECT_GT(moved, static_cast<int>(clean.points.size()) / 2);
}

TEST(SceneGenerator, PedestrianAndCyclistSizesSane) {
  data::SceneConfig cfg;
  cfg.min_pedestrians = 2;
  cfg.max_pedestrians = 3;
  cfg.min_cyclists = 2;
  cfg.max_cyclists = 2;
  data::SceneGenerator gen(cfg);
  Rng rng(11);
  int peds = 0, cycs = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const auto scene = gen.sample(rng);
    for (const auto& obj : scene.objects) {
      if (obj.label == eval::kClassPedestrian) {
        ++peds;
        EXPECT_EQ(obj.length, obj.width) << "pedestrian footprint not square";
        EXPECT_GE(obj.length, 0.3f);
        EXPECT_LE(obj.length, 1.1f);
        EXPECT_GE(obj.height, 1.2f);
        EXPECT_LE(obj.height, 2.3f);
      } else if (obj.label == eval::kClassCyclist) {
        ++cycs;
        EXPECT_GE(obj.length, 1.1f);
        EXPECT_LE(obj.length, 2.6f);
        EXPECT_GT(obj.length, obj.width) << "cyclist should be elongated";
        EXPECT_GE(obj.height, 1.2f);
        EXPECT_LE(obj.height, 2.3f);
      } else {
        EXPECT_EQ(obj.label, eval::kClassCar);
      }
    }
  }
  EXPECT_GE(peds, 8);
  EXPECT_GE(cycs, 8);
}

TEST(SceneGenerator, MinObjectPointsFloorHolds) {
  // A far pedestrian with a starvation-level point budget: the 1/r decay and
  // the area scaling would round its returns to zero without the floor.
  data::SceneConfig cfg;
  cfg.min_cars = 0;
  cfg.max_cars = 0;
  cfg.min_pedestrians = 1;
  cfg.max_pedestrians = 1;
  cfg.x_min = 40.0f;
  cfg.x_max = 46.0f;
  cfg.points_at_10m = 1.0f;
  cfg.ground_clutter_points = 0;
  cfg.distractor_clusters = 0;
  data::SceneGenerator gen(cfg);
  Rng rng(13);
  for (int trial = 0; trial < 5; ++trial) {
    const auto scene = gen.sample(rng);
    ASSERT_EQ(scene.objects.size(), 1u);
    EXPECT_GE(static_cast<int>(scene.points.size()), cfg.min_object_points)
        << "far small object starved below the min_object_points floor";
  }
}

}  // namespace
}  // namespace upaq
