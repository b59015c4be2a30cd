#include "data/scene.h"

#include <algorithm>
#include <cmath>

#include "tensor/check.h"

namespace upaq::data {

namespace {

constexpr float kPi = 3.14159265358979f;

/// Coarse overlap check in BEV using circumscribed circles — placement only
/// needs "not on top of each other", not exact separation. `spacing` scales
/// the margin: 1.0 is the clean road, < 1 packs jam scenes to near-contact.
bool too_close(const eval::Box3D& a, const eval::Box3D& b, float spacing) {
  const float dx = a.x - b.x, dy = a.y - b.y;
  const float ra = 0.5f * std::hypot(a.length, a.width);
  const float rb = 0.5f * std::hypot(b.length, b.width);
  return std::hypot(dx, dy) < (ra + rb) * 1.1f * spacing;
}

/// Rejection-samples `target` boxes drawn by `draw_box` into the scene,
/// keeping the pairwise spacing invariant against everything placed so far.
template <typename DrawBox>
void place_objects(Scene& scene, Rng& rng, int target, float spacing,
                   DrawBox&& draw_box) {
  int attempts = 0;
  const int placed_before = static_cast<int>(scene.objects.size());
  while (static_cast<int>(scene.objects.size()) - placed_before < target &&
         attempts < 200) {
    ++attempts;
    eval::Box3D box = draw_box(rng);
    bool ok = true;
    for (const auto& other : scene.objects)
      if (too_close(box, other, spacing)) {
        ok = false;
        break;
      }
    if (ok) scene.objects.push_back(box);
  }
}

}  // namespace

void SceneGenerator::place_cars(Scene& scene, Rng& rng) const {
  const int target = rng.uniform_int(cfg_.min_cars, cfg_.max_cars);
  place_objects(scene, rng, target, cfg_.spacing_factor, [&](Rng& r) {
    eval::Box3D car;
    car.length = std::max(3.0f, r.normal(cfg_.car_length_mean, cfg_.car_length_sd));
    car.width = std::max(1.4f, r.normal(cfg_.car_width_mean, cfg_.car_width_sd));
    car.height = std::max(1.2f, r.normal(cfg_.car_height_mean, cfg_.car_height_sd));
    car.x = r.uniform(cfg_.x_min + 3.0f, cfg_.x_max - 3.0f);
    car.y = r.uniform(cfg_.y_min + 2.0f, cfg_.y_max - 2.0f);
    car.z = car.height * 0.5f;
    car.yaw = r.uniform(-3.14159265f, 3.14159265f);
    car.label = eval::kClassCar;
    return car;
  });
}

void SceneGenerator::place_pedestrians(Scene& scene, Rng& rng) const {
  const int target = rng.uniform_int(cfg_.min_pedestrians, cfg_.max_pedestrians);
  place_objects(scene, rng, target, cfg_.spacing_factor, [&](Rng& r) {
    eval::Box3D ped;
    // Square BEV footprint: a standing person has no meaningful heading
    // extent, so length == width (one draw keeps the distributions sane).
    const float extent =
        std::max(0.35f, r.normal(cfg_.ped_extent_mean, cfg_.ped_extent_sd));
    ped.length = extent;
    ped.width = extent;
    ped.height = std::max(1.2f, r.normal(cfg_.ped_height_mean, cfg_.ped_height_sd));
    ped.x = r.uniform(cfg_.x_min + 1.0f, cfg_.x_max - 1.0f);
    ped.y = r.uniform(cfg_.y_min + 1.0f, cfg_.y_max - 1.0f);
    ped.z = ped.height * 0.5f;
    ped.yaw = r.uniform(-3.14159265f, 3.14159265f);
    ped.label = eval::kClassPedestrian;
    return ped;
  });
}

void SceneGenerator::place_cyclists(Scene& scene, Rng& rng) const {
  const int target = rng.uniform_int(cfg_.min_cyclists, cfg_.max_cyclists);
  place_objects(scene, rng, target, cfg_.spacing_factor, [&](Rng& r) {
    eval::Box3D cyc;
    cyc.length = std::max(1.2f, r.normal(cfg_.cyclist_length_mean,
                                         cfg_.cyclist_length_sd));
    cyc.width = std::max(0.4f, r.normal(cfg_.cyclist_width_mean,
                                        cfg_.cyclist_width_sd));
    cyc.height = std::max(1.2f, r.normal(cfg_.cyclist_height_mean,
                                         cfg_.cyclist_height_sd));
    cyc.x = r.uniform(cfg_.x_min + 1.5f, cfg_.x_max - 1.5f);
    cyc.y = r.uniform(cfg_.y_min + 1.0f, cfg_.y_max - 1.0f);
    cyc.z = cyc.height * 0.5f;
    cyc.yaw = r.uniform(-3.14159265f, 3.14159265f);
    cyc.label = eval::kClassCyclist;
    return cyc;
  });
}

void SceneGenerator::simulate_lidar(Scene& scene, Rng& rng) const {
  // Object returns: sample the faces oriented toward the sensor plus the
  // roof; density decays with distance like a real spinning LiDAR, scaled by
  // visible surface area for the small classes, floored at
  // min_object_points so distant objects never become point-less ghosts.
  for (const auto& obj : scene.objects) {
    const float dist = std::max(2.0f, std::hypot(obj.x, obj.y));
    int budget;
    if (obj.label == eval::kClassCar) {
      budget = std::max(cfg_.min_object_points,
                        static_cast<int>(cfg_.points_at_10m * 10.0f / dist));
    } else {
      // points_at_10m is calibrated on the mean car's visible surface.
      const float area_scale =
          ((obj.length + obj.width) * obj.height) /
          ((cfg_.car_length_mean + cfg_.car_width_mean) * cfg_.car_height_mean);
      budget = std::max(
          cfg_.min_object_points,
          static_cast<int>(cfg_.points_at_10m * 10.0f / dist * area_scale));
    }
    const float c = std::cos(obj.yaw), s = std::sin(obj.yaw);
    // Direction from object to sensor, expressed in the object's local frame.
    const float to_sensor_x = -(c * obj.x + s * obj.y);
    const float to_sensor_y = -(-s * obj.x + c * obj.y);
    for (int i = 0; i < budget; ++i) {
      float lx, ly, lz;
      if (obj.label == eval::kClassCar) {
        // Pick a face biased toward the visible sides. Local frame: +-l/2 on
        // x (front/back), +-w/2 on y (sides), top at +h/2.
        const int face = rng.uniform_int(0, 9);
        if (face < 4) {
          // Length-side face toward the sensor.
          lx = rng.uniform(-obj.length * 0.5f, obj.length * 0.5f);
          ly = (to_sensor_y >= 0 ? 1.0f : -1.0f) * obj.width * 0.5f;
          lz = rng.uniform(0.0f, obj.height);
        } else if (face < 8) {
          // Front/back face toward the sensor.
          lx = (to_sensor_x >= 0 ? 1.0f : -1.0f) * obj.length * 0.5f;
          ly = rng.uniform(-obj.width * 0.5f, obj.width * 0.5f);
          lz = rng.uniform(0.0f, obj.height);
        } else {
          // Roof.
          lx = rng.uniform(-obj.length * 0.5f, obj.length * 0.5f);
          ly = rng.uniform(-obj.width * 0.5f, obj.width * 0.5f);
          lz = obj.height;
        }
      } else {
        // Pedestrians/cyclists have no flat car-like faces; a loose volume
        // shell is a good-enough return model for boxes this small.
        lx = rng.uniform(-obj.length * 0.5f, obj.length * 0.5f);
        ly = rng.uniform(-obj.width * 0.5f, obj.width * 0.5f);
        lz = rng.uniform(0.0f, obj.height);
      }
      LidarPoint p;
      p.x = obj.x + c * lx - s * ly + rng.normal(0.0f, cfg_.point_noise_sd);
      p.y = obj.y + s * lx + c * ly + rng.normal(0.0f, cfg_.point_noise_sd);
      p.z = lz + rng.normal(0.0f, cfg_.point_noise_sd);
      p.intensity = obj.label == eval::kClassCar ? rng.uniform(0.3f, 0.9f)
                                                 : rng.uniform(0.2f, 0.7f);
      scene.points.push_back(p);
    }
  }
  // Ground clutter.
  for (int i = 0; i < cfg_.ground_clutter_points; ++i) {
    LidarPoint p;
    p.x = rng.uniform(cfg_.x_min, cfg_.x_max);
    p.y = rng.uniform(cfg_.y_min, cfg_.y_max);
    p.z = std::fabs(rng.normal(0.0f, 0.04f));
    p.intensity = rng.uniform(0.05f, 0.4f);
    scene.points.push_back(p);
  }
  // Distractor clusters: bush/pole-shaped blobs that are NOT cars; they put
  // false-positive pressure on the detector so AP is a meaningful number.
  for (int d = 0; d < cfg_.distractor_clusters; ++d) {
    const float ox = rng.uniform(cfg_.x_min + 2.0f, cfg_.x_max - 2.0f);
    const float oy = rng.uniform(cfg_.y_min + 1.0f, cfg_.y_max - 1.0f);
    const float radius = rng.uniform(0.25f, 0.8f);
    const float height = rng.uniform(0.5f, 2.2f);
    const int count = rng.uniform_int(10, 40);
    for (int i = 0; i < count; ++i) {
      LidarPoint p;
      p.x = ox + rng.normal(0.0f, radius);
      p.y = oy + rng.normal(0.0f, radius);
      p.z = rng.uniform(0.0f, height);
      p.intensity = rng.uniform(0.2f, 0.8f);
      scene.points.push_back(p);
    }
  }
}

void SceneGenerator::apply_range_noise(Scene& scene, Rng& rng) const {
  // Range-proportional jitter on every point (three draws each, so the draw
  // count is a pure function of the clean scene).
  for (auto& p : scene.points) {
    const float r = std::hypot(p.x, p.y);
    const float sd = std::max(
        1e-6f, cfg_.point_noise_sd * cfg_.range_noise_scale * (r / 10.0f));
    p.x += rng.normal(0.0f, sd);
    p.y += rng.normal(0.0f, sd);
    p.z += rng.normal(0.0f, sd);
  }
}

void SceneGenerator::apply_occlusion(Scene& scene, Rng& rng) const {
  // Every object casts an angular shadow: points at strictly greater range
  // inside its azimuth cone survive only with probability occlusion_keep.
  // far_range includes the occluder's own radius plus a noise margin, so the
  // occluder's returns — and anything in front of it — are never removed.
  struct Shadow {
    float az, half_angle, far_range;
  };
  std::vector<Shadow> shadows;
  shadows.reserve(scene.objects.size());
  for (const auto& obj : scene.objects) {
    const float dist = std::hypot(obj.x, obj.y);
    const float r = 0.5f * std::hypot(obj.length, obj.width);
    if (dist <= r + 0.5f) continue;  // sensor effectively inside the box
    Shadow sh;
    sh.az = std::atan2(obj.y, obj.x);
    sh.half_angle = std::asin(std::min(0.999f, r / dist));
    sh.far_range = dist + r + 0.3f;
    shadows.push_back(sh);
  }
  if (shadows.empty()) return;
  std::vector<LidarPoint> kept;
  kept.reserve(scene.points.size());
  for (const auto& p : scene.points) {
    const float pr = std::hypot(p.x, p.y);
    bool shadowed = false;
    for (const auto& sh : shadows) {
      if (pr <= sh.far_range) continue;
      float d = std::atan2(p.y, p.x) - sh.az;
      while (d > kPi) d -= 2.0f * kPi;
      while (d < -kPi) d += 2.0f * kPi;
      if (std::fabs(d) < sh.half_angle) {
        shadowed = true;
        break;
      }
    }
    // One Bernoulli draw per shadowed point: the draw count depends only on
    // the clean geometry, keeping the stream deterministic.
    if (!shadowed || rng.bernoulli(cfg_.occlusion_keep)) kept.push_back(p);
  }
  scene.points = std::move(kept);
}

void SceneGenerator::apply_dropout(Scene& scene, Rng& rng) const {
  std::vector<LidarPoint> kept;
  kept.reserve(scene.points.size());
  for (const auto& p : scene.points)
    if (!rng.bernoulli(cfg_.dropout_fraction)) kept.push_back(p);
  scene.points = std::move(kept);
}

Scene SceneGenerator::sample(Rng& rng) const {
  Scene scene;
  place_cars(scene, rng);
  // Disabled features must not consume Rng draws: the default config has to
  // reproduce the pre-scenario generator bit-for-bit (zoo-cache invariant).
  if (cfg_.max_pedestrians > 0) place_pedestrians(scene, rng);
  if (cfg_.max_cyclists > 0) place_cyclists(scene, rng);
  simulate_lidar(scene, rng);
  if (cfg_.range_noise_scale > 0.0f) apply_range_noise(scene, rng);
  if (cfg_.occlusion) apply_occlusion(scene, rng);
  if (cfg_.dropout_fraction > 0.0f) apply_dropout(scene, rng);
  scene.render = cfg_.render;
  return scene;
}

bool Camera::project(float x, float y, float z, float& u, float& v) const {
  if (x <= 0.5f) return false;
  u = cx - fx * (y / x);
  v = cy - fy * ((z - height_above_ground) / x);
  return true;
}

void Camera::unproject(float u, float v, float depth, float& x, float& y,
                       float& z) const {
  x = depth;
  y = -(u - cx) * depth / fx;
  z = height_above_ground - (v - cy) * depth / fy;
}

Tensor render_camera(const Scene& scene, const Camera& cam, Rng& rng) {
  Tensor img({3, cam.height, cam.width});
  const std::size_t plane =
      static_cast<std::size_t>(cam.height) * static_cast<std::size_t>(cam.width);
  float* const chan[3] = {img.data(), img.data() + plane, img.data() + 2 * plane};
  // Fills columns [u0, u1] of row v with one (r, g, b).
  auto fill_row = [&](int v, int u0, int u1, float r, float g, float b) {
    const std::size_t row = static_cast<std::size_t>(v) * cam.width;
    std::fill(chan[0] + row + u0, chan[0] + row + u1 + 1, r);
    std::fill(chan[1] + row + u0, chan[1] + row + u1 + 1, g);
    std::fill(chan[2] + row + u0, chan[2] + row + u1 + 1, b);
  };
  // Background: sky gradient above the horizon line, textured road below.
  const float horizon = cam.cy - 2.0f;
  for (int v = 0; v < cam.height; ++v) {
    float r, g, b;
    if (static_cast<float>(v) < horizon) {
      const float t = static_cast<float>(v) / std::max(horizon, 1.0f);
      r = 0.45f + 0.1f * t;
      g = 0.55f + 0.1f * t;
      b = 0.75f;
    } else {
      const float t = (static_cast<float>(v) - horizon) /
                      std::max(static_cast<float>(cam.height) - horizon, 1.0f);
      r = g = b = 0.28f + 0.1f * t;
    }
    fill_row(v, 0, cam.width - 1, r, g, b);
  }
  // Draw objects far-to-near so nearer objects occlude farther ones. A box
  // with a non-finite field is skipped before the sort (a NaN x would break
  // the comparator's strict weak ordering) and draws nothing.
  std::vector<const eval::Box3D*> order;
  for (const auto& obj : scene.objects) {
    bool finite = true;
    for (float f : {obj.x, obj.y, obj.z, obj.length, obj.width, obj.height, obj.yaw})
      finite = finite && std::isfinite(f);
    if (finite) order.push_back(&obj);
  }
  std::sort(order.begin(), order.end(),
            [](const eval::Box3D* a, const eval::Box3D* b) { return a->x > b->x; });
  for (const auto* obj : order) {
    // Project all 8 corners; fill the projected axis-aligned hull.
    const auto corners = eval::bev_corners(*obj);
    float umin = 1e9f, umax = -1e9f, vmin = 1e9f, vmax = -1e9f;
    bool visible = false;
    for (const auto& cpt : corners) {
      for (float zz : {obj->z - obj->height * 0.5f, obj->z + obj->height * 0.5f}) {
        float u, v;
        if (cam.project(static_cast<float>(cpt.x), static_cast<float>(cpt.y), zz,
                        u, v)) {
          visible = true;
          umin = std::min(umin, u);
          umax = std::max(umax, u);
          vmin = std::min(vmin, v);
          vmax = std::max(vmax, v);
        }
      }
    }
    if (!visible) continue;
    // Albedo jitter makes brightness an imperfect depth cue (monocular depth
    // must come from size/position, like real SMOKE).
    const float albedo = rng.uniform(0.35f, 0.95f);
    const float shade = albedo * std::min(1.0f, 14.0f / obj->x);
    const float hue = rng.uniform(-0.12f, 0.12f);
    // The hull bounds are clamped to the image while still float (a far
    // off-screen corner can exceed int range); a bound past the opposite
    // edge still yields an empty span, exactly as before the clamp, and an
    // empty column span is skipped since fill_row needs u0 <= u1.
    const float w = static_cast<float>(cam.width), h = static_cast<float>(cam.height);
    const int u0 = static_cast<int>(std::clamp(std::floor(umin), 0.0f, w));
    const int u1 = static_cast<int>(std::clamp(std::ceil(umax), -1.0f, w - 1.0f));
    const int v0 = static_cast<int>(std::clamp(std::floor(vmin), 0.0f, h));
    const int v1 = static_cast<int>(std::clamp(std::ceil(vmax), -1.0f, h - 1.0f));
    if (u0 > u1) continue;
    for (int v = v0; v <= v1; ++v) {
      // Simple body shading: darker toward the bottom (shadow).
      const float frac = (v1 > v0) ? static_cast<float>(v - v0) / (v1 - v0) : 0.0f;
      const float body = shade * (1.0f - 0.35f * frac);
      fill_row(v, u0, u1, std::clamp(body + hue, 0.0f, 1.0f),
               std::clamp(body, 0.0f, 1.0f), std::clamp(body - hue, 0.0f, 1.0f));
    }
  }
  // Night / low-contrast conditions: rescale the lit image around the
  // ambient mid-grey. Gated so the default render stays bit-identical.
  const RenderConditions& rc = scene.render;
  if (rc.ambient != 1.0f || rc.contrast != 1.0f) {
    const float mid = 0.5f * rc.ambient;
    for (auto& p : img.flat())
      p = std::clamp(mid + (p * rc.ambient - mid) * rc.contrast, 0.0f, 1.0f);
  }
  // Sensor noise (low light is noisier), in the pixel order of one
  // rng.normal(0, noise_sd) per pixel.
  constexpr std::size_t kNoiseChunk = 512;
  float noise[kNoiseChunk];
  const std::span<float> px = img.flat();
  for (std::size_t i = 0; i < px.size(); i += kNoiseChunk) {
    const std::size_t n = std::min(kNoiseChunk, px.size() - i);
    rng.normal_fill(noise, n, 0.0f, rc.noise_sd);
    for (std::size_t k = 0; k < n; ++k)
      px[i + k] = std::clamp(px[i + k] + noise[k], 0.0f, 1.0f);
  }
  return img;
}

Dataset make_dataset(int scene_count, std::uint64_t seed, const SceneConfig& cfg) {
  UPAQ_CHECK(scene_count >= 10, "dataset needs at least 10 scenes");
  SceneGenerator gen(cfg);
  Rng rng(seed);
  Dataset ds;
  const int n_train = scene_count * 8 / 10;
  const int n_val = scene_count / 10;
  for (int i = 0; i < scene_count; ++i) {
    Scene s = gen.sample(rng);
    if (i < n_train) {
      ds.train.push_back(std::move(s));
    } else if (i < n_train + n_val) {
      ds.val.push_back(std::move(s));
    } else {
      ds.test.push_back(std::move(s));
    }
  }
  return ds;
}

}  // namespace upaq::data
