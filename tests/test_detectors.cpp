// Detector tests: construction, shape flow, pillarization, target/decode
// consistency, graph topology, analytic cost profiles, and loss/gradient
// behaviour — all on tiny configs so the suite stays fast.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <set>

#include "detectors/pointpillars.h"
#include "detectors/smoke.h"
#include "detectors/specs.h"
#include "parallel/thread_pool.h"
#include "qnn/qlayers.h"
#include "train/optimizer.h"

namespace upaq {
namespace {

detectors::PointPillarsConfig tiny_pp() {
  auto cfg = detectors::PointPillarsConfig::scaled();
  cfg.grid = 32;
  cfg.pfn_channels = 8;
  cfg.blocks = {{1, 8}, {1, 12}, {1, 16}};
  cfg.up_channels = 8;
  cfg.head_channels = 16;
  return cfg;
}

detectors::SmokeConfig tiny_smoke() {
  auto cfg = detectors::SmokeConfig::scaled();
  cfg.camera.width = 64;
  cfg.camera.height = 48;
  cfg.camera.cx = 32.0f;
  cfg.camera.cy = 26.0f;
  cfg.camera.fx = 60.0f;
  cfg.camera.fy = 60.0f;
  cfg.stem_channels = 6;
  cfg.stages = {{1, 8}, {1, 12}, {1, 16}};
  cfg.up_channels = 12;
  cfg.head_channels = 12;
  return cfg;
}

data::Scene simple_scene() {
  data::SceneConfig sc;
  sc.min_cars = 2;
  sc.max_cars = 3;
  data::SceneGenerator gen(sc);
  Rng rng(11);
  return gen.sample(rng);
}

TEST(PointPillars, ConstructionAndTopology) {
  Rng rng(1);
  detectors::PointPillars pp(tiny_pp(), rng);
  const auto& g = pp.topology();
  EXPECT_GT(g.size(), 10);
  EXPECT_NE(g.find("pfn.linear"), -1);
  EXPECT_NE(g.find("head.cls"), -1);
  const auto groups = g.build_groups();
  graph::validate_groups(g, groups);
  // Expected grouping: the three backbone 3x3 convs share one root; the
  // head trunk sits behind the 1x1 lateral convs (incompatible geometry),
  // so it, the pfn, the laterals and the predictors root themselves.
  std::set<std::string> roots;
  for (const auto& grp : groups) roots.insert(g.node(grp.root).name);
  EXPECT_TRUE(roots.count("pfn.linear"));
  EXPECT_TRUE(roots.count("block0.conv0"));
  EXPECT_TRUE(roots.count("head.conv0"));
  EXPECT_TRUE(roots.count("head.cls"));
  // All backbone 3x3 convs end up in block0.conv0's group.
  for (const auto& grp : groups) {
    if (g.node(grp.root).name != "block0.conv0") continue;
    EXPECT_EQ(grp.members.size(), 3u);
  }
}

TEST(PointPillars, DetectProducesValidBoxes) {
  Rng rng(2);
  detectors::PointPillars pp(tiny_pp(), rng);
  const auto scene = simple_scene();
  const auto dets = pp.detect(scene);  // untrained: boxes arbitrary but valid
  for (const auto& d : dets) {
    EXPECT_GT(d.length, 0.0f);
    EXPECT_GT(d.width, 0.0f);
    EXPECT_GT(d.height, 0.0f);
    EXPECT_GE(d.score, pp.config().score_threshold);
    EXPECT_LE(d.score, 1.0f);
  }
  EXPECT_LE(static_cast<int>(dets.size()), pp.config().max_detections);
}

/// simple_scene() plus 20 points stacked into one cell, so at least one
/// pillar overflows max_points_per_pillar.
data::Scene crowded_scene() {
  data::Scene scene = simple_scene();
  for (int i = 0; i < 20; ++i)
    scene.points.push_back({10.2f + 0.01f * static_cast<float>(i), 3.3f,
                            0.1f * static_cast<float>(i), 0.5f});
  return scene;
}

void expect_same_boxes(const std::vector<eval::Box3D>& a,
                       const std::vector<eval::Box3D>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (auto f : {&eval::Box3D::x, &eval::Box3D::y, &eval::Box3D::z,
                   &eval::Box3D::length, &eval::Box3D::width,
                   &eval::Box3D::height, &eval::Box3D::yaw,
                   &eval::Box3D::score})
      ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i].*f),
                std::bit_cast<std::uint32_t>(b[i].*f))
          << what << ": box " << i;
    ASSERT_EQ(a[i].label, b[i].label) << what;
  }
}

TEST(PointPillars, PillarizeEmitsOnlyRealPointRowsInCellOrder) {
  Rng rng(2);
  detectors::PointPillars pp(tiny_pp(), rng);
  const auto pil = pp.pillarize(crowded_scene());
  const int maxp = pp.config().max_points_per_pillar;
  ASSERT_FALSE(pil.coords.empty());
  ASSERT_EQ(pil.valid_counts.size(), pil.coords.size());
  std::int64_t rows = 0;
  bool capped = false;
  for (std::size_t p = 0; p < pil.coords.size(); ++p) {
    const int v = pil.valid_counts[p];
    EXPECT_GE(v, 1);
    EXPECT_LE(v, maxp);
    capped = capped || v == maxp;
    rows += v;
    if (p > 0) {
      EXPECT_LT(pil.coords[p - 1], pil.coords[p]) << "pillar " << p;
    }
  }
  EXPECT_TRUE(capped) << "no pillar reached max_points_per_pillar";
  EXPECT_EQ(pil.features.dim(0), rows);
  EXPECT_EQ(pil.features.dim(1), 9);
}

TEST(PointPillars, PfnEmbeddingsMatchPaddedLayoutReference) {
  // The compact PFN against the padded layout it replaced: every pillar owns
  // max_points_per_pillar rows, zero past its valid points, and the max runs
  // over the valid ones only. Float and packed pfn.linear alike — the packed
  // layer's per-tensor activation scale ignores the zero rows.
  for (const bool packed : {false, true}) {
    Rng rng(5);
    detectors::PointPillars pp(tiny_pp(), rng);
    pp.set_training(false);
    auto* linear = pp.find_layer("pfn.linear");
    auto* relu = pp.find_layer("pfn.relu");
    if (packed) {
      ASSERT_TRUE(qnn::lower_layer(*linear, qnn::LowerSpec{}));
    }
    const auto pil = pp.pillarize(crowded_scene());
    const auto pillars = static_cast<std::int64_t>(pil.coords.size());
    const int maxp = pp.config().max_points_per_pillar;
    const int c = pp.config().pfn_channels;

    std::vector<std::int64_t> argmax(static_cast<std::size_t>(pillars * c));
    const Tensor pooled = pp.pfn_embed(pil, argmax.data());

    Tensor padded({pillars * maxp, 9});
    std::vector<std::int64_t> first_row;
    for (std::int64_t p = 0, r = 0; p < pillars; ++p) {
      first_row.push_back(r);
      for (int i = 0; i < pil.valid_counts[static_cast<std::size_t>(p)]; ++i, ++r)
        for (int f = 0; f < 9; ++f)
          padded.at(p * maxp + i, f) = pil.features.at(r, f);
    }
    const Tensor feats = relu->forward(linear->forward(padded));
    for (std::int64_t p = 0; p < pillars; ++p) {
      for (int ch = 0; ch < c; ++ch) {
        float best = -std::numeric_limits<float>::infinity();
        int best_i = 0;
        for (int i = 0; i < pil.valid_counts[static_cast<std::size_t>(p)]; ++i)
          if (feats.at(p * maxp + i, ch) > best) {
            best = feats.at(p * maxp + i, ch);
            best_i = i;
          }
        ASSERT_EQ(std::bit_cast<std::uint32_t>(pooled.at(p, ch)),
                  std::bit_cast<std::uint32_t>(best))
            << (packed ? "packed" : "float") << " pillar " << p << " ch " << ch;
        ASSERT_EQ(argmax[static_cast<std::size_t>(p * c + ch)],
                  first_row[static_cast<std::size_t>(p)] + best_i);
      }
    }
  }
}

TEST(PointPillars, NonFinitePointsAreDropped) {
  // A point with any non-finite field must leave the detections exactly as
  // if it were absent. Each goes in front of a full pillar's points, where a
  // kept one would displace a real point and poison the pillar mean. NaN x
  // used to reach an undefined float-to-int cast.
  auto cfg = tiny_pp();
  cfg.score_threshold = 0.08f;  // the untrained head still emits boxes
  Rng rng(7);
  detectors::PointPillars pp(cfg, rng);
  const data::Scene clean = crowded_scene();
  const auto want = pp.detect(clean);
  ASSERT_FALSE(want.empty());
  const auto want_pil = pp.pillarize(clean);

  // Each bad point sits in the crowded cell, ahead of every real point.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const data::LidarPoint bad[] = {
      {nan, 3.3f, 0.2f, 0.5f},    // NaN x
      {10.2f, 3.3f, nan, 0.5f},   // NaN z
      {10.2f, 3.3f, 0.2f, nan},   // NaN intensity
      {10.2f, nan, 0.2f, 0.5f},   // NaN y
      {std::numeric_limits<float>::infinity(), 3.3f, 0.2f, 0.5f},
  };
  for (const auto& b : bad) {
    data::Scene dirty = clean;
    dirty.points.insert(dirty.points.begin(), b);
    const auto pil = pp.pillarize(dirty);
    ASSERT_EQ(pil.coords, want_pil.coords);
    ASSERT_EQ(pil.valid_counts, want_pil.valid_counts);
    for (std::int64_t i = 0; i < pil.features.numel(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(pil.features[i]),
                std::bit_cast<std::uint32_t>(want_pil.features[i]));
    expect_same_boxes(pp.detect(dirty), want, "non-finite point");
  }
}

TEST(PointPillars, LossIsFiniteAndProducesGradients) {
  Rng rng(3);
  detectors::PointPillars pp(tiny_pp(), rng);
  const auto scene = simple_scene();
  pp.zero_grad();
  const double loss = pp.compute_loss_and_grad({&scene});
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(loss, 0.0);
  double grad_mass = 0.0;
  for (const auto* p : pp.parameters()) grad_mass += p->grad.abs_max();
  EXPECT_GT(grad_mass, 0.0f);
}

TEST(PointPillars, TrainingStepReducesLossOnFixedScene) {
  Rng rng(4);
  detectors::PointPillars pp(tiny_pp(), rng);
  const auto scene = simple_scene();
  train::Adam opt(2e-3f);
  pp.zero_grad();
  const double first = pp.compute_loss_and_grad({&scene});
  opt.step(pp.parameters());
  double last = first;
  for (int i = 0; i < 12; ++i) {
    pp.zero_grad();
    last = pp.compute_loss_and_grad({&scene});
    opt.step(pp.parameters());
  }
  EXPECT_LT(last, first);
}

TEST(PointPillars, DetectIsDeterministic) {
  Rng rng(5);
  detectors::PointPillars pp(tiny_pp(), rng);
  const auto scene = simple_scene();
  const auto a = pp.detect(scene);
  const auto b = pp.detect(scene);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].score, b[i].score);
  }
}

TEST(PointPillars, CostProfileCoversAllPrunableLayers) {
  Rng rng(6);
  detectors::PointPillars pp(tiny_pp(), rng);
  const auto profile = pp.cost_profile();
  std::set<std::string> names;
  for (const auto& l : profile) names.insert(l.name);
  const auto& g = pp.topology();
  for (int id = 0; id < g.size(); ++id) {
    if (g.prunable(id)) {
      EXPECT_TRUE(names.count(g.node(id).name))
          << "cost profile missing " << g.node(id).name;
    }
  }
}

TEST(PointPillars, CostProfileWeightCountsMatchInstance) {
  Rng rng(7);
  detectors::PointPillars pp(tiny_pp(), rng);
  const auto profile = pp.cost_profile();
  // Sum of profile weight_count over conv/bn layers must equal the real
  // parameter count minus biases.
  std::int64_t profile_weights = 0;
  for (const auto& l : profile) profile_weights += l.weight_count;
  std::int64_t real_weights = 0;
  for (const auto* p : pp.parameters())
    if (p->name.find(".bias") == std::string::npos) real_weights += p->value.numel();
  EXPECT_EQ(profile_weights, real_weights);
}

TEST(PointPillars, FullSpecMatchesPaperScale) {
  const auto profile = detectors::PointPillars::cost_profile_for(
      detectors::PointPillarsConfig::full());
  std::int64_t params = 0;
  for (const auto& l : profile) params += l.weight_count;
  EXPECT_NEAR(static_cast<double>(params) / 1e6, 4.8, 0.4);
}

TEST(Smoke, ConstructionAndResidualTopology) {
  Rng rng(8);
  detectors::Smoke smoke(tiny_smoke(), rng);
  const auto& g = smoke.topology();
  EXPECT_NE(g.find("stage0.res0.add"), -1);  // explicit residual add node
  const auto groups = g.build_groups();
  graph::validate_groups(g, groups);
  // The residual couples each stage's convs into the stem-rooted 3x3 group.
  std::size_t biggest = 0;
  for (const auto& grp : groups) biggest = std::max(biggest, grp.members.size());
  EXPECT_GE(biggest, 5u);
}

/// Runs a detector's registered topology one layer at a time: the input
/// node holds `input`, a layer node applies its layer's forward to its one
/// input, and a dataflow node (a residual ".add") sums its two inputs.
std::vector<Tensor> walk_topology(const graph::Graph& g, const Tensor& input) {
  std::vector<Tensor> val(static_cast<std::size_t>(g.size()));
  const auto at = [&](int id) -> Tensor& {
    return val[static_cast<std::size_t>(id)];
  };
  for (int id = 0; id < g.size(); ++id) {
    const graph::Node& n = g.node(id);
    if (n.inputs.empty()) {
      at(id) = input;
    } else if (n.layer != nullptr) {
      at(id) = n.layer->forward(at(n.inputs[0]));
    } else {
      EXPECT_EQ(n.inputs.size(), 2u) << n.name;
      at(id) = at(n.inputs[0]);
      at(id).add_(at(n.inputs[1]));
    }
  }
  return val;
}

TEST(Smoke, FusedForwardMatchesLayerByLayerTopology) {
  // Smoke::forward runs each stage's down conv and residual units as single
  // conv calls with the BN, the residual add and the ReLU fused into the
  // conv's store (the stem, neck and head trunks through Sequential). The
  // registered topology walked one layer at a time must give the same head
  // maps bit for bit, on the float and the packed path, at 1 and 4 threads.
  Rng rng(31);
  detectors::Smoke smoke(tiny_smoke(), rng);
  for (const auto& l : smoke.layers()) {
    if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(l.get())) {
      const std::int64_t c = bn->channels();
      bn->gamma().value = Tensor::uniform({c}, rng, 0.5f, 1.5f);
      bn->beta().value = Tensor::uniform({c}, rng, -0.5f, 0.5f);
      bn->running_mean() = Tensor::uniform({c}, rng, -0.3f, 0.3f);
      bn->running_var() = Tensor::uniform({c}, rng, 0.5f, 2.0f);
    }
  }
  smoke.set_training(false);
  const Tensor image = smoke.render(simple_scene());
  const auto& cam = smoke.config().camera;
  const auto& g = smoke.topology();
  ASSERT_NE(g.find("stage0.res0.add"), -1);
  for (const bool packed : {false, true}) {
    if (packed) {
      for (const auto& l : smoke.layers()) {
        if (l->kind() == nn::LayerKind::kConv2d) {
          ASSERT_TRUE(qnn::lower_layer(*l, qnn::LowerSpec{}));
        }
      }
    }
    const auto want =
        walk_topology(g, image.reshape({1, 3, cam.height, cam.width}));
    const Tensor& want_hm = want[static_cast<std::size_t>(g.find("hm.out"))];
    const Tensor& want_reg = want[static_cast<std::size_t>(g.find("reg.out"))];
    for (const int threads : {1, 4}) {
      parallel::set_thread_count(threads);
      detectors::Smoke::ForwardState got;
      smoke.forward(image, got);
      parallel::set_thread_count(1);
      ASSERT_EQ(got.heatmap_logits.shape(), want_hm.shape());
      ASSERT_EQ(got.reg_out.shape(), want_reg.shape());
      for (std::int64_t i = 0; i < want_hm.numel(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got.heatmap_logits[i]),
                  std::bit_cast<std::uint32_t>(want_hm[i]))
            << (packed ? "packed" : "float") << " threads " << threads
            << " heatmap " << i;
      for (std::int64_t i = 0; i < want_reg.numel(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got.reg_out[i]),
                  std::bit_cast<std::uint32_t>(want_reg[i]))
            << (packed ? "packed" : "float") << " threads " << threads
            << " regression " << i;
    }
  }
}

TEST(Smoke, RenderIsDeterministicPerScene) {
  Rng rng(9);
  detectors::Smoke smoke(tiny_smoke(), rng);
  const auto scene = simple_scene();
  const Tensor a = smoke.render(scene);
  const Tensor b = smoke.render(scene);
  for (std::int64_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]);
  // Augmented renders differ (fresh noise draws).
  const Tensor c = smoke.render_augmented(scene);
  const Tensor d = smoke.render_augmented(scene);
  bool any_diff = false;
  for (std::int64_t i = 0; i < c.numel(); ++i) any_diff |= c[i] != d[i];
  EXPECT_TRUE(any_diff);
}

TEST(Smoke, RenderSeedSaturatesOnHostileBoxes) {
  // The per-scene render seed folds (x + 100) * 977 and (y + 100) * 1553 as
  // uint64. Out of range they saturate (below 0 and NaN to 0, past 2^64 to
  // the maximum), so boxes that differ only beyond those limits seed, and
  // render, identically; none of them is visible.
  Rng rng(9);
  detectors::Smoke smoke(tiny_smoke(), rng);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  auto render_with = [&](float x, float y) {
    data::Scene scene = simple_scene();
    eval::Box3D b = scene.objects[0];
    b.x = x;
    b.y = y;
    scene.objects.push_back(b);
    return smoke.render(scene);
  };
  const std::pair<std::pair<float, float>, std::pair<float, float>> same_seed[] = {
      {{-500.0f, 0.0f}, {-1e6f, 0.0f}},
      {{-500.0f, -300.0f}, {-1e30f, nan}},
      {{-1e20f, 1e30f}, {-1e25f, 3e38f}},
  };
  for (const auto& [a, b] : same_seed) {
    const Tensor ra = render_with(a.first, a.second);
    const Tensor rb = render_with(b.first, b.second);
    for (std::int64_t i = 0; i < ra.numel(); ++i) {
      ASSERT_TRUE(std::isfinite(ra[i]));
      ASSERT_EQ(ra[i], rb[i]) << "(" << a.first << ", " << a.second << ") vs ("
                              << b.first << ", " << b.second << ")";
    }
  }
}

TEST(Smoke, ObservesFiltersOutOfFrustum) {
  Rng rng(10);
  detectors::Smoke smoke(tiny_smoke(), rng);
  eval::Box3D in_view;
  in_view.x = 15.0f;
  in_view.y = 0.0f;
  in_view.z = 0.8f;
  EXPECT_TRUE(smoke.observes(in_view));
  eval::Box3D behind = in_view;
  behind.x = -5.0f;
  EXPECT_FALSE(smoke.observes(behind));
  eval::Box3D far_side = in_view;
  far_side.x = 3.0f;
  far_side.y = 20.0f;
  EXPECT_FALSE(smoke.observes(far_side));
}

TEST(Smoke, LossAndGradients) {
  Rng rng(11);
  detectors::Smoke smoke(tiny_smoke(), rng);
  const auto scene = simple_scene();
  smoke.zero_grad();
  const double loss = smoke.compute_loss_and_grad({&scene});
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(loss, 0.0);
  double grad_mass = 0.0;
  for (const auto* p : smoke.parameters()) grad_mass += p->grad.abs_max();
  EXPECT_GT(grad_mass, 0.0f);
}

TEST(Smoke, DecodeUpliftsThroughCamera) {
  Rng rng(12);
  detectors::Smoke smoke(tiny_smoke(), rng);
  const auto scene = simple_scene();
  const auto dets = smoke.detect(scene);
  for (const auto& d : dets) {
    // Every decoded box must be inside the camera's depth range and frustum.
    EXPECT_GE(d.x, smoke.config().depth_min - 1e-3f);
    EXPECT_LE(d.x, smoke.config().depth_max + 1e-3f);
    EXPECT_TRUE(smoke.observes(d));
  }
}

TEST(Smoke, FullSpecMatchesPaperScale) {
  const auto profile =
      detectors::Smoke::cost_profile_for(detectors::SmokeConfig::full());
  std::int64_t params = 0;
  for (const auto& l : profile) params += l.weight_count;
  EXPECT_NEAR(static_cast<double>(params) / 1e6, 19.51, 1.0);
}

TEST(Specs, Table1ParamsMatchPaper) {
  for (const auto& spec : detectors::specs::table1_specs()) {
    const double params_m =
        static_cast<double>(detectors::specs::spec_param_count(spec)) / 1e6;
    EXPECT_NEAR(params_m, spec.paper_params_m, 0.08 * spec.paper_params_m + 0.3)
        << spec.name;
  }
}

TEST(Specs, Table1ExecutionOrderingLiDARModels) {
  // PointPillars < SECOND < Focals Conv < VSC must hold through the hw model
  // (the paper's LiDAR-detector cost ordering).
  const hw::CostModel rtx(hw::device_spec(hw::Device::kRtx4080));
  const auto specs = detectors::specs::table1_specs();
  const double pp = rtx.model_cost(specs[0].profile).latency_s;
  const double second = rtx.model_cost(specs[2].profile).latency_s;
  const double focals = rtx.model_cost(specs[3].profile).latency_s;
  const double vsc = rtx.model_cost(specs[4].profile).latency_s;
  EXPECT_LT(pp, second);
  EXPECT_LT(second, focals);
  EXPECT_LT(focals, vsc);
}

data::Scene multiclass_scene() {
  data::SceneConfig sc;
  sc.min_cars = 1;
  sc.max_cars = 2;
  sc.min_pedestrians = 1;
  sc.max_pedestrians = 2;
  sc.min_cyclists = 1;
  sc.max_cyclists = 1;
  data::SceneGenerator gen(sc);
  Rng rng(21);
  return gen.sample(rng);
}

TEST(PointPillars, MulticlassAnchorsAndLabels) {
  auto cfg = tiny_pp();
  cfg.class_anchors = {{4.2f, 1.8f, 1.55f}, {0.6f, 0.6f, 1.7f},
                       {1.76f, 0.6f, 1.73f}};
  EXPECT_EQ(cfg.num_classes(), 3);
  EXPECT_EQ(cfg.anchor_count(), 6);  // two yaw hypotheses per class
  Rng rng(31);
  detectors::PointPillars pp(cfg, rng);
  const auto scene = multiclass_scene();
  for (const auto& d : pp.detect(scene)) {
    EXPECT_GE(d.label, 0);
    EXPECT_LT(d.label, 3);
  }
  pp.zero_grad();
  const double loss = pp.compute_loss_and_grad({&scene});
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(loss, 0.0);
}

TEST(PointPillars, SingleClassDefaultUnchanged) {
  // Empty class_anchors keeps the historical single-class two-anchor head,
  // so the committed zoo cache still matches the architecture.
  detectors::PointPillarsConfig cfg;
  EXPECT_EQ(cfg.num_classes(), 1);
  EXPECT_EQ(cfg.anchor_count(), 2);
}

TEST(PointPillars, MulticlassCostProfileScalesHead) {
  const auto single = detectors::PointPillars::cost_profile_for(tiny_pp());
  auto mc_cfg = tiny_pp();
  mc_cfg.class_anchors = {{4.2f, 1.8f, 1.55f}, {0.6f, 0.6f, 1.7f},
                          {1.76f, 0.6f, 1.73f}};
  const auto multi = detectors::PointPillars::cost_profile_for(mc_cfg);
  auto head_weights = [](const std::vector<hw::LayerProfile>& profile) {
    std::int64_t acc = 0;
    for (const auto& l : profile)
      if (l.name == "head.cls" || l.name == "head.reg") acc += l.weight_count;
    return acc;
  };
  EXPECT_EQ(head_weights(multi), 3 * head_weights(single));
}

TEST(Smoke, MulticlassHeatmapAndLabels) {
  auto cfg = tiny_smoke();
  cfg.class_dims = {{4.2f, 1.8f, 1.55f}, {0.6f, 0.6f, 1.7f},
                    {1.76f, 0.6f, 1.73f}};
  EXPECT_EQ(cfg.num_classes(), 3);
  Rng rng(32);
  detectors::Smoke smoke(cfg, rng);
  const auto scene = multiclass_scene();
  for (const auto& d : smoke.detect(scene)) {
    EXPECT_GE(d.label, 0);
    EXPECT_LT(d.label, 3);
  }
  smoke.zero_grad();
  const double loss = smoke.compute_loss_and_grad({&scene});
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(loss, 0.0);
}

TEST(Smoke, OutOfRangeLabelClampsInLoss) {
  // A single-class SMOKE fed a cyclist-labelled box must clamp the label
  // into its heatmap rather than index out of bounds.
  Rng rng(33);
  detectors::Smoke smoke(tiny_smoke(), rng);
  data::Scene scene = multiclass_scene();
  smoke.zero_grad();
  const double loss = smoke.compute_loss_and_grad({&scene});
  EXPECT_TRUE(std::isfinite(loss));
}

TEST(EvaluateMap, UsesObservesFilter) {
  Rng rng(13);
  detectors::Smoke smoke(tiny_smoke(), rng);
  // A scene whose only car is far outside the camera frustum: the filtered
  // ground truth is empty, so mAP over this scene is 0 but well-defined.
  data::Scene scene;
  eval::Box3D car;
  car.x = 3.0f;
  car.y = 21.0f;
  car.z = 0.8f;
  car.length = 4.2f;
  car.width = 1.8f;
  car.height = 1.55f;
  scene.objects.push_back(car);
  const double map = detectors::evaluate_map(smoke, {scene}, 0.25);
  EXPECT_EQ(map, 0.0);
}

}  // namespace
}  // namespace upaq
