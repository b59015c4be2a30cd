// PointPillars: LiDAR point-cloud 3-D detector (Lang et al., CVPR 2019),
// reimplemented from scratch at configurable width.
//
// Pipeline: points are grouped into vertical pillars; a Pillar Feature
// Network (a 1x1-kernel linear layer + max-pool over the pillar's points —
// the exact layer population Algorithm 5 targets) embeds each pillar; the
// embeddings are scattered into a pseudo-image; a three-block stride-2 CNN
// backbone with upsampled feature concatenation feeds an SSD-style head
// with two rotated anchors per cell (0 and 90 degrees).
//
// The `scaled()` config trains on CPU in about a minute; the `full()` config
// matches the paper's 4.8 M-parameter deployment model and is used for the
// hardware-model cost reporting (same graph, wider channels).
#pragma once

#include <utility>

#include "detectors/detector.h"
#include "train/losses.h"

namespace upaq::detectors {

struct PointPillarsConfig {
  // BEV range; the pillar grid is square over this region.
  float x_min = 0.0f, x_max = 46.08f;
  float y_min = -23.04f, y_max = 23.04f;
  int grid = 64;                 ///< pillars per side
  int max_points_per_pillar = 12;

  // Architecture.
  int pfn_channels = 16;
  /// Backbone blocks as (conv_count, channels); each block downsamples 2x
  /// at its first conv.
  std::vector<std::pair<int, int>> blocks = {{2, 20}, {2, 32}, {2, 48}};
  int up_channels = 24;   ///< per-branch channels after the 1x1 lateral conv
  int head_channels = 48; ///< head trunk width

  // Anchors (car class). When `class_anchors` is empty the head is the
  // historical single-class car head built from these three fields.
  float anchor_length = 4.2f, anchor_width = 1.8f, anchor_height = 1.55f;

  /// Per-class anchor sizes, indexed by eval class id. Each class gets two
  /// rotated anchors (0 and 90 degrees). Empty = single car class — the
  /// default keeps head shapes identical to the pre-multi-class model so
  /// the committed zoo cache still loads.
  struct ClassAnchor {
    float length = 4.2f, width = 1.8f, height = 1.55f;
  };
  std::vector<ClassAnchor> class_anchors;

  int num_classes() const {
    return class_anchors.empty() ? 1 : static_cast<int>(class_anchors.size());
  }
  /// Two rotated anchors per class.
  int anchor_count() const { return num_classes() * 2; }
  ClassAnchor anchor(int cls) const {
    if (class_anchors.empty()) return {anchor_length, anchor_width, anchor_height};
    return class_anchors[static_cast<std::size_t>(cls)];
  }

  // Decoding.
  float score_threshold = 0.25f;
  double nms_iou = 0.2;
  int max_detections = 40;

  // Loss.
  float focal_alpha = 0.75f, focal_gamma = 2.0f;
  float reg_weight = 2.0f;

  /// Assumed pillar occupancy / point fill for the analytic cost profile.
  double nominal_occupancy = 0.12;

  float pillar_size() const { return (x_max - x_min) / static_cast<float>(grid); }

  /// CPU-trainable configuration (the model the accuracy numbers come from).
  static PointPillarsConfig scaled();
  /// Paper-scale deployment spec: ~4.8 M parameters, 448x448 pillar grid.
  static PointPillarsConfig full();
  /// scaled() plus car/pedestrian/cyclist anchor classes (the scenario
  /// suite's multi-class head: 6 anchors, per-class decode labels).
  static PointPillarsConfig multiclass();
};

class PointPillars final : public Detector3D {
 public:
  PointPillars(PointPillarsConfig cfg, Rng& rng);

  std::vector<eval::Box3D> detect(const data::Scene& scene) override;
  double compute_loss_and_grad(
      const std::vector<const data::Scene*>& batch) override;
  std::vector<hw::LayerProfile> cost_profile() const override;
  const char* model_name() const override { return "PointPillars"; }

  const PointPillarsConfig& config() const { return cfg_; }

  /// Analytic cost profile for an arbitrary config (used for the full-width
  /// spec without instantiating weights).
  static std::vector<hw::LayerProfile> cost_profile_for(
      const PointPillarsConfig& cfg);

  // ----- Staged inference API (the upaq::serve pipeline stages) -----
  //
  // detect() == decode(forward_batch({&pillarize(scene)})[0]) bitwise: the
  // serve layer splits the per-scene loop into pre / detect / post stages so
  // stages of different scenes can overlap, and batches the middle stage
  // across scenes. pillarize() and decode() are const and touch no layer
  // state, so they are safe to run concurrently with a forward_batch() of
  // *other* scenes; forward_batch() mutates layer caches and must hold the
  // model exclusively.

  /// Per-scene pre-processing product (stage `pre.pillarize`).
  /// Pillars are ordered by ascending (row, col); features holds only real
  /// point rows, pillar-major, so pillar p owns the valid_counts[p] rows
  /// that follow those of pillars 0..p-1. A pillar keeps its first
  /// max_points_per_pillar points in scene order; points with a non-finite
  /// field or outside the BEV range are dropped.
  struct Pillars {
    Tensor features;                 ///< (sum of valid_counts, 9) point features
    std::vector<int> valid_counts;   ///< point rows of each pillar
    std::vector<std::pair<int, int>> coords;  ///< (row, col) per pillar
  };

  /// Head outputs for one scene, sliced out of the batched forward.
  struct HeadOutput {
    Tensor cls_logits;  ///< (1, anchors, g/2, g/2)
    Tensor reg_out;     ///< (1, anchors * 8, g/2, g/2)
  };

  /// Stage 1: points -> pillars. Pure (reads only the config).
  Pillars pillarize(const data::Scene& scene) const;

  /// Stage 2: eval-mode PFN + backbone + head over a batch of pillarized
  /// scenes. The PFN runs once per scene (a packed PFN linear quantizes its
  /// whole input with one scale) and the pillar embeddings scatter into a
  /// (B, C, G, G) pseudo-image, so the CNN runs batch-capable layers once
  /// per batch. Every CNN layer's math is per-sample independent, so each
  /// scene's outputs are bitwise identical to the single-scene detect() path
  /// at any batch size and any thread count, float or packed (pinned by
  /// tests/test_serve.cpp).
  std::vector<HeadOutput> forward_batch(
      const std::vector<const Pillars*>& batch);

  /// The pillar feature network inside stage 2: linear + ReLU over every
  /// point row, then the max over each pillar's rows -> (P, pfn_channels)
  /// pillar embeddings (one row when P == 0). `argmax_out`, when non-null,
  /// receives the winning point row per (pillar, channel) for backward.
  Tensor pfn_embed(const Pillars& pil, std::int64_t* argmax_out = nullptr);

  /// Stage 3: decode + NMS (stage `post.nms`). Pure.
  std::vector<eval::Box3D> decode(const Tensor& cls_logits,
                                  const Tensor& reg_out) const;

 private:
  struct ForwardState {
    Pillars pillars;
    std::vector<std::int64_t> max_argmax;  ///< PFN max-pool winners
    Tensor cls_logits, reg_out;            ///< head outputs
  };

  /// Runs the network; fills `state` when training (for backward).
  void forward(const data::Scene& scene, ForwardState& state);
  void backward(const ForwardState& state, const Tensor& grad_cls,
                const Tensor& grad_reg);
  /// Writes one scene's pillar embeddings into its (C, G, G) pseudo-image
  /// plane at the pillar coords.
  void scatter(const Pillars& pil, const Tensor& pooled,
               float* pseudo_plane) const;

  PointPillarsConfig cfg_;

  // Layers (owned by Module::layers_; these are typed handles).
  nn::Linear* pfn_ = nullptr;
  nn::Relu* pfn_relu_ = nullptr;
  std::vector<std::vector<nn::Layer*>> block_layers_;  ///< per block, in order
  std::vector<nn::Sequential> block_seq_;
  std::vector<nn::Sequential> up_seq_;
  std::vector<nn::Conv2d*> up_convs_;
  nn::Sequential head_trunk_;
  nn::Conv2d* cls_head_ = nullptr;
  nn::Conv2d* reg_head_ = nullptr;

  int head_grid_ = 0;  ///< head spatial size (grid / 2)
};

}  // namespace upaq::detectors
