#include "detectors/smoke.h"

#include "obs/obs.h"
#include "prof/prof.h"

#include <algorithm>
#include <cmath>

#include "tensor/ops.h"

namespace upaq::detectors {

namespace {
constexpr int kRegChannels = 8;  // du,dv, depth, log l,w,h, sin,cos
constexpr float kPi = 3.14159265358979f;

float wrap_half_pi(float a) {
  while (a >= kPi / 2) a -= kPi;
  while (a < -kPi / 2) a += kPi;
  return a;
}

/// float -> uint64 that saturates: NaN and values below 0 give 0, values at
/// or past 2^64 give the maximum. In range it truncates like the plain cast.
std::uint64_t saturate_u64(float f) {
  if (!(f > 0.0f)) return 0;
  if (f >= 0x1p64f) return ~std::uint64_t{0};
  return static_cast<std::uint64_t>(f);
}

/// Deterministic seed derived from scene content so a scene renders to the
/// same image every time it is observed (training and eval consistency).
std::uint64_t scene_seed(const data::Scene& scene) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL + scene.points.size();
  for (const auto& obj : scene.objects) {
    h ^= saturate_u64((obj.x + 100.0f) * 977.0f) +
         saturate_u64((obj.y + 100.0f) * 1553.0f) * 0x100000001b3ULL;
    h *= 0x100000001b3ULL;
  }
  return h;
}
}  // namespace

SmokeConfig SmokeConfig::scaled() { return SmokeConfig{}; }

SmokeConfig SmokeConfig::multiclass() {
  SmokeConfig cfg;
  // eval::kClassCar / kClassPedestrian / kClassCyclist order.
  cfg.class_dims = {{4.2f, 1.8f, 1.55f},   // car
                    {0.6f, 0.6f, 1.7f},    // pedestrian
                    {1.76f, 0.6f, 1.73f}}; // cyclist
  cfg.score_threshold = 0.25f;
  return cfg;
}

SmokeConfig SmokeConfig::full() {
  SmokeConfig cfg;
  // KITTI-like input and a DLA-34-class backbone budget (~19.5 M params).
  cfg.camera.width = 1280;
  cfg.camera.height = 384;
  cfg.camera.fx = 720.0f;
  cfg.camera.fy = 720.0f;
  cfg.camera.cx = 640.0f;
  cfg.camera.cy = 190.0f;
  cfg.stem_channels = 64;
  cfg.stages = {{2, 64}, {3, 128}, {6, 256}, {5, 512}};
  cfg.up_channels = 256;
  cfg.head_channels = 256;
  return cfg;
}

Tensor Smoke::Stage::forward(const Tensor& x) const {
  // Each conv applies its BN, the residual add and the post-add ReLU as it
  // stores its output.
  Tensor y = down_conv->forward(x, {.bn = down_bn, .relu = down_relu});
  for (const auto& u : units)
    y = u.conv->forward(y, {.bn = u.bn, .residual = &y, .relu = u.relu});
  return y;
}

Tensor Smoke::Stage::backward(const Tensor& grad) const {
  Tensor g = grad;
  for (auto it = units.rbegin(); it != units.rend(); ++it) {
    Tensor gsum = it->relu->backward(g);
    // Residual: gradient flows through the conv path and the skip path.
    Tensor gconv = it->conv->backward(it->bn->backward(gsum));
    gconv.add_(gsum);
    g = std::move(gconv);
  }
  return down_conv->backward(down_bn->backward(down_relu->backward(g)));
}

Smoke::Smoke(SmokeConfig cfg, Rng& rng) : cfg_(std::move(cfg)) {
  UPAQ_CHECK(cfg_.camera.width % 8 == 0 && cfg_.camera.height % 8 == 0,
             "camera resolution must be divisible by 8");
  UPAQ_CHECK(!cfg_.stages.empty(), "SMOKE needs at least one stage");
  // Head runs at stride 4: stem is stride 1, stage0 and stage1 downsample,
  // deeper stages are upsampled back through the neck.
  head_h_ = cfg_.camera.height / 4;
  head_w_ = cfg_.camera.width / 4;

  const int image_node = graph_.add_node("image", nullptr, {});

  auto* stem_conv = add<nn::Conv2d>(3, cfg_.stem_channels, 3, 1, 1, false, rng,
                                    "stem.conv");
  auto* stem_bn = add<nn::BatchNorm2d>(cfg_.stem_channels, rng, "stem.bn");
  auto* stem_relu = add<nn::Relu>("stem.relu");
  stem_.then(stem_conv).then(stem_bn).then(stem_relu);
  int node = graph_.add_node("stem.conv", stem_conv, {image_node});
  node = graph_.add_node("stem.bn", stem_bn, {node});
  node = graph_.add_node("stem.relu", stem_relu, {node});

  int in_ch = cfg_.stem_channels;
  for (std::size_t s = 0; s < cfg_.stages.size(); ++s) {
    const auto [extra, channels] = cfg_.stages[s];
    const std::string base = "stage" + std::to_string(s);
    Stage stage;
    stage.down_conv =
        add<nn::Conv2d>(in_ch, channels, 3, 2, 1, false, rng, base + ".down.conv");
    stage.down_bn = add<nn::BatchNorm2d>(channels, rng, base + ".down.bn");
    stage.down_relu = add<nn::Relu>(base + ".down.relu");
    node = graph_.add_node(stage.down_conv->name(), stage.down_conv, {node});
    node = graph_.add_node(stage.down_bn->name(), stage.down_bn, {node});
    node = graph_.add_node(stage.down_relu->name(), stage.down_relu, {node});
    for (int u = 0; u < extra; ++u) {
      Stage::ResUnit unit;
      const std::string ub = base + ".res" + std::to_string(u);
      unit.conv = add<nn::Conv2d>(channels, channels, 3, 1, 1, false, rng,
                                  ub + ".conv");
      unit.bn = add<nn::BatchNorm2d>(channels, rng, ub + ".bn");
      unit.relu = add<nn::Relu>(ub + ".relu");
      const int conv_node = graph_.add_node(unit.conv->name(), unit.conv, {node});
      const int bn_node = graph_.add_node(unit.bn->name(), unit.bn, {conv_node});
      // Explicit add node keeps the skip edge visible to Algorithm 1.
      const int add_node = graph_.add_node(ub + ".add", nullptr, {bn_node, node});
      node = graph_.add_node(unit.relu->name(), unit.relu, {add_node});
      stage.units.push_back(unit);
    }
    stages_.push_back(stage);
    in_ch = channels;
  }

  // Neck: upsample the deepest stage back to stride 4.
  const int deep_factor = 1 << (cfg_.stages.size() - 2);  // stages beyond #2
  if (deep_factor > 1) {
    auto* up = add<nn::Upsample>(deep_factor, "neck.upsample");
    neck_.then(up);
    node = graph_.add_node("neck.upsample", up, {node});
  }
  auto* neck_conv = add<nn::Conv2d>(in_ch, cfg_.up_channels, 3, 1, 1, false, rng,
                                    "neck.conv");
  auto* neck_bn = add<nn::BatchNorm2d>(cfg_.up_channels, rng, "neck.bn");
  auto* neck_relu = add<nn::Relu>("neck.relu");
  neck_.then(neck_conv).then(neck_bn).then(neck_relu);
  node = graph_.add_node("neck.conv", neck_conv, {node});
  node = graph_.add_node("neck.bn", neck_bn, {node});
  node = graph_.add_node("neck.relu", neck_relu, {node});

  // Heads.
  auto* hm_conv = add<nn::Conv2d>(cfg_.up_channels, cfg_.head_channels, 3, 1, 1,
                                  false, rng, "hm.conv");
  auto* hm_relu = add<nn::Relu>("hm.relu");
  hm_out_ = add<nn::Conv2d>(cfg_.head_channels, cfg_.num_classes(), 1, 1, 0,
                            true, rng, "hm.out");
  hm_trunk_.then(hm_conv).then(hm_relu);
  int hm_node = graph_.add_node("hm.conv", hm_conv, {node});
  hm_node = graph_.add_node("hm.relu", hm_relu, {hm_node});
  graph_.add_node("hm.out", hm_out_, {hm_node});

  auto* reg_conv = add<nn::Conv2d>(cfg_.up_channels, cfg_.head_channels, 3, 1, 1,
                                   false, rng, "reg.conv");
  auto* reg_relu = add<nn::Relu>("reg.relu");
  reg_out_conv_ = add<nn::Conv2d>(cfg_.head_channels, kRegChannels, 1, 1, 0, true,
                                  rng, "reg.out");
  reg_trunk_.then(reg_conv).then(reg_relu);
  int reg_node = graph_.add_node("reg.conv", reg_conv, {node});
  reg_node = graph_.add_node("reg.relu", reg_relu, {reg_node});
  graph_.add_node("reg.out", reg_out_conv_, {reg_node});

  // Focal-loss-friendly bias init: rare positives.
  hm_out_->bias()->value.fill(-2.8f);
}

bool Smoke::observes(const eval::Box3D& box) const {
  float u = 0.0f, v = 0.0f;
  if (!cfg_.camera.project(box.x, box.y, box.z, u, v)) return false;
  return u >= 0.0f && u < static_cast<float>(cfg_.camera.width) && v >= 0.0f &&
         v < static_cast<float>(cfg_.camera.height);
}

Tensor Smoke::render(const data::Scene& scene) const {
  prof::Span span("pre.normalize");
  Rng rng(scene_seed(scene));
  return data::render_camera(scene, cfg_.camera, rng);
}

Tensor Smoke::render_augmented(const data::Scene& scene) {
  return data::render_camera(scene, cfg_.camera, augment_rng_);
}

void Smoke::forward(const Tensor& image, ForwardState& state) {
  // (3,H,W) -> (1,3,H,W)
  const Tensor x = image.reshape({1, 3, cfg_.camera.height, cfg_.camera.width});
  Tensor y = stem_.forward(x);
  for (const auto& stage : stages_) y = stage.forward(y);
  y = neck_.forward(y);
  state.heatmap_logits = hm_out_->forward(hm_trunk_.forward(y));
  state.reg_out = reg_out_conv_->forward(reg_trunk_.forward(y));
}

void Smoke::backward(const Tensor& grad_hm, const Tensor& grad_reg) {
  Tensor gy = hm_trunk_.backward(hm_out_->backward(grad_hm));
  gy.add_(reg_trunk_.backward(reg_out_conv_->backward(grad_reg)));
  Tensor g = neck_.backward(gy);
  for (auto it = stages_.rbegin(); it != stages_.rend(); ++it)
    g = it->backward(g);
  stem_.backward(g);
}

std::vector<eval::Box3D> Smoke::decode(const Tensor& hm_logits,
                                       const Tensor& reg_out) const {
  prof::Span span("post.decode");
  // Sigmoid heatmap + 3x3 local-maximum peak extraction, per class channel.
  struct Peak {
    float score;
    int cls, r, c;
  };
  std::vector<Peak> peaks;
  const int hh = head_h_, hw = head_w_;
  for (int k = 0; k < cfg_.num_classes(); ++k) {
    for (int r = 0; r < hh; ++r) {
      for (int c = 0; c < hw; ++c) {
        const float v = hm_logits.at(0, k, r, c);
        bool is_max = true;
        for (int dr = -1; dr <= 1 && is_max; ++dr) {
          for (int dc = -1; dc <= 1; ++dc) {
            const int nr = r + dr, nc = c + dc;
            if (nr < 0 || nr >= hh || nc < 0 || nc >= hw || (dr == 0 && dc == 0))
              continue;
            if (hm_logits.at(0, k, nr, nc) > v) {
              is_max = false;
              break;
            }
          }
        }
        if (!is_max) continue;
        const float score = ops::sigmoid(v);
        if (score >= cfg_.score_threshold) peaks.push_back({score, k, r, c});
      }
    }
  }
  std::sort(peaks.begin(), peaks.end(),
            [](const Peak& a, const Peak& b) { return a.score > b.score; });
  if (static_cast<int>(peaks.size()) > cfg_.top_k)
    peaks.resize(static_cast<std::size_t>(cfg_.top_k));

  std::vector<eval::Box3D> cands;
  for (const auto& peak : peaks) {
    const auto reg_at = [&](int ch) { return reg_out.at(0, ch, peak.r, peak.c); };
    const auto dims = cfg_.dims(peak.cls);
    // Keypoint with sub-cell offset, at stride 4.
    const float u = (static_cast<float>(peak.c) + 0.5f + reg_at(0)) * 4.0f;
    const float v = (static_cast<float>(peak.r) + 0.5f + reg_at(1)) * 4.0f;
    const float depth = std::clamp(
        cfg_.depth_ref * std::exp(std::clamp(reg_at(2), -2.5f, 2.5f)),
        cfg_.depth_min, cfg_.depth_max);
    eval::Box3D box;
    cfg_.camera.unproject(u, v, depth, box.x, box.y, box.z);
    box.length = dims.length * std::exp(std::clamp(reg_at(3), -1.5f, 1.5f));
    box.width = dims.width * std::exp(std::clamp(reg_at(4), -1.5f, 1.5f));
    box.height = dims.height * std::exp(std::clamp(reg_at(5), -1.5f, 1.5f));
    box.yaw = std::atan2(reg_at(6), reg_at(7));
    box.score = peak.score;
    box.label = peak.cls;
    cands.push_back(box);
  }
  return eval::nms_bev(std::move(cands), cfg_.nms_iou);
}

std::vector<eval::Box3D> Smoke::detect(const data::Scene& scene) {
  prof::Span span("detect", "SMOKE");
  obs::ScopedTimer timer(obs::Hist::kDetect);
  set_training(false);
  ForwardState state;
  forward(render(scene), state);
  return decode(state.heatmap_logits, state.reg_out);
}

double Smoke::compute_loss_and_grad(
    const std::vector<const data::Scene*>& batch) {
  UPAQ_CHECK(!batch.empty(), "empty batch");
  set_training(true);
  double total_loss = 0.0;
  const float inv_batch = 1.0f / static_cast<float>(batch.size());

  for (const auto* scene : batch) {
    ForwardState state;
    forward(render_augmented(*scene), state);

    // Heatmap target: Gaussian splats at projected box centres, one channel
    // per class (the single-class default collapses to the historical map).
    const int num_cls = cfg_.num_classes();
    Tensor hm_target({num_cls, head_h_, head_w_});
    struct CentreTarget {
      int r, c;
      float reg[kRegChannels];
    };
    std::vector<CentreTarget> centres;
    for (const auto& gtb : scene->objects) {
      float u, v;
      if (!cfg_.camera.project(gtb.x, gtb.y, gtb.z, u, v)) continue;
      if (u < 0 || u >= static_cast<float>(cfg_.camera.width) || v < 0 ||
          v >= static_cast<float>(cfg_.camera.height))
        continue;
      const int cls = std::clamp(gtb.label, 0, num_cls - 1);
      const auto dims = cfg_.dims(cls);
      const float fc = u / 4.0f, fr = v / 4.0f;
      const int c = std::min(head_w_ - 1, static_cast<int>(fc));
      const int r = std::min(head_h_ - 1, static_cast<int>(fr));
      // Radius shrinks with depth (projected size does too).
      const float sigma = std::max(0.8f, 7.0f / std::sqrt(gtb.x));
      const int rad = static_cast<int>(std::ceil(2.5f * sigma));
      for (int dr = -rad; dr <= rad; ++dr) {
        for (int dc = -rad; dc <= rad; ++dc) {
          const int nr = r + dr, nc = c + dc;
          if (nr < 0 || nr >= head_h_ || nc < 0 || nc >= head_w_) continue;
          const float g = std::exp(-(static_cast<float>(dr * dr + dc * dc)) /
                                   (2.0f * sigma * sigma));
          hm_target.at(cls, nr, nc) = std::max(hm_target.at(cls, nr, nc), g);
        }
      }
      hm_target.at(cls, r, c) = 1.0f;
      CentreTarget ct;
      ct.r = r;
      ct.c = c;
      ct.reg[0] = fc - (static_cast<float>(c) + 0.5f);
      ct.reg[1] = fr - (static_cast<float>(r) + 0.5f);
      ct.reg[2] = std::log(std::max(gtb.x, cfg_.depth_min) / cfg_.depth_ref);
      ct.reg[3] = std::log(gtb.length / dims.length);
      ct.reg[4] = std::log(gtb.width / dims.width);
      ct.reg[5] = std::log(gtb.height / dims.height);
      const float wrapped = wrap_half_pi(gtb.yaw);
      ct.reg[6] = std::sin(wrapped);
      ct.reg[7] = std::cos(wrapped);
      centres.push_back(ct);
    }
    const float norm = 1.0f / static_cast<float>(std::max<std::size_t>(centres.size(), 1));

    // CenterNet focal loss over the full heatmap.
    Tensor grad_hm(state.heatmap_logits.shape());
    double hm_loss = 0.0;
    for (int k = 0; k < num_cls; ++k) {
      for (int r = 0; r < head_h_; ++r) {
        for (int c = 0; c < head_w_; ++c) {
          float grad = 0.0f;
          hm_loss += train::heatmap_focal(state.heatmap_logits.at(0, k, r, c),
                                          hm_target.at(k, r, c), cfg_.hm_alpha,
                                          cfg_.hm_beta, grad);
          grad_hm.at(0, k, r, c) = grad * norm * inv_batch;
        }
      }
    }
    hm_loss *= norm;

    // Regression loss at the centre cells only.
    Tensor grad_reg(state.reg_out.shape());
    double reg_loss = 0.0;
    for (const auto& ct : centres) {
      for (int ch = 0; ch < kRegChannels; ++ch) {
        float grad = 0.0f;
        const float w =
            cfg_.reg_weight * (ch == 2 ? cfg_.depth_weight : 1.0f);
        reg_loss += w * train::smooth_l1(state.reg_out.at(0, ch, ct.r, ct.c),
                                         ct.reg[ch], 0.5f, grad);
        grad_reg.at(0, ch, ct.r, ct.c) = w * grad * norm * inv_batch;
      }
    }
    reg_loss *= norm;

    total_loss += hm_loss + reg_loss;
    backward(grad_hm, grad_reg);
  }
  return total_loss / static_cast<double>(batch.size());
}

std::vector<hw::LayerProfile> Smoke::cost_profile() const {
  return cost_profile_for(cfg_);
}

std::vector<hw::LayerProfile> Smoke::cost_profile_for(const SmokeConfig& cfg) {
  std::vector<hw::LayerProfile> out;
  auto conv_profile = [&](const std::string& name, std::int64_t in_c,
                          std::int64_t out_c, int k, std::int64_t oh,
                          std::int64_t ow) {
    hw::LayerProfile p;
    p.name = name;
    p.weight_count = in_c * out_c * k * k;
    p.macs = p.weight_count * oh * ow;
    p.in_elems = in_c * oh * ow;
    p.out_elems = out_c * oh * ow;
    out.push_back(p);
  };
  auto bn_profile = [&](const std::string& name, std::int64_t c, std::int64_t oh,
                        std::int64_t ow) {
    hw::LayerProfile p;
    p.name = name;
    p.weight_count = 2 * c;
    p.macs = 2 * c * oh * ow;
    p.in_elems = c * oh * ow;
    p.out_elems = c * oh * ow;
    out.push_back(p);
  };

  std::int64_t h = cfg.camera.height, w = cfg.camera.width;
  {
    // Image normalization / resize on the host before the network.
    hw::LayerProfile p;
    p.name = "pre.normalize";
    p.serial_ops = h * w / 2;
    p.in_elems = 3 * h * w;
    p.out_elems = 3 * h * w;
    out.push_back(p);
  }
  conv_profile("stem.conv", 3, cfg.stem_channels, 3, h, w);
  bn_profile("stem.bn", cfg.stem_channels, h, w);
  std::int64_t in_c = cfg.stem_channels;
  for (std::size_t s = 0; s < cfg.stages.size(); ++s) {
    const auto [extra, channels] = cfg.stages[s];
    h /= 2;
    w /= 2;
    const std::string base = "stage" + std::to_string(s);
    conv_profile(base + ".down.conv", in_c, channels, 3, h, w);
    bn_profile(base + ".down.bn", channels, h, w);
    for (int u = 0; u < extra; ++u) {
      conv_profile(base + ".res" + std::to_string(u) + ".conv", channels,
                   channels, 3, h, w);
      bn_profile(base + ".res" + std::to_string(u) + ".bn", channels, h, w);
    }
    in_c = channels;
  }
  const std::int64_t hh = cfg.camera.height / 4, hwd = cfg.camera.width / 4;
  conv_profile("neck.conv", in_c, cfg.up_channels, 3, hh, hwd);
  bn_profile("neck.bn", cfg.up_channels, hh, hwd);
  conv_profile("hm.conv", cfg.up_channels, cfg.head_channels, 3, hh, hwd);
  conv_profile("hm.out", cfg.head_channels, cfg.num_classes(), 1, hh, hwd);
  conv_profile("reg.conv", cfg.up_channels, cfg.head_channels, 3, hh, hwd);
  conv_profile("reg.out", cfg.head_channels, kRegChannels, 1, hh, hwd);
  {
    // Peak extraction + uplift + NMS on the host.
    hw::LayerProfile p;
    p.name = "post.decode";
    p.serial_ops = hh * hwd * 3;
    p.in_elems = hh * hwd * (1 + kRegChannels);
    p.out_elems = 512;
    out.push_back(p);
  }
  return out;
}

}  // namespace upaq::detectors
