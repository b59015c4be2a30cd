#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "parallel/thread_pool.h"
#include "tensor/gemm_kernel.h"
#include "tensor/ops.h"

namespace upaq::nn {

namespace {
// Minimum scalar ops before a layer loop is worth dispatching to the pool;
// below this the single-chunk inline path runs (identical results).
constexpr std::int64_t kLayerParallelGrain = 1 << 15;

void check_bn_input(const Tensor& x, std::int64_t channels,
                    const std::string& name) {
  UPAQ_CHECK(x.rank() == 4 && x.dim(1) == channels,
             name + ": BatchNorm2d shape mismatch for input " +
                 shape_to_string(x.shape()));
}

/// The ReLU pass over a whole tensor, in place.
void relu_pass(float slope, Tensor& t) {
  gemm::Epilogue e;
  e.relu = true;
  e.slope = slope;
  gemm::f32_epilogue(t.data(), t.numel(), 1, 1, t.numel(), e, t.data());
}
}  // namespace

const char* layer_kind_name(LayerKind k) {
  switch (k) {
    case LayerKind::kConv2d: return "Conv2d";
    case LayerKind::kLinear: return "Linear";
    case LayerKind::kBatchNorm: return "BatchNorm2d";
    case LayerKind::kRelu: return "ReLU";
    case LayerKind::kLeakyRelu: return "LeakyReLU";
    case LayerKind::kMaxPool: return "MaxPool2d";
    case LayerKind::kUpsample: return "Upsample";
    case LayerKind::kOther: return "Other";
  }
  return "Unknown";
}

// ---------------------------------------------------------------- BatchNorm

BatchNorm2d::BatchNorm2d(std::int64_t channels, Rng& rng, std::string name,
                         float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      running_mean_({channels}),
      running_var_(Shape{channels}, 1.0f) {
  (void)rng;  // gamma/beta have deterministic init; rng kept for API symmetry
  UPAQ_CHECK(channels > 0, "BatchNorm2d needs positive channel count");
  set_name(std::move(name));
  gamma_ = Parameter(name_ + ".gamma", Tensor::ones({channels_}));
  beta_ = Parameter(name_ + ".beta", Tensor({channels_}));
}

Tensor BatchNorm2d::do_forward(const Tensor& x) {
  check_bn_input(x, channels_, name_);
  const std::int64_t n = x.dim(0), c = channels_, h = x.dim(2), w = x.dim(3);
  const std::int64_t per_channel = n * h * w;
  Tensor out(x.shape());

  if (training_) {
    input_cache_ = x;
    batch_mean_.assign(static_cast<std::size_t>(c), 0.0f);
    batch_inv_std_.assign(static_cast<std::size_t>(c), 0.0f);
    xhat_cache_ = Tensor(x.shape());
    // Channels are fully independent (stats, running-stat updates, and the
    // normalized writes all live at index ch), so the channel loop is a
    // deterministic disjoint-write parallel loop.
    auto train_channels = [&](std::int64_t c0, std::int64_t c1) {
      for (std::int64_t ch = c0; ch < c1; ++ch) {
        double sum = 0.0, sq = 0.0;
        for (std::int64_t b = 0; b < n; ++b) {
          const float* src = x.data() + (b * c + ch) * h * w;
          for (std::int64_t i = 0; i < h * w; ++i) {
            sum += src[i];
            sq += static_cast<double>(src[i]) * src[i];
          }
        }
        const double mean = sum / per_channel;
        const double var = std::max(sq / per_channel - mean * mean, 0.0);
        const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
        batch_mean_[static_cast<std::size_t>(ch)] = static_cast<float>(mean);
        batch_inv_std_[static_cast<std::size_t>(ch)] = inv_std;
        running_mean_[ch] = (1.0f - momentum_) * running_mean_[ch] +
                            momentum_ * static_cast<float>(mean);
        running_var_[ch] = (1.0f - momentum_) * running_var_[ch] +
                           momentum_ * static_cast<float>(var);
        const float g = gamma_.value[ch], bta = beta_.value[ch];
        for (std::int64_t b = 0; b < n; ++b) {
          const float* src = x.data() + (b * c + ch) * h * w;
          float* xh = xhat_cache_.data() + (b * c + ch) * h * w;
          float* dst = out.data() + (b * c + ch) * h * w;
          for (std::int64_t i = 0; i < h * w; ++i) {
            xh[i] = (src[i] - static_cast<float>(mean)) * inv_std;
            dst[i] = g * xh[i] + bta;
          }
        }
      }
    };
    if (c * per_channel < kLayerParallelGrain) {
      train_channels(0, c);
    } else {
      parallel::parallel_for(0, c, 1, train_channels);
    }
  } else {
    eval_into(x, out.data());
  }
  return out;
}

void BatchNorm2d::eval_epilogue(gemm::Epilogue& e) const {
  e.gamma = gamma_.value.data();
  e.beta = beta_.value.data();
  e.mean = running_mean_.data();
  e.var = running_var_.data();
  e.eps = eps_;
}

void BatchNorm2d::eval_into(const Tensor& x, float* out) const {
  const std::int64_t n = x.dim(0), c = channels_, h = x.dim(2), w = x.dim(3);
  gemm::Epilogue e;
  eval_epilogue(e);
  for (std::int64_t b = 0; b < n; ++b)
    gemm::f32_epilogue(x.data() + b * c * h * w, w, c, h, w, e,
                       out + b * c * h * w);
}

bool BatchNorm2d::do_forward_inplace(Tensor& x) {
  check_bn_input(x, channels_, name_);
  eval_into(x, x.data());
  return true;
}

Tensor BatchNorm2d::do_backward(const Tensor& grad_out) {
  UPAQ_CHECK(!input_cache_.empty(), name_ + ": backward without forward");
  const std::int64_t n = input_cache_.dim(0), c = channels_,
                     h = input_cache_.dim(2), w = input_cache_.dim(3);
  const std::int64_t m = n * h * w;
  Tensor grad_x(input_cache_.shape());
  // Per-channel reductions and writes (gamma/beta grads, dx planes) are all
  // indexed by ch, so the channel loop parallelises with disjoint writes.
  auto backward_channels = [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t ch = c0; ch < c1; ++ch) {
      const float inv_std = batch_inv_std_[static_cast<std::size_t>(ch)];
      const float g = gamma_.value[ch];
      // Accumulate the per-channel reductions sum(dy) and sum(dy * xhat).
      double sum_dy = 0.0, sum_dy_xhat = 0.0;
      for (std::int64_t b = 0; b < n; ++b) {
        const float* dy = grad_out.data() + (b * c + ch) * h * w;
        const float* xh = xhat_cache_.data() + (b * c + ch) * h * w;
        for (std::int64_t i = 0; i < h * w; ++i) {
          sum_dy += dy[i];
          sum_dy_xhat += static_cast<double>(dy[i]) * xh[i];
        }
      }
      gamma_.grad[ch] += static_cast<float>(sum_dy_xhat);
      beta_.grad[ch] += static_cast<float>(sum_dy);
      const float k1 = static_cast<float>(sum_dy / m);
      const float k2 = static_cast<float>(sum_dy_xhat / m);
      for (std::int64_t b = 0; b < n; ++b) {
        const float* dy = grad_out.data() + (b * c + ch) * h * w;
        const float* xh = xhat_cache_.data() + (b * c + ch) * h * w;
        float* dx = grad_x.data() + (b * c + ch) * h * w;
        for (std::int64_t i = 0; i < h * w; ++i)
          dx[i] = g * inv_std * (dy[i] - k1 - xh[i] * k2);
      }
    }
  };
  if (c * m < kLayerParallelGrain) {
    backward_channels(0, c);
  } else {
    parallel::parallel_for(0, c, 1, backward_channels);
  }
  return grad_x;
}

// --------------------------------------------------------------------- ReLU

Tensor Relu::do_forward(const Tensor& x) {
  if (training_) input_cache_ = x;
  Tensor out = x;
  relu_pass(slope_, out);
  return out;
}

bool Relu::do_forward_inplace(Tensor& x) {
  relu_pass(slope_, x);
  return true;
}

Tensor Relu::do_backward(const Tensor& grad_out) {
  UPAQ_CHECK(!input_cache_.empty(), name_ + ": backward without forward");
  Tensor grad = grad_out;
  const float* x = input_cache_.data();
  float* g = grad.data();
  parallel::parallel_for(0, grad.numel(), kLayerParallelGrain,
                         [&](std::int64_t i0, std::int64_t i1) {
                           for (std::int64_t i = i0; i < i1; ++i)
                             if (x[i] < 0.0f) g[i] *= slope_;
                         });
  return grad;
}

// ------------------------------------------------------------------ MaxPool

Tensor MaxPool2d::do_forward(const Tensor& x) {
  UPAQ_CHECK(x.rank() == 4, "MaxPool2d expects NCHW");
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int k = kernel_;
  UPAQ_CHECK(h % k == 0 && w % k == 0,
             name_ + ": input spatial dims must be divisible by the kernel");
  const std::int64_t oh = h / k, ow = w / k;
  Tensor out({n, c, oh, ow});
  input_shape_ = x.shape();
  argmax_.assign(static_cast<std::size_t>(out.numel()), 0);
  const float* src = x.data();
  float* dst = out.data();
  std::int64_t oi = 0;
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = src + (b * c + ch) * h * w;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_idx = 0;
          for (int dy = 0; dy < k; ++dy) {
            for (int dx = 0; dx < k; ++dx) {
              const std::int64_t idx = (oy * k + dy) * w + (ox * k + dx);
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = (b * c + ch) * h * w + idx;
              }
            }
          }
          dst[oi] = best;
          argmax_[static_cast<std::size_t>(oi)] = best_idx;
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2d::do_backward(const Tensor& grad_out) {
  UPAQ_CHECK(!input_shape_.empty(), name_ + ": backward without forward");
  Tensor grad_x(input_shape_);
  const float* g = grad_out.data();
  float* dst = grad_x.data();
  for (std::int64_t i = 0; i < grad_out.numel(); ++i)
    dst[argmax_[static_cast<std::size_t>(i)]] += g[i];
  return grad_x;
}

// ----------------------------------------------------------------- Upsample

Tensor Upsample::do_forward(const Tensor& x) {
  UPAQ_CHECK(x.rank() == 4, "Upsample expects NCHW");
  UPAQ_CHECK(factor_ >= 1, "Upsample factor must be >= 1");
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = h * factor_, ow = w * factor_;
  input_shape_ = x.shape();
  Tensor out({n, c, oh, ow});
  const float* src = x.data();
  float* dst = out.data();
  // Each input row widens once into its first output row, which is then
  // copied to the factor - 1 rows below it: no per-element division.
  for (std::int64_t row = 0; row < n * c * h; ++row) {
    const float* in_row = src + row * w;
    float* out_row = dst + row * factor_ * ow;
    for (std::int64_t ix = 0; ix < w; ++ix)
      std::fill(out_row + ix * factor_, out_row + (ix + 1) * factor_, in_row[ix]);
    for (int r = 1; r < factor_; ++r)
      std::copy(out_row, out_row + ow, out_row + r * ow);
  }
  return out;
}

Tensor Upsample::do_backward(const Tensor& grad_out) {
  UPAQ_CHECK(!input_shape_.empty(), name_ + ": backward without forward");
  const std::int64_t n = input_shape_[0], c = input_shape_[1],
                     h = input_shape_[2], w = input_shape_[3];
  const std::int64_t oh = h * factor_, ow = w * factor_;
  Tensor grad_x(input_shape_);
  const float* g = grad_out.data();
  float* dst = grad_x.data();
  for (std::int64_t bc = 0; bc < n * c; ++bc) {
    const float* gplane = g + bc * oh * ow;
    float* plane = dst + bc * h * w;
    for (std::int64_t oy = 0; oy < oh; ++oy)
      for (std::int64_t ox = 0; ox < ow; ++ox)
        plane[(oy / factor_) * w + ox / factor_] += gplane[oy * ow + ox];
  }
  return grad_x;
}

// ------------------------------------------------------------------- Linear

Linear::Linear(std::int64_t in_features, std::int64_t out_features, bool bias,
               Rng& rng, std::string name)
    : in_f_(in_features), out_f_(out_features), has_bias_(bias) {
  UPAQ_CHECK(in_features > 0 && out_features > 0, "Linear feature counts");
  set_name(std::move(name));
  weight_ = Parameter(name_ + ".weight", Tensor::kaiming({out_f_, in_f_}, rng));
  if (has_bias_) bias_ = Parameter(name_ + ".bias", Tensor({out_f_}));
}

std::vector<Parameter*> Linear::parameters() {
  std::vector<Parameter*> ps{&weight_};
  if (has_bias_) ps.push_back(&bias_);
  return ps;
}

Tensor Linear::do_forward(const Tensor& x) {
  UPAQ_CHECK(x.rank() == 2 && x.dim(1) == in_f_,
             name_ + ": Linear expects (N," + std::to_string(in_f_) + ")");
  if (training_) input_cache_ = x;
  // Packed integer path (upaq::qnn): inference-only, same contract as Conv2d.
  if (engine_ != nullptr && !training_) return engine_->forward(x, {});
  const std::int64_t n = x.dim(0);
  Tensor out({n, out_f_});
  // y = x * W^T (+ b); rows of the output are independent, so the batch loop
  // parallelises deterministically (the PFN feeds thousands of point rows).
  const float* px = x.data();
  const float* pw = weight_.value.data();
  float* py = out.data();
  auto rows = [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      for (std::int64_t o = 0; o < out_f_; ++o) {
        double acc = has_bias_ ? bias_.value[o] : 0.0;
        const float* wrow = pw + o * in_f_;
        const float* xrow = px + b * in_f_;
        for (std::int64_t i = 0; i < in_f_; ++i)
          acc += static_cast<double>(wrow[i]) * xrow[i];
        py[b * out_f_ + o] = static_cast<float>(acc);
      }
    }
  };
  if (n * out_f_ * in_f_ < kLayerParallelGrain) {
    rows(0, n);
  } else {
    parallel::parallel_for(0, n, 32, rows);
  }
  return out;
}

Tensor Linear::do_backward(const Tensor& grad_out) {
  UPAQ_CHECK(!input_cache_.empty(), name_ + ": backward without forward");
  const std::int64_t n = input_cache_.dim(0);
  UPAQ_CHECK(grad_out.rank() == 2 && grad_out.dim(0) == n &&
                 grad_out.dim(1) == out_f_,
             name_ + ": grad_out shape mismatch");
  Tensor grad_x({n, in_f_});
  const float* px = input_cache_.data();
  const float* pg = grad_out.data();
  const float* pw = weight_.value.data();
  float* pgw = weight_.grad.data();
  float* pgx = grad_x.data();
  // dX rows are disjoint per batch row -> parallel. dW/db are reductions
  // over the batch; they keep the fixed serial accumulation order so results
  // match across thread counts.
  auto gx_rows = [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      const float* grow = pg + b * out_f_;
      float* gxrow = pgx + b * in_f_;
      for (std::int64_t o = 0; o < out_f_; ++o) {
        const float g = grow[o];
        if (g == 0.0f) continue;
        const float* wrow = pw + o * in_f_;
        for (std::int64_t i = 0; i < in_f_; ++i) gxrow[i] += g * wrow[i];
      }
    }
  };
  if (n * out_f_ * in_f_ < kLayerParallelGrain) {
    gx_rows(0, n);
  } else {
    parallel::parallel_for(0, n, 32, gx_rows);
  }
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t o = 0; o < out_f_; ++o) {
      const float g = pg[b * out_f_ + o];
      if (has_bias_) bias_.grad[o] += g;
      if (g == 0.0f) continue;
      const float* xrow = px + b * in_f_;
      float* gwrow = pgw + o * in_f_;
      for (std::int64_t i = 0; i < in_f_; ++i) gwrow[i] += g * xrow[i];
    }
  }
  if (!weight_.mask.empty()) weight_.grad.mul_(weight_.mask);
  return grad_x;
}

}  // namespace upaq::nn
