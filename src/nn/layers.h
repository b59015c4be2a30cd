// Stateless and normalization layers: BatchNorm2d, ReLU/LeakyReLU,
// MaxPool2d, nearest-neighbour Upsample, and Linear.
#pragma once

#include <bit>
#include <cstdint>

#include "nn/layer.h"
#include "tensor/rng.h"

namespace upaq::nn {

/// Per-channel batch normalization over (N,H,W) with running statistics.
class BatchNorm2d final : public Layer {
 public:
  BatchNorm2d(std::int64_t channels, Rng& rng, std::string name,
              float momentum = 0.1f, float eps = 1e-5f);

  LayerKind kind() const override { return LayerKind::kBatchNorm; }
  std::vector<Parameter*> parameters() override { return {&gamma_, &beta_}; }

  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }
  Tensor& running_mean() { return running_mean_; }
  Tensor& running_var() { return running_var_; }
  std::int64_t channels() const { return channels_; }
  /// Sets the BN step of `e` to this layer's eval normalization (running
  /// statistics): what a preceding Conv2d applies as it stores its output.
  void eval_epilogue(gemm::Epilogue& e) const;

 protected:
  Tensor do_forward(const Tensor& x) override;
  Tensor do_backward(const Tensor& grad_out) override;
  bool do_forward_inplace(Tensor& x) override;

 private:
  /// Eval-mode normalization of `x` into `out` (which may be x's own data).
  void eval_into(const Tensor& x, float* out) const;

  std::int64_t channels_;
  float momentum_, eps_;
  Parameter gamma_, beta_;
  Tensor running_mean_, running_var_;

  // Caches for backward.
  Tensor input_cache_, xhat_cache_;
  std::vector<float> batch_mean_, batch_inv_std_;
};

/// ReLU (slope == 0) or LeakyReLU (slope > 0).
class Relu final : public Layer {
 public:
  explicit Relu(std::string name, float negative_slope = 0.0f)
      : slope_(negative_slope) {
    set_name(std::move(name));
  }
  LayerKind kind() const override {
    return slope_ == 0.0f ? LayerKind::kRelu : LayerKind::kLeakyRelu;
  }
  float negative_slope() const { return slope_; }

  /// The activation of one value, v < 0 ? v * slope : v: the reference the
  /// vectorised pass (gemm::f32_epilogue, standalone or fused into a conv)
  /// matches bit for bit. Spelled as a bit select because GCC turns the
  /// ternary back into a data-dependent branch, which mispredicts on half
  /// the elements of a conv output.
  static float apply(float v, float slope) {
    const float scaled = v * slope;
    const std::uint32_t take = 0u - static_cast<std::uint32_t>(v < 0.0f);
    return std::bit_cast<float>((std::bit_cast<std::uint32_t>(scaled) & take) |
                                (std::bit_cast<std::uint32_t>(v) & ~take));
  }

 protected:
  Tensor do_forward(const Tensor& x) override;
  Tensor do_backward(const Tensor& grad_out) override;
  bool do_forward_inplace(Tensor& x) override;

 private:
  float slope_;
  Tensor input_cache_;
};

/// 2x2 (or kxk) max pooling with stride == kernel.
class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(int kernel, std::string name) : kernel_(kernel) {
    set_name(std::move(name));
  }
  LayerKind kind() const override { return LayerKind::kMaxPool; }
  int kernel() const { return kernel_; }

 protected:
  Tensor do_forward(const Tensor& x) override;
  Tensor do_backward(const Tensor& grad_out) override;

 private:
  int kernel_;
  Shape input_shape_;
  std::vector<std::int64_t> argmax_;
};

/// Nearest-neighbour upsampling by an integer factor.
class Upsample final : public Layer {
 public:
  explicit Upsample(int factor, std::string name) : factor_(factor) {
    set_name(std::move(name));
  }
  LayerKind kind() const override { return LayerKind::kUpsample; }
  int factor() const { return factor_; }

 protected:
  Tensor do_forward(const Tensor& x) override;
  Tensor do_backward(const Tensor& grad_out) override;

 private:
  int factor_;
  Shape input_shape_;
};

/// Fully-connected layer over (N, in_features) -> (N, out_features).
/// Weight layout (out, in) so it can be treated as a bank of 1x1 kernels by
/// the compression stack.
class Linear final : public Layer {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, bool bias,
         Rng& rng, std::string name);
  LayerKind kind() const override { return LayerKind::kLinear; }
  std::vector<Parameter*> parameters() override;

  Parameter& weight() { return weight_; }
  const Parameter& weight() const { return weight_; }
  Parameter* bias() { return has_bias_ ? &bias_ : nullptr; }
  const Parameter* bias() const { return has_bias_ ? &bias_ : nullptr; }
  std::int64_t in_features() const { return in_f_; }
  std::int64_t out_features() const { return out_f_; }

 protected:
  Tensor do_forward(const Tensor& x) override;
  Tensor do_backward(const Tensor& grad_out) override;

 private:
  std::int64_t in_f_, out_f_;
  bool has_bias_;
  Parameter weight_, bias_;
  Tensor input_cache_;
};

}  // namespace upaq::nn
