// 2-D convolution with explicit backward pass and pruning-mask support.
#pragma once

#include "nn/layer.h"
#include "tensor/gemm_kernel.h"
#include "tensor/rng.h"

namespace upaq::nn {

class BatchNorm2d;
class Relu;

/// The layers that consume a conv's output, applied as it is stored:
/// relu(bn(conv(x)) + residual), each part optional. `residual` has the
/// conv output's shape.
struct ConvEpilogue {
  BatchNorm2d* bn = nullptr;
  const Tensor* residual = nullptr;
  Relu* relu = nullptr;
};

/// NCHW convolution. Weight layout (out_c, in_c, kh, kw); square kernels.
/// The forward path goes through im2col + GEMM; the GEMM skips zero weight
/// entries, so pattern-pruned kernels get a genuine CPU speedup (exercised
/// by the sparse-conv ablation benchmark).
class Conv2d final : public Layer {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels, int kernel,
         int stride, int pad, bool bias, Rng& rng, std::string name);

  LayerKind kind() const override { return LayerKind::kConv2d; }
  std::vector<Parameter*> parameters() override;

  using Layer::forward;
  /// forward(x), then epi.bn's forward, + *epi.residual, then epi.relu's
  /// forward. With every layer involved in eval mode this is one conv whose
  /// output rows get the epilogue in the pass that stores them (the packed
  /// engine's crop of its padded grid included), bitwise equal to the layer
  /// sequence, under this layer's span with a nested "nn.epilogue" span;
  /// the BN and ReLU emit none. In training mode it is that sequence of
  /// calls, so every backward cache is filled as usual.
  Tensor forward(const Tensor& x, const ConvEpilogue& epi);

  Parameter& weight() { return weight_; }
  const Parameter& weight() const { return weight_; }
  Parameter* bias() { return has_bias_ ? &bias_ : nullptr; }
  const Parameter* bias() const { return has_bias_ ? &bias_ : nullptr; }

  std::int64_t in_channels() const { return in_c_; }
  std::int64_t out_channels() const { return out_c_; }
  int kernel() const { return kernel_; }
  int stride() const { return stride_; }
  int pad() const { return pad_; }

  /// Output spatial size recorded at the most recent forward pass; the cost
  /// model reads these after a shape-probing forward.
  std::int64_t last_out_h() const { return last_out_h_; }
  std::int64_t last_out_w() const { return last_out_w_; }

 protected:
  Tensor do_forward(const Tensor& x) override;
  Tensor do_backward(const Tensor& grad_out) override;

 private:
  /// Validates x and returns the output shape (n, out_c, oh, ow).
  Shape output_shape(const Tensor& x) const;
  /// The conv of x with `epi` applied to each batch item's output.
  Tensor run(const Tensor& x, const gemm::Epilogue& epi);
  /// Rebuilds the cached 2-D weight view and pre-packed GEMM panels when
  /// weight_.version has moved (optimizer step, requantize, load_state_dict).
  void refresh_weight_pack();

  std::int64_t in_c_, out_c_;
  int kernel_, stride_, pad_;
  bool has_bias_;
  Parameter weight_;
  Parameter bias_;

  // Weight-derived caches keyed on weight_.version: the (out_c, in_c*kh*kw)
  // reshape and the panel-packed (or sparse-classified) form the blocked GEMM
  // consumes. ~0 sentinel = never built.
  Tensor w2d_cache_;
  gemm::PackedA packed_w2d_;
  std::uint64_t packed_w2d_version_ = ~std::uint64_t{0};
  std::uint64_t packed_w2d_hash_ = 0;  ///< value fingerprint (out-of-band writes)

  // Cached activations for backward.
  Tensor input_cache_;
  std::int64_t last_out_h_ = 0, last_out_w_ = 0;
};

/// Channel-wise concat of NCHW tensors (all must share N, H, W).
Tensor concat_channels(const std::vector<Tensor>& parts);

/// Inverse of concat_channels for gradients: splits grad along the channel
/// axis into chunks of the given channel counts.
std::vector<Tensor> split_channels(const Tensor& x,
                                   const std::vector<std::int64_t>& channels);

}  // namespace upaq::nn
