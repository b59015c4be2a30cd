// Packed-execution engines for Conv2d and Linear, attachable through the
// nn::ForwardEngine hook: eval-mode forward runs the integer PackedGemm
// instead of the float path, with activations quantized to int8 on entry
// (conv inputs straight into zero-padded planes the GEMM reads its taps from,
// no im2col) and requantized to float on exit; a conv's epilogue (BN,
// residual add, ReLU) is applied as its output is stored. Training always stays on the
// float fake-quant path (the engines are inference-only).
#pragma once

#include "nn/conv.h"
#include "nn/layers.h"
#include "qnn/qgemm.h"

namespace upaq::qnn {

/// How one layer is lowered onto the packed path. Mirrors the fields of a
/// core::LayerState without depending on core (which sits above nn/qnn).
struct LowerSpec {
  int weight_bits = 8;          ///< packed code width (2..16)
  std::int64_t group_size = 0;  ///< scale granularity (0 = per tensor)
  quant::StorageFormat format = quant::StorageFormat::kDense;
  int act_bits = 8;             ///< activation code width (2..8)
};

class PackedConv2d final : public nn::ForwardEngine {
 public:
  /// Packs the conv's current weight (honouring its pruning mask) into the
  /// engine's own PackedGemm and captures geometry + bias. The packed codes
  /// track the weight parameter: forward() revalidates against
  /// Parameter::version and rebuilds when the weight was mutated after
  /// lowering.
  PackedConv2d(const nn::Conv2d& conv, const LowerSpec& spec);

  Tensor forward(const Tensor& x, const gemm::Epilogue& epi) override;
  const char* engine_name() const override { return "qnn.packed_conv2d"; }

  const PackedGemm& gemm() const { return gemm_; }
  int act_bits() const { return act_bits_; }

 private:
  void refresh();

  std::int64_t in_c_, out_c_;
  int kernel_, stride_, pad_;
  Tensor bias_;  ///< empty when the conv has none
  const nn::Parameter* weight_;
  LowerSpec spec_;
  PackedGemm gemm_;
  std::uint64_t packed_version_;
  int act_bits_;
};

class PackedLinear final : public nn::ForwardEngine {
 public:
  PackedLinear(const nn::Linear& linear, const LowerSpec& spec);

  /// `epi` must be empty: a linear has no fused epilogue.
  Tensor forward(const Tensor& x, const gemm::Epilogue& epi) override;
  const char* engine_name() const override { return "qnn.packed_linear"; }

  const PackedGemm& gemm() const { return gemm_; }
  int act_bits() const { return act_bits_; }

 private:
  void refresh();

  std::int64_t in_f_, out_f_;
  Tensor bias_;
  const nn::Parameter* weight_;
  LowerSpec spec_;
  PackedGemm gemm_;
  std::uint64_t packed_version_;
  int act_bits_;
};

/// Lowers one layer in place: packs its weight under `spec` and attaches the
/// matching engine. Returns false (and leaves the layer untouched) when the
/// layer kind has no packed implementation.
bool lower_layer(nn::Layer& layer, const LowerSpec& spec);

}  // namespace upaq::qnn
