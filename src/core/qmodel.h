// QuantizedModel: lowers a compressed detector onto the real packed-integer
// inference path (upaq::qnn).
//
// A CompressionPlan records, per layer, the bitwidth / sparsity format the
// Es search chose; lower_quantized maps those LayerStates onto qnn::LowerSpec
// and attaches a PackedConv2d / PackedLinear engine to every planned Conv2d
// and Linear (the same Algorithm-1 root/leaf replication rule as apply_plan,
// via find_state). The wrapper then behaves as a Detector3D whose detect()
// executes integer GEMMs with int32 accumulation, while training-path
// entry points are disabled — the packed engines carry no gradients.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/plan.h"
#include "detectors/detector.h"
#include "qnn/packed.h"

namespace upaq::core {

/// Attaches packed-integer engines to every planned Conv2d/Linear of `model`
/// whose compute bitwidth fits the packer (<= 16). Weights must already be
/// on the plan's quantization grid (the compressors and requantize() leave
/// them there); the engines snapshot them at pack time. Returns the number
/// of layers lowered.
int lower_quantized(nn::Module& model, const CompressionPlan& plan,
                    int act_bits = 8);

/// Detaches all packed engines, restoring the float forward path.
void clear_engines(nn::Module& model);

/// Packs every planned weight into its storage form, keyed by layer name —
/// the `.packed` side-car blob of the zoo experiment cache.
std::map<std::string, qnn::PackedTensor> pack_planned_weights(
    const nn::Module& model, const CompressionPlan& plan);

/// A compressed detector executing on the packed integer path. Wraps (does
/// not own) the inner detector: construction lowers its planned layers,
/// destruction detaches the engines again. detect()/observes() delegate;
/// compute_loss_and_grad throws (quantized inference is eval-only);
/// cost_profile() is the inner profile under the plan with the integer-path
/// flag set, so the hw model prices the int-GEMM execution it now runs.
class QuantizedModel final : public detectors::Detector3D {
 public:
  QuantizedModel(detectors::Detector3D& inner, CompressionPlan plan,
                 int act_bits = 8);
  ~QuantizedModel() override;

  std::vector<eval::Box3D> detect(const data::Scene& scene) override;
  double compute_loss_and_grad(
      const std::vector<const data::Scene*>& batch) override;
  std::vector<hw::LayerProfile> cost_profile() const override;
  const char* model_name() const override { return name_.c_str(); }
  bool observes(const eval::Box3D& box) const override {
    return inner_.observes(box);
  }

  /// Number of layers running on the packed path.
  int lowered_layers() const { return lowered_; }
  const CompressionPlan& plan() const { return plan_; }

  /// Flips between the packed and float execution of the SAME lowered
  /// model: set_packed(false) parks every attached engine (two pointer
  /// moves per layer, no re-pack), set_packed(true) re-attaches them.
  /// Lets benches interleave fp32/packed sweeps so both see the same
  /// machine-noise environment instead of decorrelating seconds apart.
  void set_packed(bool packed);
  bool packed() const { return packed_; }

 private:
  detectors::Detector3D& inner_;
  CompressionPlan plan_;
  int lowered_ = 0;
  std::string name_;
  bool packed_ = true;
  std::vector<std::pair<nn::Layer*, std::unique_ptr<nn::ForwardEngine>>>
      parked_;
};

}  // namespace upaq::core
