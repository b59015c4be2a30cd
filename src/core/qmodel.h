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
#include "qnn/autotune.h"
#include "qnn/packed.h"

namespace upaq::core {

/// Attaches packed-integer engines to every planned Conv2d/Linear of `model`
/// whose compute bitwidth fits the packer (<= 16). Weights must already be
/// on the plan's quantization grid (the compressors and requantize() leave
/// them there); the engines snapshot them at pack time. Returns the number
/// of layers lowered.
int lower_quantized(nn::Module& model, const CompressionPlan& plan,
                    int act_bits = 8);

/// One layer's auto-tune outcome: the winning kernel, every candidate's
/// best-of-reps timing, and whether the layer was lowered. A kFloat winner
/// keeps the layer on its fake-quant float path (not lowered).
struct TunedLayer {
  std::string name;
  qnn::TunedKernel kernel = qnn::TunedKernel::kSegment;
  std::vector<qnn::CandidateTiming> timings;
  bool lowered = true;
};

struct TuneReport {
  std::vector<TunedLayer> layers;
};

/// lower_quantized with the empirical per-layer auto-tuner in the loop: each
/// planned Conv2d races {fp32 blocked, entry-skip segment, int8 panel} on
/// its real weight at its last-seen output geometry (256 columns if the
/// model has not been forwarded yet) and is pinned to the winner —
/// including NOT lowering it when the float GEMM wins. Linear layers run the
/// transposed batch-dot path, which has a single integer kernel; they lower
/// untimed. Returns the number of layers lowered and, when `report` is
/// non-null, appends one TunedLayer per planned layer.
int lower_quantized_tuned(nn::Module& model, const CompressionPlan& plan,
                          int act_bits, const qnn::TuneOptions& opt,
                          TuneReport* report = nullptr);

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
  /// Tuned lowering: races candidate kernels per layer (see
  /// lower_quantized_tuned) and records the decisions in tune_report().
  QuantizedModel(detectors::Detector3D& inner, CompressionPlan plan,
                 int act_bits, const qnn::TuneOptions& tune);
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
  /// Per-layer auto-tune decisions (empty for the untuned constructor).
  const TuneReport& tune_report() const { return tune_report_; }

  /// Flips between the packed and float execution of the SAME lowered
  /// model: set_packed(false) parks every attached engine (two pointer
  /// moves per layer, no re-pack), set_packed(true) re-attaches them.
  /// Lets benches interleave fp32/packed sweeps so both see the same
  /// machine-noise environment instead of decorrelating seconds apart.
  void set_packed(bool packed);
  bool packed() const { return packed_; }

  /// In-context demotion: detaches the packed engine of every named layer,
  /// returning it to the float path, and rewrites its tune_report() entry
  /// to a kFloat pin (lowered=false). The load-time race times candidates
  /// on synthetic inputs; callers that re-measure the lowered model on real
  /// scenes (bench_fig4's validation sweep) use this to drop layers the
  /// packed path does not actually beat in context. Returns the number of
  /// layers demoted and logs one obs "autotune.demote" event per layer.
  int demote(const std::vector<std::string>& names);

 private:
  void finish_lowering(int act_bits);

  detectors::Detector3D& inner_;
  CompressionPlan plan_;
  int lowered_ = 0;
  std::string name_;
  TuneReport tune_report_;
  bool packed_ = true;
  std::vector<std::pair<nn::Layer*, std::unique_ptr<nn::ForwardEngine>>>
      parked_;
};

}  // namespace upaq::core
