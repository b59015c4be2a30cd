#include "core/qmodel.h"

#include <utility>
#include <vector>

#include "obs/obs.h"
#include "qnn/qlayers.h"
#include "tensor/check.h"

namespace upaq::core {

namespace {

/// A layer runs the packed path when the plan quantized it to a width the
/// packer supports; fp32/fp16-planned layers (and unplanned ones) stay float.
bool packable(const LayerState& state) {
  return state.compute_bits >= 2 && state.compute_bits <= 16;
}

qnn::LowerSpec spec_from_state(const LayerState& state, int act_bits) {
  qnn::LowerSpec spec;
  spec.weight_bits = state.compute_bits;
  spec.group_size = state.quant_group;
  spec.format = state.format;
  spec.act_bits = act_bits;
  return spec;
}

}  // namespace

int lower_quantized(nn::Module& model, const CompressionPlan& plan,
                    int act_bits) {
  int lowered = 0;
  for (const auto& layer : model.layers()) {
    if (layer->kind() != nn::LayerKind::kConv2d &&
        layer->kind() != nn::LayerKind::kLinear)
      continue;
    const LayerState* state = find_state(plan, layer->name());
    if (state == nullptr || !packable(*state)) continue;
    if (qnn::lower_layer(*layer, spec_from_state(*state, act_bits))) ++lowered;
  }
  return lowered;
}

void clear_engines(nn::Module& model) {
  for (const auto& layer : model.layers()) layer->set_engine(nullptr);
}

std::map<std::string, qnn::PackedTensor> pack_planned_weights(
    const nn::Module& model, const CompressionPlan& plan) {
  std::map<std::string, qnn::PackedTensor> out;
  for (const auto& layer : model.layers()) {
    const nn::Parameter* w = nullptr;
    if (const auto* conv = dynamic_cast<const nn::Conv2d*>(layer.get()))
      w = &conv->weight();
    else if (const auto* lin = dynamic_cast<const nn::Linear*>(layer.get()))
      w = &lin->weight();
    if (w == nullptr) continue;
    const LayerState* state = find_state(plan, layer->name());
    if (state == nullptr || !packable(*state)) continue;
    out.emplace(layer->name(),
                qnn::pack(w->value, state->compute_bits, state->quant_group,
                          state->format, w->mask));
  }
  return out;
}

QuantizedModel::QuantizedModel(detectors::Detector3D& inner,
                               CompressionPlan plan, int act_bits)
    : inner_(inner), plan_(std::move(plan)) {
  lowered_ = lower_quantized(inner_, plan_, act_bits);
  UPAQ_CHECK(lowered_ > 0,
             "QuantizedModel: plan lowered no layers of " +
                 std::string(inner_.model_name()));
  inner_.set_training(false);  // engines only fire in eval mode
  name_ = "Quantized(" + std::string(inner_.model_name()) + ")";
  obs::log_event(obs::Level::kInfo, "model.lowered",
                 {obs::fstr("model", name_),
                  obs::fint("layers", lowered_),
                  obs::fint("act_bits", act_bits)});
}

QuantizedModel::~QuantizedModel() { clear_engines(inner_); }

void QuantizedModel::set_packed(bool packed) {
  if (packed == packed_) return;
  if (!packed) {
    for (const auto& layer : inner_.layers())
      if (layer->engine() != nullptr)
        parked_.emplace_back(layer.get(), layer->release_engine());
  } else {
    for (auto& [layer, engine] : parked_)
      layer->set_engine(std::move(engine));
    parked_.clear();
  }
  packed_ = packed;
}

std::vector<eval::Box3D> QuantizedModel::detect(const data::Scene& scene) {
  return inner_.detect(scene);
}

double QuantizedModel::compute_loss_and_grad(
    const std::vector<const data::Scene*>& batch) {
  (void)batch;
  UPAQ_CHECK(false,
             "QuantizedModel is inference-only: fine-tune the float model and "
             "re-lower instead of training through packed engines");
  return 0.0;
}

std::vector<hw::LayerProfile> QuantizedModel::cost_profile() const {
  auto profile = apply_plan(inner_.cost_profile(), plan_);
  // Every packable planned layer carries a packed engine (lower_quantized),
  // so the integer-path flag follows from the plan alone.
  for (auto& layer : profile) {
    if (layer.weight_count == 0) continue;
    const LayerState* state = find_state(plan_, layer.name);
    if (state != nullptr && packable(*state)) layer.integer_path = true;
  }
  return profile;
}

}  // namespace upaq::core
