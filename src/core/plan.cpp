#include "core/plan.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "tensor/check.h"

namespace upaq::core {

namespace {

/// "block0.conv3" -> ("block0", "conv"): dotted prefix + digit-stripped stem.
std::pair<std::string, std::string> split_prefix_stem(const std::string& name) {
  const auto dot = name.rfind('.');
  std::string prefix = dot == std::string::npos ? "" : name.substr(0, dot);
  std::string last = dot == std::string::npos ? name : name.substr(dot + 1);
  while (!last.empty() && std::isdigit(static_cast<unsigned char>(last.back())))
    last.pop_back();
  return {prefix, last};
}

/// First dotted component: "stage2.res4.conv" -> "stage2".
std::string first_component(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

const LayerState* find_state(const CompressionPlan& plan,
                             const std::string& name) {
  auto it = plan.layers.find(name);
  if (it != plan.layers.end()) return &it->second;
  // Prefix/stem fallback: same first component and same digit-stripped stem.
  const auto [prefix, stem] = split_prefix_stem(name);
  const std::string root = first_component(name);
  for (const auto& [key, state] : plan.layers) {
    if (first_component(key) != root) continue;
    const auto [kprefix, kstem] = split_prefix_stem(key);
    if (kstem == stem) return &state;
  }
  return nullptr;
}

SizeBreakdown model_size(const nn::Module& model, const CompressionPlan& plan) {
  SizeBreakdown sb;
  for (const auto* p : model.parameters()) {
    sb.base_bits += quant::dense_fp32_bits(p->value.numel());
    // Parameter names are "<layer>.weight" / "<layer>.gamma" etc.
    const auto dot = p->name.rfind('.');
    const std::string layer = dot == std::string::npos ? p->name : p->name.substr(0, dot);
    const bool is_weight = dot != std::string::npos && p->name.substr(dot + 1) == "weight";
    const LayerState* state = is_weight ? find_state(plan, layer) : nullptr;
    if (state == nullptr) {
      sb.compressed_bits += quant::dense_fp32_bits(p->value.numel());
      continue;
    }
    sb.compressed_bits += quant::storage_bits(
        p->value.numel(), p->value.count_nonzero(), state->storage_bits,
        state->format);
    // Per-group quantization scales are part of the checkpoint: one fp16
    // scale per kernel/tile (UPAQ's per-kernel mp_quantizer).
    if (state->quant_group > 0 && state->storage_bits < 32)
      sb.compressed_bits +=
          16 * ((p->value.numel() + state->quant_group - 1) / state->quant_group);
  }
  return sb;
}

std::vector<hw::LayerProfile> apply_plan(std::vector<hw::LayerProfile> profile,
                                         const CompressionPlan& plan) {
  for (auto& layer : profile) {
    if (layer.weight_count == 0) continue;  // pre/post-processing entries
    const LayerState* state = find_state(plan, layer.name);
    if (state == nullptr) continue;
    layer.weight_sparsity = state->sparsity;
    layer.weight_bits = state->compute_bits;
    layer.mode = state->mode;
  }
  return profile;
}

void requantize(nn::Module& model, const CompressionPlan& plan) {
  for (const auto& [name, state] : plan.layers) {
    if (state.storage_bits >= 32) continue;
    nn::Parameter* w = find_weight(model, name);
    if (w == nullptr) continue;
    auto q = state.quant_group > 0
                 ? quant::mp_quantize_grouped(w->value, state.storage_bits,
                                              state.quant_group)
                 : quant::mp_quantize(w->value, state.storage_bits);
    w->value = std::move(q.values);
    w->quant_bits = state.storage_bits;
    w->project();  // zeros stay zero even if quantization grid moved
  }
}

nn::Parameter* find_weight(nn::Module& model, const std::string& layer_name) {
  nn::Layer* layer = model.find_layer(layer_name);
  if (layer == nullptr) return nullptr;
  if (auto* conv = dynamic_cast<nn::Conv2d*>(layer)) return &conv->weight();
  if (auto* lin = dynamic_cast<nn::Linear*>(layer)) return &lin->weight();
  return nullptr;
}

void rebuild_masks(nn::Module& model, const CompressionPlan& plan) {
  for (const auto& [name, state] : plan.layers) {
    if (state.sparsity <= 0.0) continue;
    nn::Parameter* w = find_weight(model, name);
    if (w == nullptr) continue;
    Tensor mask(w->value.shape());
    for (std::int64_t i = 0; i < w->value.numel(); ++i)
      mask[i] = w->value[i] != 0.0f ? 1.0f : 0.0f;
    w->mask = std::move(mask);
  }
}

void save_plan(const std::string& path, const CompressionPlan& plan) {
  std::ofstream os(path);
  UPAQ_CHECK(static_cast<bool>(os), "cannot write plan: " + path);
  os << "upaq-plan-v1\n" << plan.framework << "\n";
  for (const auto& [name, st] : plan.layers) {
    os << name << '\t' << st.sparsity << '\t' << st.storage_bits << '\t'
       << st.compute_bits << '\t' << static_cast<int>(st.mode) << '\t'
       << static_cast<int>(st.format) << '\t' << st.quant_group << '\t'
       << (st.pattern.empty() ? "-" : st.pattern) << '\n';
  }
}

CompressionPlan load_plan(const std::string& path) {
  std::ifstream is(path);
  UPAQ_CHECK(static_cast<bool>(is), "cannot read plan: " + path);
  std::string header;
  std::getline(is, header);
  UPAQ_CHECK(header == "upaq-plan-v1", "bad plan header in " + path);
  CompressionPlan plan;
  std::getline(is, plan.framework);
  std::string line;
  // Layer lines start after the header and framework lines. Every field is
  // range-checked here, so a malformed plan fails at load with its file and
  // line instead of pricing or packing garbage later.
  for (int lineno = 3; std::getline(is, line); ++lineno) {
    if (line.empty()) continue;
    const std::string where =
        path + ":" + std::to_string(lineno) + ": " + line + ": ";
    std::istringstream ls(line);
    std::string name, pattern, extra;
    LayerState st;
    int mode = 0, format = 0;
    ls >> name >> st.sparsity >> st.storage_bits >> st.compute_bits >> mode >>
        format >> st.quant_group >> pattern;
    UPAQ_CHECK(static_cast<bool>(ls), "bad plan line at " + where);
    UPAQ_CHECK(!(ls >> extra), "extra plan field at " + where + extra);
    // Written so NaN fails it.
    UPAQ_CHECK(st.sparsity >= 0.0 && st.sparsity <= 1.0,
               "plan sparsity outside [0, 1] at " + where);
    UPAQ_CHECK(st.storage_bits >= 1 && st.storage_bits <= 32 &&
                   st.compute_bits >= 1 && st.compute_bits <= 32,
               "plan bits outside [1, 32] at " + where);
    constexpr int kLastMode = static_cast<int>(hw::SparsityMode::kStructured);
    constexpr int kLastFormat =
        static_cast<int>(quant::StorageFormat::kPatternSparse);
    UPAQ_CHECK(mode >= 0 && mode <= kLastMode,
               "plan sparsity mode outside 0..3 at " + where);
    UPAQ_CHECK(format >= 0 && format <= kLastFormat,
               "plan storage format outside 0..2 at " + where);
    UPAQ_CHECK(st.quant_group >= 0, "negative plan quant_group at " + where);
    st.mode = static_cast<hw::SparsityMode>(mode);
    st.format = static_cast<quant::StorageFormat>(format);
    if (pattern != "-") st.pattern = pattern;
    UPAQ_CHECK(plan.layers.try_emplace(name, st).second,
               "duplicate plan layer at " + where);
  }
  return plan;
}

}  // namespace upaq::core
