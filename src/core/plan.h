// Compression plans: the per-layer record every framework (UPAQ and the
// baselines) produces, plus the shared machinery to (a) account model size,
// (b) rewrite a hardware cost profile with the plan, and (c) re-apply
// quantization after fine-tuning.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "hw/cost.h"
#include "nn/module.h"
#include "quant/quantize.h"

namespace upaq::core {

/// Per-layer compression state. Layers absent from a plan stay dense fp32.
///
/// storage_bits and compute_bits are distinct on purpose: fake-quant QAT
/// frameworks (Ps&Qs, CLIP-Q) shrink the checkpoint but still execute at
/// full precision, whereas PTQ/TensorRT-style deployments (LiDAR-PTQ, UPAQ)
/// actually run narrow arithmetic — which is why the paper's Table 2 shows
/// compression without speedup for the former.
struct LayerState {
  double sparsity = 0.0;  ///< fraction of pruned weights
  int storage_bits = 32;  ///< bitwidth of stored kept weights
  int compute_bits = 32;  ///< bitwidth the device executes at
  hw::SparsityMode mode = hw::SparsityMode::kDense;
  quant::StorageFormat format = quant::StorageFormat::kDense;
  /// Quantization granularity: 0 = one scale per tensor, otherwise one scale
  /// per consecutive chunk of this many weights (UPAQ: the kxk kernel size).
  std::int64_t quant_group = 0;
  std::string pattern;  ///< pattern key for reporting (may be empty)
};

struct CompressionPlan {
  std::string framework;  ///< "UPAQ (HCK)", "Ps&Qs", ...
  std::map<std::string, LayerState> layers;  ///< keyed by layer name
};

struct SizeBreakdown {
  std::int64_t base_bits = 0;        ///< dense fp32 model
  std::int64_t compressed_bits = 0;  ///< under the plan's storage formats
  double ratio() const {
    return compressed_bits > 0
               ? static_cast<double>(base_bits) / static_cast<double>(compressed_bits)
               : 1.0;
  }
};

/// Sizes a module under a plan. Weight parameters of planned layers use the
/// plan's format/bits with the *actual* non-zero count of the tensor; all
/// other parameters (biases, batch-norm) are charged dense fp32.
SizeBreakdown model_size(const nn::Module& model, const CompressionPlan& plan);

/// Rewrites a cost profile with the plan's sparsity/bits/mode. Layers are
/// matched by exact name first; unmatched layers fall back to a plan entry
/// in the same dotted prefix with the same (digit-stripped) component stem —
/// this is how a plan computed on the scaled model maps onto the full-width
/// spec, whose extra convs belong to the same Algorithm-1 groups.
std::vector<hw::LayerProfile> apply_plan(std::vector<hw::LayerProfile> profile,
                                         const CompressionPlan& plan);

/// Re-applies fake quantization to every planned layer at its planned
/// bitwidth (keeping masks intact). Called after fine-tuning, which moves
/// weights off the quantization grid.
void requantize(nn::Module& model, const CompressionPlan& plan);

/// Looks up the plan state for a layer name: exact match first, then the
/// prefix/stem fallback apply_plan uses (same Algorithm-1 group replication
/// rule). Null when the layer is unplanned (stays dense fp32).
const LayerState* find_state(const CompressionPlan& plan,
                             const std::string& layer_name);

/// Finds the weight parameter of a named prunable layer; null when absent.
nn::Parameter* find_weight(nn::Module& model, const std::string& layer_name);

/// Restores the pruning masks implied by a plan: every planned layer whose
/// sparsity is non-zero gets a mask derived from its current zero pattern.
/// Used when reloading a compressed checkpoint from disk.
void rebuild_masks(nn::Module& model, const CompressionPlan& plan);

/// Plain-text (de)serialization of a plan — one layer per line. Used by the
/// experiment cache so figure benches can reuse Table-2 results.
void save_plan(const std::string& path, const CompressionPlan& plan);
/// Throws std::invalid_argument naming the file and line on a malformed
/// layer line: a missing or extra field, sparsity outside [0, 1] (NaN
/// included), bits outside [1, 32], a sparsity mode outside 0..3, a storage
/// format outside 0..2, a negative quant_group, or a repeated layer name.
CompressionPlan load_plan(const std::string& path);

}  // namespace upaq::core
