// Layer and Parameter: the building blocks of the UPAQ NN framework.
//
// Layers own their parameters and implement explicit forward/backward
// passes (reverse-mode differentiation with cached activations). Parameters
// carry an optional pruning mask and a bookkeeping bitwidth so the
// compression stack can account model size without a separate registry.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/gemm_kernel.h"
#include "tensor/tensor.h"

namespace upaq::nn {

/// A trainable tensor with gradient storage, an optional pruning mask, and
/// quantization bookkeeping used by the compression-ratio accounting.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;
  /// Pruning mask: empty means dense; otherwise same shape as `value` with
  /// entries in {0,1}. `project()` keeps `value` consistent with the mask.
  Tensor mask;
  /// Storage bitwidth this parameter is *accounted* at (32 = uncompressed
  /// fp32). Quantization applies fake-quant to `value` and records the
  /// bitwidth here for size accounting.
  int quant_bits = 32;
  bool requires_grad = true;
  /// Mutation counter for derived-state caches (the conv pre-packed weight
  /// panels key on it). Every code path that rewrites `value` must call
  /// mark_mutated(); in this repo they all already funnel through project()
  /// or Module::load_state_dict, which do.
  std::uint64_t version = 0;

  Parameter() = default;
  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  void zero_grad() { grad.zero(); }

  /// Invalidates caches derived from `value` (pre-packed GEMM panels).
  void mark_mutated() { ++version; }

  /// Re-applies the pruning mask to the value (no-op when dense). Called
  /// after every optimizer step during mask-frozen fine-tuning — which makes
  /// it the natural cache-invalidation point for every weight mutation in
  /// the repo (optimizer steps, requantize, pruning application).
  void project() {
    mark_mutated();
    if (!mask.empty()) value.mul_(mask);
  }

  /// Fraction of zero entries in the mask (0 when dense).
  double sparsity() const {
    if (mask.empty() || mask.numel() == 0) return 0.0;
    return 1.0 - static_cast<double>(mask.count_nonzero()) /
                     static_cast<double>(mask.numel());
  }
};

/// Alternative execution backend a layer can host — e.g. the packed
/// integer-GEMM path in upaq::qnn. Engines are inference-only: layers that
/// support one (Conv2d, Linear) delegate eval-mode forward to it and keep
/// the float path for training, so gradients never flow through an engine.
class ForwardEngine {
 public:
  virtual ~ForwardEngine() = default;
  /// The layer's eval forward of x with `epi` applied to its output as it
  /// is stored (a conv's fused BN / residual / ReLU; empty for a Linear).
  virtual Tensor forward(const Tensor& x, const gemm::Epilogue& epi) = 0;
  virtual const char* engine_name() const = 0;
};

/// Kinds of layers the cost model and the compression driver dispatch on.
enum class LayerKind {
  kConv2d,
  kLinear,
  kBatchNorm,
  kRelu,
  kLeakyRelu,
  kMaxPool,
  kUpsample,
  kOther,
};

const char* layer_kind_name(LayerKind k);

/// Abstract differentiable layer. forward() caches whatever backward() needs;
/// backward() accumulates parameter gradients and returns the gradient with
/// respect to the input.
///
/// forward()/backward() are non-virtual profiled entry points: they emit a
/// prof span named after the layer (backward spans get a ".bwd" suffix) and
/// dispatch to the do_forward()/do_backward() overrides. Every call site —
/// Sequential chains and the detectors' hand-wired graphs alike — therefore
/// gets per-layer tracing without opting in; with tracing off the wrapper is
/// a single branch.
class Layer {
 public:
  virtual ~Layer() = default;

  Tensor forward(const Tensor& x);
  Tensor backward(const Tensor& grad_out);
  /// forward() over a tensor the caller owns and no longer needs: leaves
  /// exactly forward(x)'s result in `x`. In eval mode, layers with an
  /// in-place form (BatchNorm2d, ReLU) overwrite `x` without allocating;
  /// every other layer, and every layer in training mode, runs
  /// x = forward(x). Same prof span as forward().
  void forward_inplace(Tensor& x);
  virtual LayerKind kind() const = 0;

  /// Trainable parameters (may be empty for stateless layers).
  virtual std::vector<Parameter*> parameters() { return {}; }
  std::vector<const Parameter*> parameters() const {
    std::vector<const Parameter*> out;
    for (auto* p : const_cast<Layer*>(this)->parameters()) out.push_back(p);
    return out;
  }

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  bool training() const { return training_; }
  virtual void set_training(bool t) { training_ = t; }

  /// Attaches (or with nullptr detaches) an inference engine. Only layer
  /// kinds that consult engine() in forward honour it; attaching to other
  /// layers is harmless and ignored.
  void set_engine(std::unique_ptr<ForwardEngine> engine) {
    engine_ = std::move(engine);
  }
  ForwardEngine* engine() const { return engine_.get(); }

  /// Detaches and returns the engine without destroying it, so callers can
  /// park a packed engine, run the float path, and re-attach — an A/B flip
  /// that costs two pointer moves instead of a re-pack.
  std::unique_ptr<ForwardEngine> release_engine() {
    return std::move(engine_);
  }

 protected:
  virtual Tensor do_forward(const Tensor& x) = 0;
  virtual Tensor do_backward(const Tensor& grad_out) = 0;
  /// Eval-mode in-place hook: overwrite `x` with do_forward(x) and return
  /// true, or return false (leaving `x` untouched) to take the copying path.
  virtual bool do_forward_inplace(Tensor& x) {
    (void)x;
    return false;
  }
  /// The name forward spans carry: the layer name, else its kind.
  std::string span_name() const;

  std::string name_;
  bool training_ = true;
  std::unique_ptr<ForwardEngine> engine_;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace upaq::nn
