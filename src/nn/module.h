// Module: a named collection of layers with state-dict support, plus
// Sequential, a module that chains layers with automatic backward wiring.
//
// Detectors derive from Module, register their layers, and hand-write the
// forward/backward wiring between registered pieces (residual adds, channel
// concats); Sequential covers the common linear chains.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nn/conv.h"
#include "nn/layers.h"

namespace upaq::nn {

class Module {
 public:
  virtual ~Module() = default;

  /// Registers a layer and returns a typed non-owning handle.
  template <typename L, typename... Args>
  L* add(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L* raw = layer.get();
    layers_.push_back(std::move(layer));
    return raw;
  }

  /// All layers in registration order.
  const std::vector<LayerPtr>& layers() const { return layers_; }

  /// All trainable parameters of all registered layers.
  std::vector<Parameter*> parameters();
  std::vector<const Parameter*> parameters() const;

  /// Total trainable scalar count.
  std::int64_t parameter_count() const;

  void zero_grad();
  void set_training(bool training);

  /// Finds a registered layer by name (nullptr when absent).
  Layer* find_layer(const std::string& name);

  /// Parameter snapshot as a name->tensor map (weights only, plus batch-norm
  /// running statistics so eval-mode inference round-trips exactly).
  std::map<std::string, Tensor> state_dict() const;
  /// Restores a snapshot produced by state_dict(); throws on missing keys or
  /// shape mismatches.
  void load_state_dict(const std::map<std::string, Tensor>& state);

 protected:
  std::vector<LayerPtr> layers_;
};

/// A chain of layers; forward feeds each output to the next layer, backward
/// runs the chain in reverse. forward never mutates its input: only the
/// chain's own intermediates are overwritten in place (eval BN and ReLU).
/// A Conv2d followed by a BatchNorm2d and/or a Relu runs them as its
/// epilogue (Conv2d::forward(x, epi)).
class Sequential {
 public:
  Sequential() = default;

  /// Appends an already-registered layer (non-owning; the Module owns it).
  Sequential& then(Layer* layer) {
    chain_.push_back(layer);
    return *this;
  }

  Tensor forward(const Tensor& x) const;
  Tensor backward(const Tensor& grad_out) const;

  const std::vector<Layer*>& chain() const { return chain_; }

 private:
  std::vector<Layer*> chain_;
};

}  // namespace upaq::nn
