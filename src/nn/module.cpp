#include "nn/module.h"

namespace upaq::nn {

std::vector<Parameter*> Module::parameters() {
  std::vector<Parameter*> out;
  for (auto& l : layers_)
    for (auto* p : l->parameters()) out.push_back(p);
  return out;
}

std::vector<const Parameter*> Module::parameters() const {
  std::vector<const Parameter*> out;
  for (const auto& l : layers_)
    for (const auto* p : l->parameters()) out.push_back(p);
  return out;
}

std::int64_t Module::parameter_count() const {
  std::int64_t n = 0;
  for (const auto* p : parameters()) n += p->value.numel();
  return n;
}

void Module::zero_grad() {
  for (auto* p : parameters()) p->zero_grad();
}

void Module::set_training(bool training) {
  for (auto& l : layers_) l->set_training(training);
}

Layer* Module::find_layer(const std::string& name) {
  for (auto& l : layers_)
    if (l->name() == name) return l.get();
  return nullptr;
}

std::map<std::string, Tensor> Module::state_dict() const {
  std::map<std::string, Tensor> state;
  for (const auto& l : layers_) {
    for (const auto* p : l->parameters()) state.emplace(p->name, p->value);
    if (const auto* bn = dynamic_cast<const BatchNorm2d*>(l.get())) {
      auto* mut = const_cast<BatchNorm2d*>(bn);
      state.emplace(l->name() + ".running_mean", mut->running_mean());
      state.emplace(l->name() + ".running_var", mut->running_var());
    }
  }
  return state;
}

void Module::load_state_dict(const std::map<std::string, Tensor>& state) {
  for (auto& l : layers_) {
    for (auto* p : l->parameters()) {
      auto it = state.find(p->name);
      UPAQ_CHECK(it != state.end(), "state_dict missing key: " + p->name);
      UPAQ_CHECK(shape_equal(it->second.shape(), p->value.shape()),
                 "state_dict shape mismatch for " + p->name);
      p->value = it->second;
      p->grad = Tensor(p->value.shape());
      p->mark_mutated();
    }
    if (auto* bn = dynamic_cast<BatchNorm2d*>(l.get())) {
      auto mean_it = state.find(l->name() + ".running_mean");
      auto var_it = state.find(l->name() + ".running_var");
      UPAQ_CHECK(mean_it != state.end() && var_it != state.end(),
                 "state_dict missing running stats for " + l->name());
      bn->running_mean() = mean_it->second;
      bn->running_var() = var_it->second;
    }
  }
}

Tensor Sequential::forward(const Tensor& x) const {
  if (chain_.empty()) return x;
  // The first layer reads the caller's tensor; every later one runs over the
  // chain's own intermediate, so eval-mode BN and ReLU overwrite it in place.
  // A conv followed by a BN and/or a ReLU runs them as its epilogue.
  Tensor cur;
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    const Tensor& in = i == 0 ? x : cur;
    if (auto* conv = dynamic_cast<Conv2d*>(chain_[i])) {
      ConvEpilogue epi;
      const auto next = [&] {
        return i + 1 < chain_.size() ? chain_[i + 1] : nullptr;
      };
      if ((epi.bn = dynamic_cast<BatchNorm2d*>(next())) != nullptr) ++i;
      if ((epi.relu = dynamic_cast<Relu*>(next())) != nullptr) ++i;
      cur = conv->forward(in, epi);
    } else if (i == 0) {
      cur = chain_[i]->forward(x);
    } else {
      chain_[i]->forward_inplace(cur);
    }
  }
  return cur;
}

Tensor Sequential::backward(const Tensor& grad_out) const {
  Tensor cur = grad_out;
  for (auto it = chain_.rbegin(); it != chain_.rend(); ++it)
    cur = (*it)->backward(cur);
  return cur;
}

}  // namespace upaq::nn
