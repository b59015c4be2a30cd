#include "nn/layer.h"

#include <optional>

#include "prof/prof.h"

namespace upaq::nn {

std::string Layer::span_name() const {
  return name_.empty() ? std::string(layer_kind_name(kind())) : name_;
}

Tensor Layer::forward(const Tensor& x) {
  if (!prof::enabled()) return do_forward(x);
  prof::Span span(span_name(), shape_to_string(x.shape()));
  return do_forward(x);
}

void Layer::forward_inplace(Tensor& x) {
  std::optional<prof::Span> span;
  if (prof::enabled()) span.emplace(span_name(), shape_to_string(x.shape()));
  if (training_ || !do_forward_inplace(x)) x = do_forward(x);
}

Tensor Layer::backward(const Tensor& grad_out) {
  if (!prof::enabled()) return do_backward(grad_out);
  prof::Span span(span_name() + ".bwd", shape_to_string(grad_out.shape()));
  return do_backward(grad_out);
}

}  // namespace upaq::nn
