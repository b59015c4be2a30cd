#include "qnn/qlayers.h"

#include "parallel/thread_pool.h"
#include "prof/prof.h"
#include "tensor/gemm_kernel.h"
#include "tensor/workspace.h"

namespace upaq::qnn {

namespace {

/// Packs `w` under `spec` as a (rows, k) GEMM: once at lowering and once
/// per Parameter::version bump after it.
PackedGemm build_gemm(const nn::Parameter& w, std::int64_t rows,
                      std::int64_t k, const LowerSpec& spec) {
  prof::add(prof::Counter::kPanelBuilds, 1);
  return PackedGemm(
      pack(w.value, spec.weight_bits, spec.group_size, spec.format, w.mask),
      rows, k);
}

}  // namespace

PackedConv2d::PackedConv2d(const nn::Conv2d& conv, const LowerSpec& spec)
    : in_c_(conv.in_channels()),
      out_c_(conv.out_channels()),
      kernel_(conv.kernel()),
      stride_(conv.stride()),
      pad_(conv.pad()),
      weight_(&conv.weight()),
      spec_(spec),
      gemm_(build_gemm(conv.weight(), conv.out_channels(),
                       conv.in_channels() * conv.kernel() * conv.kernel(),
                       spec)),
      packed_version_(conv.weight().version),
      act_bits_(spec.act_bits) {
  if (const nn::Parameter* b = conv.bias()) bias_ = b->value;
}

void PackedConv2d::refresh() {
  gemm_ = build_gemm(*weight_, out_c_, in_c_ * kernel_ * kernel_, spec_);
  packed_version_ = weight_->version;
}

Tensor PackedConv2d::forward(const Tensor& x, const gemm::Epilogue& epi) {
  prof::Span span(engine_name());
  // Staleness check runs serially, before the batch fan-out: a weight
  // mutated after lowering repacks exactly once.
  if (weight_->version != packed_version_) refresh();
  UPAQ_CHECK(x.rank() == 4 && x.dim(1) == in_c_,
             "PackedConv2d expects (N," + std::to_string(in_c_) + ",H,W)");
  const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const gemm::PlaneLayout pl =
      gemm::plane_layout(in_c_, h, w, kernel_, stride_, pad_);
  const std::int64_t oh = pl.oh, ow = pl.ow;
  Tensor out({n, out_c_, oh, ow});
  const float* bias = bias_.empty() ? nullptr : bias_.data();
  workspace::Scope ws;
  std::int32_t* row_off = ws.i32(in_c_ * kernel_ * kernel_);
  gemm::plane_row_offsets(pl, row_off);
  // Batch items write disjoint output slices (same decomposition as the
  // float Conv2d); the integer GEMM inside is exact, so the whole path is
  // bitwise deterministic at any thread count. The input map is quantized
  // once, straight into zero-padded planes where every conv tap is a
  // constant byte offset (gemm::PlaneLayout), so the GEMM reads its taps in
  // place: no im2col matrix. Its scale and codes equal quantizing the im2col
  // matrix (same value multiset plus padding zeros). The GEMM runs over the
  // padded-width grid (bias fused into its initial fill); the epilogue then
  // reads each row's ow valid columns and stores them into the output. When
  // the grid is the output the GEMM writes it directly and the epilogue, if
  // any, runs in place.
  parallel::parallel_for(0, n, 1, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      workspace::Scope bws;
      const float* xs = x.data() + b * in_c_ * h * w;
      float* ys = out.data() + b * out_c_ * oh * ow;
      std::int8_t* planes = bws.i8(pl.bytes);
      float sx;
      {
        prof::Span qspan("qnn.quant_acts");
        sx = quantize_planes_into(xs, pl, act_bits_, planes);
      }
      const bool direct = pl.wq == ow;
      float* grid = direct ? ys : bws.floats(out_c_ * pl.n);
      {
        prof::Span gspan("qnn.qgemm");
        gemm_.run(planes, row_off, sx, pl.n, oh * ow, bias, grid);
      }
      if (!direct || !epi.empty()) {
        prof::Span espan("nn.epilogue");
        gemm::Epilogue eb = epi;
        if (eb.residual != nullptr) eb.residual += b * out_c_ * oh * ow;
        gemm::f32_epilogue(grid, pl.wq, out_c_, oh, ow, eb, ys);
      }
    }
  });
  return out;
}

PackedLinear::PackedLinear(const nn::Linear& linear, const LowerSpec& spec)
    : in_f_(linear.in_features()),
      out_f_(linear.out_features()),
      weight_(&linear.weight()),
      spec_(spec),
      gemm_(build_gemm(linear.weight(), linear.out_features(),
                       linear.in_features(), spec)),
      packed_version_(linear.weight().version),
      act_bits_(spec.act_bits) {
  if (const nn::Parameter* b = linear.bias()) bias_ = b->value;
}

void PackedLinear::refresh() {
  gemm_ = build_gemm(*weight_, out_f_, in_f_, spec_);
  packed_version_ = weight_->version;
}

Tensor PackedLinear::forward(const Tensor& x, const gemm::Epilogue& epi) {
  prof::Span span(engine_name());
  UPAQ_CHECK(epi.empty(), "PackedLinear has no epilogue");
  if (weight_->version != packed_version_) refresh();
  UPAQ_CHECK(x.rank() == 2 && x.dim(1) == in_f_,
             "PackedLinear expects (N," + std::to_string(in_f_) + ")");
  Tensor out({x.dim(0), out_f_});
  workspace::Scope ws;
  std::int8_t* qcodes = ws.i8(x.numel());
  const float sx = quantize_acts_into(x.data(), x.numel(), act_bits_, qcodes);
  gemm_.run_t(qcodes, sx, x.dim(0), bias_.empty() ? nullptr : bias_.data(),
              out.data());
  return out;
}

bool lower_layer(nn::Layer& layer, const LowerSpec& spec) {
  if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
    conv->set_engine(std::make_unique<PackedConv2d>(*conv, spec));
    return true;
  }
  if (auto* linear = dynamic_cast<nn::Linear*>(&layer)) {
    linear->set_engine(std::make_unique<PackedLinear>(*linear, spec));
    return true;
  }
  return false;
}

}  // namespace upaq::qnn
