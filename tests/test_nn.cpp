// NN framework tests: analytic backward passes are validated against finite
// differences for every layer, plus module/state-dict behaviour, mask
// semantics, the concat/split helpers, the conv epilogue (BN, residual add
// and ReLU fused into the conv's store, float and packed: bitwise equal to
// layer-by-layer forward; training untouched) and the vectorised eval BN
// (bitwise equal to the scalar expression).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>

#include "nn/module.h"
#include "parallel/thread_pool.h"
#include "prof/prof.h"
#include "qnn/qlayers.h"
#include "test_util.h"

namespace upaq {
namespace {

using testing::gradcheck_layer;

TEST(Conv2d, ForwardKnownValues) {
  Rng rng(1);
  nn::Conv2d conv(1, 1, 3, 1, 1, false, rng, "c");
  conv.weight().value.fill(1.0f);
  Tensor x = Tensor::ones({1, 1, 3, 3});
  Tensor y = conv.forward(x);
  // Centre sees all 9 ones; corners see 4.
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 9.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 4.0f);
}

TEST(Conv2d, StrideHalvesResolution) {
  Rng rng(2);
  nn::Conv2d conv(2, 4, 3, 2, 1, false, rng, "c");
  Tensor x = Tensor::uniform({1, 2, 8, 8}, rng);
  Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 4, 4, 4}));
  EXPECT_EQ(conv.last_out_h(), 4);
}

TEST(Conv2d, BiasIsAdded) {
  Rng rng(3);
  nn::Conv2d conv(1, 2, 1, 1, 0, true, rng, "c");
  conv.weight().value.fill(0.0f);
  conv.bias()->value[0] = 1.5f;
  conv.bias()->value[1] = -2.0f;
  Tensor y = conv.forward(Tensor::ones({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 1, 1), -2.0f);
}

TEST(Conv2d, GradCheck) {
  Rng rng(4);
  nn::Conv2d conv(2, 3, 3, 1, 1, true, rng, "c");
  gradcheck_layer(conv, Tensor::uniform({2, 2, 5, 5}, rng), rng);
}

TEST(Conv2d, GradCheckStride2OneByOne) {
  Rng rng(5);
  nn::Conv2d conv(3, 2, 1, 1, 0, false, rng, "c");
  gradcheck_layer(conv, Tensor::uniform({1, 3, 4, 4}, rng), rng);
  nn::Conv2d strided(2, 2, 3, 2, 1, false, rng, "s");
  gradcheck_layer(strided, Tensor::uniform({1, 2, 6, 6}, rng), rng);
}

// Finite-difference gradient checks over the stride/pad/bias grid at a tight
// 1e-3 tolerance. The probe loss is linear in every individual coordinate,
// so the central difference is exact up to float rounding and the tolerance
// genuinely pins the analytic backward.
TEST(Conv2d, GradCheckStride2Pad1WithBias) {
  Rng rng(40);
  nn::Conv2d conv(2, 3, 3, 2, 1, true, rng, "c");
  gradcheck_layer(conv, Tensor::uniform({2, 2, 7, 7}, rng), rng, 1e-3);
}

TEST(Conv2d, GradCheckStride2Pad1NoBias) {
  Rng rng(41);
  nn::Conv2d conv(2, 3, 3, 2, 1, false, rng, "c");
  gradcheck_layer(conv, Tensor::uniform({2, 2, 7, 7}, rng), rng, 1e-3);
}

TEST(Conv2d, GradCheckStride3Pad2WithBias) {
  Rng rng(42);
  nn::Conv2d conv(3, 2, 3, 3, 2, true, rng, "c");
  gradcheck_layer(conv, Tensor::uniform({1, 3, 8, 8}, rng), rng, 1e-3);
}

TEST(Conv2d, GradCheckStride1Pad2NoBias) {
  Rng rng(43);
  nn::Conv2d conv(2, 2, 3, 1, 2, false, rng, "c");
  gradcheck_layer(conv, Tensor::uniform({2, 2, 5, 5}, rng), rng, 1e-3);
}

TEST(Conv2d, BatchedForwardMatchesPerItemForward) {
  // Regression for the batch-offset im2col view: lowering item b of the
  // (N,C,H,W) input directly must reproduce the per-item result exactly.
  Rng rng(44);
  nn::Conv2d conv(2, 3, 3, 2, 1, true, rng, "c");
  const Tensor x = Tensor::uniform({3, 2, 6, 6}, rng);
  const Tensor y = conv.forward(x);
  const std::int64_t in_count = x.numel() / x.dim(0);
  const std::int64_t out_count = y.numel() / y.dim(0);
  for (std::int64_t b = 0; b < x.dim(0); ++b) {
    Tensor xb({1, x.dim(1), x.dim(2), x.dim(3)});
    std::copy(x.data() + b * in_count, x.data() + (b + 1) * in_count,
              xb.data());
    const Tensor yb = conv.forward(xb);
    for (std::int64_t i = 0; i < out_count; ++i)
      ASSERT_EQ(yb[i], y[b * out_count + i]) << "batch " << b << " elem " << i;
  }
}

TEST(Conv2d, MaskedGradientsStayMasked) {
  Rng rng(6);
  nn::Conv2d conv(2, 2, 3, 1, 1, false, rng, "c");
  Tensor mask(conv.weight().value.shape());
  mask[0] = 1.0f;  // keep exactly one weight
  conv.weight().mask = mask;
  conv.weight().project();
  Tensor x = Tensor::uniform({1, 2, 4, 4}, rng);
  Tensor y = conv.forward(x);
  conv.backward(Tensor::ones(y.shape()));
  for (std::int64_t i = 1; i < conv.weight().grad.numel(); ++i)
    EXPECT_EQ(conv.weight().grad[i], 0.0f) << i;
}

TEST(Conv2d, InputChannelMismatchThrows) {
  Rng rng(7);
  nn::Conv2d conv(4, 2, 3, 1, 1, false, rng, "c");
  EXPECT_THROW(conv.forward(Tensor::ones({1, 3, 8, 8})), std::invalid_argument);
}

TEST(BatchNorm2d, NormalizesTrainingBatch) {
  Rng rng(8);
  nn::BatchNorm2d bn(3, rng, "bn");
  bn.set_training(true);
  Tensor x = Tensor::uniform({2, 3, 4, 4}, rng, -4.0f, 8.0f);
  Tensor y = bn.forward(x);
  // Each channel of the output should be ~zero-mean unit-var.
  for (int c = 0; c < 3; ++c) {
    double sum = 0.0, sq = 0.0;
    for (int n = 0; n < 2; ++n)
      for (int i = 0; i < 16; ++i) {
        const float v = y.at(n, c, i / 4, i % 4);
        sum += v;
        sq += static_cast<double>(v) * v;
      }
    const double mean = sum / 32.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(sq / 32.0 - mean * mean, 1.0, 1e-3);
  }
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  Rng rng(9);
  nn::BatchNorm2d bn(2, rng, "bn");
  bn.set_training(true);
  // Feed several batches so running stats converge toward the data stats.
  for (int i = 0; i < 60; ++i)
    bn.forward(Tensor::uniform({2, 2, 4, 4}, rng, 2.0f, 6.0f));
  bn.set_training(false);
  Tensor y = bn.forward(Tensor::full({1, 2, 2, 2}, 4.0f));
  // Input ~= running mean (~4), so output should be near zero.
  EXPECT_NEAR(y.abs_max(), 0.0f, 0.35f);
}

TEST(BatchNorm2d, GradCheck) {
  Rng rng(10);
  nn::BatchNorm2d bn(2, rng, "bn");
  gradcheck_layer(bn, Tensor::uniform({2, 2, 3, 3}, rng, -2.0f, 2.0f), rng,
                  5e-2);
}

TEST(BatchNorm2d, EvalMatchesScalarReferenceBitwise) {
  // The eval path (forward, and the in-place BN then ReLU) is a vector
  // loop in the kernel TU (gemm::f32_epilogue). It must equal the scalar per-element
  // expression g * (v - mean) * inv_std + beta, then Relu::apply, bit for
  // bit: no FMA contraction, the same rounding order, -0.0 and the leaky
  // slope kept. Plane sizes straddle the vector widths (1, 15, 17, 49, 63).
  Rng rng(12);
  const std::int64_t c = 5;
  for (const auto& hw : {std::pair<int, int>{1, 1}, {3, 5}, {1, 17}, {7, 7},
                         {9, 7}}) {
    for (const float slope : {0.0f, 0.1f}) {
      nn::BatchNorm2d bn(c, rng, "bn");
      for (std::int64_t ch = 0; ch < c; ++ch) {
        bn.gamma().value[ch] = rng.uniform(-2.0f, 2.0f);
        bn.beta().value[ch] = rng.uniform(-1.0f, 1.0f);
        bn.running_mean()[ch] = rng.uniform(-0.5f, 0.5f);
        bn.running_var()[ch] = rng.uniform(0.01f, 3.0f);
      }
      // Channel 0 maps every input to beta = -0.0 (gamma 0), exercising
      // the sign of zero through the ReLU select.
      bn.gamma().value[0] = 0.0f;
      bn.beta().value[0] = -0.0f;
      bn.set_training(false);
      nn::Relu relu("relu", slope);
      relu.set_training(false);

      Tensor x = Tensor::uniform({2, c, hw.first, hw.second}, rng, -3.0f, 3.0f);
      for (std::int64_t i = 0; i < x.numel(); i += 4) x[i] = -0.0f;

      // The pre-vectorisation scalar expression, verbatim.
      Tensor want_bn(x.shape()), want_relu(x.shape());
      const std::int64_t plane = hw.first * hw.second;
      for (std::int64_t i = 0; i < x.numel(); ++i) {
        const std::int64_t ch = (i / plane) % c;
        const float inv_std =
            1.0f / std::sqrt(bn.running_var()[ch] + 1e-5f);
        const float g = bn.gamma().value[ch], bta = bn.beta().value[ch];
        const float mean = bn.running_mean()[ch];
        const float v = g * (x[i] - mean) * inv_std + bta;
        want_bn[i] = v;
        want_relu[i] = nn::Relu::apply(v, slope);
      }

      const Tensor got_bn = bn.forward(x);
      Tensor got_relu = x;
      bn.forward_inplace(got_relu);
      relu.forward_inplace(got_relu);
      for (std::int64_t i = 0; i < x.numel(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got_bn[i]),
                  std::bit_cast<std::uint32_t>(want_bn[i]))
            << "bn forward, plane " << plane << ", index " << i;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got_relu[i]),
                  std::bit_cast<std::uint32_t>(want_relu[i]))
            << "bn+relu, slope " << slope << ", plane " << plane
            << ", index " << i;
      }
    }
  }
}

TEST(Relu, ForwardBackward) {
  Rng rng(11);
  nn::Relu relu("r");
  Tensor x({1, 1, 1, 4});
  x[0] = -2.0f;
  x[1] = -0.5f;
  x[2] = 0.5f;
  x[3] = 2.0f;
  Tensor y = relu.forward(x);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 0.5f);
  Tensor g = relu.backward(Tensor::ones(y.shape()));
  EXPECT_EQ(g[0], 0.0f);
  EXPECT_EQ(g[3], 1.0f);
}

TEST(Relu, LeakyGradCheck) {
  Rng rng(12);
  nn::Relu leaky("l", 0.1f);
  EXPECT_EQ(leaky.kind(), nn::LayerKind::kLeakyRelu);
  gradcheck_layer(leaky, Tensor::uniform({1, 2, 3, 3}, rng, -1.0f, 1.0f), rng);
}

TEST(MaxPool2d, ForwardPicksMaxAndBackwardRoutes) {
  nn::MaxPool2d pool(2, "p");
  Tensor x({1, 1, 2, 2});
  x[0] = 1.0f;
  x[1] = 5.0f;
  x[2] = 2.0f;
  x[3] = 3.0f;
  Tensor y = pool.forward(x);
  EXPECT_EQ(y.numel(), 1);
  EXPECT_EQ(y[0], 5.0f);
  Tensor g = pool.backward(Tensor::full({1, 1, 1, 1}, 2.0f));
  EXPECT_EQ(g[1], 2.0f);
  EXPECT_EQ(g[0], 0.0f);
}

TEST(MaxPool2d, GradCheck) {
  Rng rng(13);
  nn::MaxPool2d pool(2, "p");
  // Max-pool is non-differentiable at ties; use well-separated values so the
  // finite-difference probe cannot flip the argmax.
  Tensor x = Tensor::arange(32).reshape({1, 2, 4, 4});
  std::shuffle(x.data(), x.data() + 32, rng.engine());
  x.scale_(0.5f);
  gradcheck_layer(pool, x, rng);
}

TEST(Upsample, NearestForwardAndAdjointBackward) {
  Rng rng(14);
  nn::Upsample up(2, "u");
  Tensor x = Tensor::uniform({1, 1, 2, 2}, rng);
  Tensor y = up.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 4, 4}));
  EXPECT_EQ(y.at(0, 0, 0, 0), x.at(0, 0, 0, 0));
  EXPECT_EQ(y.at(0, 0, 1, 1), x.at(0, 0, 0, 0));
  Tensor g = up.backward(Tensor::ones(y.shape()));
  EXPECT_EQ(g.at(0, 0, 0, 0), 4.0f);  // each input feeds 4 outputs
}

TEST(Upsample, GradCheck) {
  Rng rng(15);
  nn::Upsample up(3, "u");
  gradcheck_layer(up, Tensor::uniform({1, 2, 2, 2}, rng), rng);
}

TEST(Linear, ForwardKnownValues) {
  Rng rng(16);
  nn::Linear lin(2, 2, true, rng, "l");
  lin.weight().value = Tensor({2, 2}, std::vector<float>{1, 2, 3, 4});
  lin.bias()->value = Tensor({2}, std::vector<float>{10, 20});
  Tensor x({1, 2}, std::vector<float>{1, 1});
  Tensor y = lin.forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 13.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 27.0f);
}

TEST(Linear, GradCheck) {
  Rng rng(17);
  nn::Linear lin(4, 3, true, rng, "l");
  gradcheck_layer(lin, Tensor::uniform({3, 4}, rng), rng);
}

TEST(Linear, GradCheckTightWithBias) {
  Rng rng(45);
  nn::Linear lin(6, 5, true, rng, "l");
  gradcheck_layer(lin, Tensor::uniform({4, 6}, rng), rng, 1e-3);
}

TEST(Linear, GradCheckTightNoBias) {
  Rng rng(46);
  nn::Linear lin(5, 7, false, rng, "l");
  gradcheck_layer(lin, Tensor::uniform({3, 5}, rng), rng, 1e-3);
}

TEST(ConcatSplit, RoundTrip) {
  Rng rng(18);
  Tensor a = Tensor::uniform({2, 2, 3, 3}, rng);
  Tensor b = Tensor::uniform({2, 4, 3, 3}, rng);
  Tensor cat = nn::concat_channels({a, b});
  EXPECT_EQ(cat.shape(), (Shape{2, 6, 3, 3}));
  auto parts = nn::split_channels(cat, {2, 4});
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(parts[0][i], a[i]);
  for (std::int64_t i = 0; i < b.numel(); ++i) EXPECT_EQ(parts[1][i], b[i]);
}

TEST(ConcatSplit, ValidatesShapes) {
  Tensor a({1, 2, 3, 3});
  Tensor b({1, 2, 4, 4});
  EXPECT_THROW(nn::concat_channels({a, b}), std::invalid_argument);
  EXPECT_THROW(nn::split_channels(a, {3}), std::invalid_argument);
}

TEST(Sequential, ChainsForwardAndBackward) {
  Rng rng(19);
  nn::Module m;
  auto* conv = m.add<nn::Conv2d>(1, 2, 3, 1, 1, false, rng, "conv");
  auto* relu = m.add<nn::Relu>("relu");
  nn::Sequential seq;
  seq.then(conv).then(relu);
  Tensor x = Tensor::uniform({1, 1, 4, 4}, rng);
  Tensor y = seq.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 2, 4, 4}));
  EXPECT_GE(y.min(), 0.0f);
  Tensor g = seq.backward(Tensor::ones(y.shape()));
  EXPECT_EQ(g.shape(), x.shape());
  EXPECT_GT(conv->weight().grad.abs_max(), 0.0f);
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::int64_t i = 0; i < a.numel(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]))
        << what << " diverges at flat index " << i;
}

/// A chain with every shape Sequential::forward treats specially: a
/// BN + ReLU pair (fused in eval), BN + LeakyReLU, a lone ReLU after a conv,
/// a lone BN, and a non-in-place layer (Upsample) in the middle. BN
/// statistics are randomized so outputs straddle zero.
struct EpilogueNet {
  nn::Module m;
  nn::Sequential seq;

  explicit EpilogueNet(std::uint64_t seed) {
    Rng rng(seed);
    auto bn = [&](std::int64_t c, const char* name) {
      auto* b = m.add<nn::BatchNorm2d>(c, rng, name);
      b->gamma().value = Tensor::uniform({c}, rng, 0.5f, 1.5f);
      b->beta().value = Tensor::uniform({c}, rng, -0.5f, 0.5f);
      b->running_mean() = Tensor::uniform({c}, rng, -0.3f, 0.3f);
      b->running_var() = Tensor::uniform({c}, rng, 0.5f, 2.0f);
      return b;
    };
    seq.then(m.add<nn::Conv2d>(3, 4, 3, 1, 1, false, rng, "c0"))
        .then(bn(4, "bn0"))
        .then(m.add<nn::Relu>("r0"))
        .then(m.add<nn::Conv2d>(4, 5, 3, 2, 1, true, rng, "c1"))
        .then(bn(5, "bn1"))
        .then(m.add<nn::Relu>("r1", 0.1f))
        .then(m.add<nn::Upsample>(2, "up"))
        .then(m.add<nn::Conv2d>(5, 6, 1, 1, 0, false, rng, "c2"))
        .then(m.add<nn::Relu>("r2"))
        .then(m.add<nn::Conv2d>(6, 6, 3, 1, 1, false, rng, "c3"))
        .then(bn(6, "bn3"));
  }
};

TEST(Sequential, EvalEpilogueMatchesLayerByLayerAndKeepsInput) {
  EpilogueNet net(31);
  net.m.set_training(false);
  Rng rng(32);
  const Tensor x = Tensor::uniform({2, 3, 10, 12}, rng, -2.0f, 2.0f);
  const Tensor x_before = x;
  Tensor want = x;
  for (auto* l : net.seq.chain()) want = l->forward(want);
  const Tensor got = net.seq.forward(x);
  expect_bitwise_equal(got, want, "eval Sequential vs layer-by-layer");
  expect_bitwise_equal(x, x_before, "caller's input");

  // Traced: each conv runs the BN and ReLU after it as its epilogue, under
  // the conv's span with a nested "nn.epilogue"; the fused BN and ReLU
  // layers emit no span of their own. Every other layer keeps its span.
  prof::set_enabled(true);
  prof::reset();
  const Tensor traced = net.seq.forward(x);
  std::set<std::string> names;
  for (const auto& e : prof::snapshot_events()) names.insert(e.name);
  prof::set_enabled(false);
  prof::reset();
  expect_bitwise_equal(traced, want, "traced eval Sequential");
  for (const char* n : {"c0", "c1", "up", "c2", "c3", "nn.epilogue"})
    EXPECT_TRUE(names.count(n)) << "missing span " << n;
  for (const char* n : {"bn0", "r0", "bn1", "r1", "r2", "bn3"})
    EXPECT_FALSE(names.count(n)) << "fused layer " << n << " has a span";
}

TEST(Sequential, TrainingStepMatchesLayerByLayer) {
  EpilogueNet a(41), b(41);
  a.m.set_training(true);
  b.m.set_training(true);
  Rng rng(42);
  const Tensor x = Tensor::uniform({2, 3, 10, 12}, rng, -2.0f, 2.0f);

  const Tensor ya = a.seq.forward(x);
  Tensor yb = x;
  for (auto* l : b.seq.chain()) yb = l->forward(yb);
  expect_bitwise_equal(ya, yb, "training forward");

  const Tensor g = Tensor::uniform(ya.shape(), rng, -1.0f, 1.0f);
  const Tensor ga = a.seq.backward(g);
  Tensor gb = g;
  for (auto it = b.seq.chain().rbegin(); it != b.seq.chain().rend(); ++it)
    gb = (*it)->backward(gb);
  expect_bitwise_equal(ga, gb, "input gradient");
  const auto sa = a.m.state_dict();
  const auto sb = b.m.state_dict();
  for (const auto& [name, t] : sa)
    expect_bitwise_equal(t, sb.at(name), name.c_str());  // running stats too
  const auto pa = a.m.parameters();
  const auto pb = b.m.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i)
    expect_bitwise_equal(pa[i]->grad, pb[i]->grad, pa[i]->name.c_str());
}

TEST(ConvEpilogue, MatchesLayerByLayerBitwise) {
  // Conv2d::forward(x, epi) applies BN, the residual add and the ReLU as the
  // conv output is stored: on the float path in place, on the packed path
  // while cropping the padded-width grid. Either way every element must
  // equal the layer-by-layer sequence (conv, BN, add_, ReLU) and the scalar
  // expression, bit for bit. Conv biases of +inf, -inf and -0.0, a gamma-0
  // channel with beta -0.0, and +-inf / -0.0 residual entries send -0.0,
  // infinities and NaN (0 * inf, -inf * slope 0) through every step. Output
  // widths hit the 8-lane body, its scalar tail and ow < 8; the largest map
  // crosses the parallel threshold, and its grid the 64- and 16-column GEMM
  // blocks.
  const float inf = std::numeric_limits<float>::infinity();
  const std::int64_t cin = 3, cout = 6, batch = 2;
  struct Map {
    std::int64_t h, w;
  };
  enum Variant { kBn, kBnResidual, kReluOnly, kNone };
  Rng rng(77);
  for (const bool packed : {false, true})
    for (const int stride : {1, 2})
      for (const int pad : {0, 1})
        for (const Map map : {Map{7, 6}, Map{9, 21}, Map{92, 83}}) {
          nn::Conv2d conv(cin, cout, 3, stride, pad, true, rng, "conv");
          Tensor& bias = conv.bias()->value;
          bias = Tensor::uniform({cout}, rng, -0.5f, 0.5f);
          bias[1] = inf;
          bias[2] = -inf;
          bias[3] = -0.0f;
          if (packed) {
            qnn::LowerSpec spec;
            spec.group_size = 9;
            ASSERT_TRUE(qnn::lower_layer(conv, spec));
          }
          conv.set_training(false);
          const Tensor x =
              Tensor::uniform({batch, cin, map.h, map.w}, rng, -2.0f, 2.0f);
          const Tensor conv_out = conv.forward(x);  // no epilogue
          nn::BatchNorm2d bn(cout, rng, "bn");
          bn.gamma().value = Tensor::uniform({cout}, rng, -1.5f, 1.5f);
          bn.beta().value = Tensor::uniform({cout}, rng, -0.5f, 0.5f);
          bn.running_mean() = Tensor::uniform({cout}, rng, -0.3f, 0.3f);
          bn.running_var() = Tensor::uniform({cout}, rng, 0.05f, 2.0f);
          bn.gamma().value[0] = 0.0f;
          bn.beta().value[0] = -0.0f;
          bn.set_training(false);
          Tensor residual =
              Tensor::uniform(conv_out.shape(), rng, -1.0f, 1.0f);
          for (std::int64_t i = 0; i < residual.numel(); i += 7)
            residual[i] = i % 3 == 0 ? -0.0f : (i % 3 == 1 ? inf : -inf);
          const std::int64_t plane = conv_out.dim(2) * conv_out.dim(3);

          for (const float slope : {0.0f, 0.1f}) {
            nn::Relu relu("relu", slope);
            relu.set_training(false);
            for (const Variant v : {kBn, kBnResidual, kReluOnly, kNone}) {
              nn::ConvEpilogue epi;
              if (v == kBn || v == kBnResidual) epi.bn = &bn;
              if (v == kBnResidual) epi.residual = &residual;
              if (v != kBn && v != kNone) epi.relu = &relu;
              // The unfused layers, one call each.
              Tensor want = conv.forward(x);
              if (epi.bn != nullptr) want = bn.forward(want);
              if (epi.residual != nullptr) want.add_(residual);
              if (epi.relu != nullptr) want = relu.forward(want);
              // The per-element expression over the unfused conv output.
              Tensor scalar = conv_out;
              for (std::int64_t i = 0; i < scalar.numel(); ++i) {
                const std::int64_t ch = (i / plane) % cout;
                float e = scalar[i];
                if (epi.bn != nullptr) {
                  const float inv_std =
                      1.0f / std::sqrt(bn.running_var()[ch] + 1e-5f);
                  e = bn.gamma().value[ch] * (e - bn.running_mean()[ch]) *
                          inv_std +
                      bn.beta().value[ch];
                }
                if (epi.residual != nullptr) e += residual[i];
                if (epi.relu != nullptr) e = nn::Relu::apply(e, slope);
                scalar[i] = e;
              }
              for (const int threads : {1, 4}) {
                parallel::set_thread_count(threads);
                const Tensor got = conv.forward(x, epi);
                parallel::set_thread_count(1);
                char what[160];
                std::snprintf(what, sizeof(what),
                              "%s s%d p%d %lldx%lld slope %g variant %d "
                              "threads %d",
                              packed ? "packed" : "float", stride, pad,
                              static_cast<long long>(map.h),
                              static_cast<long long>(map.w), slope,
                              static_cast<int>(v), threads);
                expect_bitwise_equal(got, want, what);
                expect_bitwise_equal(got, scalar, what);
              }
            }
          }
        }
}

TEST(ConvEpilogue, TrainingModeRunsTheLayersAndFillsTheirCaches) {
  // In training mode forward(x, epi) is the plain call sequence: the BN
  // uses batch statistics and every layer caches what backward needs.
  Rng rng(78);
  nn::Conv2d a(2, 3, 3, 1, 1, false, rng, "c");
  Rng rng_b(78);
  nn::Conv2d b(2, 3, 3, 1, 1, false, rng_b, "c");
  nn::BatchNorm2d bn_a(3, rng, "bn"), bn_b(3, rng, "bn");
  nn::Relu relu_a("r", 0.1f), relu_b("r", 0.1f);
  const Tensor x = Tensor::uniform({2, 2, 5, 6}, rng, -1.0f, 1.0f);
  const Tensor res = Tensor::uniform({2, 3, 5, 6}, rng, -1.0f, 1.0f);
  const Tensor ya = a.forward(x, {.bn = &bn_a, .residual = &res, .relu = &relu_a});
  Tensor yb = bn_b.forward(b.forward(x));
  yb.add_(res);
  yb = relu_b.forward(yb);
  expect_bitwise_equal(ya, yb, "training forward");
  expect_bitwise_equal(bn_a.running_mean(), bn_b.running_mean(), "running mean");
  const Tensor g = Tensor::uniform(ya.shape(), rng, -1.0f, 1.0f);
  expect_bitwise_equal(a.backward(bn_a.backward(relu_a.backward(g))),
                       b.backward(bn_b.backward(relu_b.backward(g))),
                       "input gradient");
  expect_bitwise_equal(a.weight().grad, b.weight().grad, "weight gradient");
}

TEST(Relu, InPlaceSelectMatchesForwardOnSpecialValues) {
  // Negative inputs scale by the slope (so ReLU maps them to -0.0 and -inf
  // to NaN, exactly as the multiply always did); NaN and -0.0 pass through.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor x(Shape{1, 1, 2, 4},
           std::vector<float>{-2.0f, -0.0f, 0.0f, 3.0f, -inf, inf, nan, -1e-30f});
  for (float slope : {0.0f, 0.1f}) {
    nn::Relu relu("r", slope);
    relu.set_training(false);
    const Tensor want = relu.forward(x);
    Tensor got = x;
    relu.forward_inplace(got);
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      const float ref = x[i] < 0.0f ? x[i] * slope : x[i];
      EXPECT_EQ(std::bit_cast<std::uint32_t>(want[i]),
                std::bit_cast<std::uint32_t>(ref))
          << "slope " << slope << " index " << i;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                std::bit_cast<std::uint32_t>(ref))
          << "slope " << slope << " index " << i;
    }
  }
}

TEST(Upsample, RowReplicationMatchesIndexFormula) {
  Rng rng(16);
  const Tensor x = Tensor::uniform({2, 3, 3, 5}, rng);
  for (int f : {1, 2, 3}) {
    nn::Upsample up(f, "u");
    const Tensor y = up.forward(x);
    ASSERT_EQ(y.shape(), (Shape{2, 3, 3 * f, 5 * f}));
    for (std::int64_t n = 0; n < 2; ++n)
      for (std::int64_t c = 0; c < 3; ++c)
        for (std::int64_t oy = 0; oy < 3 * f; ++oy)
          for (std::int64_t ox = 0; ox < 5 * f; ++ox)
            ASSERT_EQ(y.at(n, c, oy, ox), x.at(n, c, oy / f, ox / f))
                << "factor " << f;
  }
}

TEST(Module, ParameterCountAndZeroGrad) {
  Rng rng(20);
  nn::Module m;
  m.add<nn::Conv2d>(2, 4, 3, 1, 1, true, rng, "conv");
  m.add<nn::BatchNorm2d>(4, rng, "bn");
  // conv weight 2*4*9 = 72, bias 4, bn gamma+beta 8.
  EXPECT_EQ(m.parameter_count(), 72 + 4 + 8);
  for (auto* p : m.parameters()) p->grad.fill(1.0f);
  m.zero_grad();
  for (auto* p : m.parameters()) EXPECT_EQ(p->grad.abs_max(), 0.0f);
}

TEST(Module, StateDictRoundTripIncludesRunningStats) {
  Rng rng(21);
  nn::Module m1;
  auto* c1 = m1.add<nn::Conv2d>(1, 2, 3, 1, 1, false, rng, "conv");
  auto* b1 = m1.add<nn::BatchNorm2d>(2, rng, "bn");
  // Perturb running stats so the round trip is non-trivial.
  b1->running_mean()[0] = 3.0f;
  b1->running_var()[1] = 9.0f;
  auto state = m1.state_dict();

  Rng rng2(99);
  nn::Module m2;
  auto* c2 = m2.add<nn::Conv2d>(1, 2, 3, 1, 1, false, rng2, "conv");
  auto* b2 = m2.add<nn::BatchNorm2d>(2, rng2, "bn");
  m2.load_state_dict(state);
  for (std::int64_t i = 0; i < c1->weight().value.numel(); ++i)
    EXPECT_EQ(c2->weight().value[i], c1->weight().value[i]);
  EXPECT_EQ(b2->running_mean()[0], 3.0f);
  EXPECT_EQ(b2->running_var()[1], 9.0f);
}

TEST(Module, LoadStateDictValidates) {
  Rng rng(22);
  nn::Module m;
  m.add<nn::Conv2d>(1, 2, 3, 1, 1, false, rng, "conv");
  std::map<std::string, Tensor> empty;
  EXPECT_THROW(m.load_state_dict(empty), std::invalid_argument);
}

TEST(Parameter, SparsityAndProject) {
  nn::Parameter p("w", Tensor::ones({4}));
  EXPECT_EQ(p.sparsity(), 0.0);
  p.mask = Tensor({4}, std::vector<float>{1, 0, 0, 1});
  p.project();
  EXPECT_EQ(p.value.count_nonzero(), 2);
  EXPECT_NEAR(p.sparsity(), 0.5, 1e-12);
}

}  // namespace
}  // namespace upaq
