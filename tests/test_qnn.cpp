// Equivalence + determinism suite for the packed integer inference path
// (upaq::qnn): the integer GEMM must match the fake-quant float path
// within one requantization step (max weight scale x activation scale) for
// dense, bitmap-sparse and all four pattern families, stay bitwise
// identical across thread counts, never store masked positions, and keep
// the training path on float. The final test lowers a compressed detector
// to a QuantizedModel and pins the integer-path mAP against the fake-quant
// path end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <optional>
#include <set>

#include "core/qmodel.h"
#include "core/upaq.h"
#include "nn/conv.h"
#include "nn/layers.h"
#include "parallel/thread_pool.h"
#include "prof/prof.h"
#include "prune/pattern.h"
#include "qnn/packed.h"
#include "qnn/qgemm.h"
#include "qnn/qlayers.h"
#include "tensor/ops.h"
#include "zoo/experiment.h"

namespace upaq {
namespace {

/// One pattern of each of the four Algorithm-2 families for a d x d kernel.
std::vector<prune::KernelPattern> one_per_family(int n, int d) {
  std::vector<prune::KernelPattern> out;
  std::set<prune::PatternType> seen;
  for (const auto& p : prune::all_patterns(n, d)) {
    if (seen.insert(p.type).second) out.push_back(p);
  }
  EXPECT_EQ(out.size(), 4u);
  return out;
}

/// Random bitmap mask keeping roughly `keep` of the entries (always at
/// least one).
Tensor bitmap_mask(const Shape& shape, double keep, Rng& rng) {
  Tensor u = Tensor::uniform(shape, rng, 0.0f, 1.0f);
  Tensor mask(shape);
  for (std::int64_t i = 0; i < mask.numel(); ++i)
    mask[i] = u[i] < keep ? 1.0f : 0.0f;
  mask[0] = 1.0f;
  return mask;
}

/// |packed - reference| bound: one requantization step. The packed path
/// accumulates exactly (int64 + double) while the float reference rounds per
/// operation, so one grid step comfortably covers both.
float requant_step(const qnn::PackedGemm& gemm, const qnn::QuantizedActs& x) {
  return gemm.max_weight_scale() * x.scale;
}

struct GemmCase {
  int bits;
  quant::StorageFormat format;
  bool pattern_mask;  ///< pattern family masks instead of random bitmap
};

class PackedGemmEquivalence : public ::testing::TestWithParam<GemmCase> {};

TEST_P(PackedGemmEquivalence, MatchesFakeQuantReferenceWithinOneStep) {
  const GemmCase c = GetParam();
  const std::int64_t out_c = 6, in_c = 4;
  const int d = 3;
  const std::int64_t k = in_c * d * d;
  Rng rng(101);
  Tensor w = Tensor::normal({out_c, in_c, d, d}, rng, 0.0f, 0.8f);

  std::vector<Tensor> masks;
  if (c.format == quant::StorageFormat::kDense) {
    masks.push_back(Tensor());
  } else if (c.pattern_mask) {
    for (const auto& p : one_per_family(2, d))
      masks.push_back(prune::expand_kernel_mask(p, w.shape()));
  } else {
    masks.push_back(bitmap_mask(w.shape(), 0.5, rng));
  }

  for (const auto& mask : masks) {
    Tensor wm = w;  // copy; each mask case starts from the same weights
    if (!mask.empty()) wm.mul_(mask);
    const auto p = qnn::pack(wm, c.bits, /*group=*/d * d, c.format, mask);
    const qnn::PackedGemm gemm(p, out_c, k);

    Tensor acts = Tensor::normal({k, 17}, rng, 0.0f, 1.3f);
    const auto qa = qnn::quantize_acts(acts, 8);
    Tensor bias = Tensor::normal({out_c}, rng, 0.0f, 0.5f);

    Tensor got({out_c, 17});
    gemm.run(qa, bias.data(), got);

    // Fake-quant reference: the same grids through the float GEMM.
    const Tensor wq = qnn::unpack(p).reshape({out_c, k});
    const Tensor aq = qnn::dequantize_acts(qa);
    Tensor want({out_c, 17});
    ops::gemm_accumulate(wq, aq, want);
    const float tol = requant_step(gemm, qa);
    for (std::int64_t i = 0; i < got.numel(); ++i) {
      const float expect = want[i] + bias[i / 17];
      ASSERT_NEAR(got[i], expect, tol)
          << "bits=" << c.bits << " format=" << static_cast<int>(c.format)
          << " elem=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BitsAndFormats, PackedGemmEquivalence,
    ::testing::Values(
        GemmCase{8, quant::StorageFormat::kDense, false},
        GemmCase{4, quant::StorageFormat::kDense, false},
        GemmCase{8, quant::StorageFormat::kBitmapSparse, false},
        GemmCase{4, quant::StorageFormat::kBitmapSparse, false},
        GemmCase{8, quant::StorageFormat::kPatternSparse, true},
        GemmCase{4, quant::StorageFormat::kPatternSparse, true}));

/// Conv2d layer level: the engine-attached eval forward against a manual
/// fake-quant float reference (im2col -> quantize -> dequantize -> float
/// GEMM) on a multi-item batch.
TEST(PackedConv2d, MatchesFloatFakeQuantPath) {
  for (int bits : {8, 4}) {
    Rng rng(202);
    nn::Conv2d conv(3, 5, 3, 1, 1, /*bias=*/true, rng, "conv");
    conv.bias()->value = Tensor::normal({5}, rng, 0.0f, 0.3f);
    const auto pattern = one_per_family(2, 3)[0];
    Tensor mask = prune::expand_kernel_mask(pattern, conv.weight().value.shape());
    conv.weight().mask = mask;
    conv.weight().value.mul_(mask);

    qnn::LowerSpec spec;
    spec.weight_bits = bits;
    spec.group_size = 9;
    spec.format = quant::StorageFormat::kPatternSparse;
    ASSERT_TRUE(qnn::lower_layer(conv, spec));
    conv.set_training(false);
    ASSERT_NE(conv.engine(), nullptr);
    EXPECT_STREQ(conv.engine()->engine_name(), "qnn.packed_conv2d");

    Tensor x = Tensor::normal({2, 3, 8, 8}, rng, 0.0f, 1.0f);
    const Tensor got = conv.forward(x);
    ASSERT_EQ(got.shape(), Shape({2, 5, 8, 8}));

    const auto* engine = dynamic_cast<qnn::PackedConv2d*>(conv.engine());
    ASSERT_NE(engine, nullptr);
    const auto packed = qnn::pack(conv.weight().value, bits, 9,
                                  quant::StorageFormat::kPatternSparse, mask);
    const Tensor wq = qnn::unpack(packed).reshape({5, 3 * 9});
    for (std::int64_t b = 0; b < 2; ++b) {
      const Tensor cols = ops::im2col(x, b, 3, 3, 1, 1);
      const auto qa = qnn::quantize_acts(cols, 8);
      Tensor want({5, 64});
      ops::gemm_accumulate(wq, qnn::dequantize_acts(qa), want);
      const float tol = requant_step(engine->gemm(), qa);
      for (std::int64_t oc = 0; oc < 5; ++oc)
        for (std::int64_t i = 0; i < 64; ++i)
          ASSERT_NEAR(got[(b * 5 + oc) * 64 + i],
                      want.at(oc, i) + conv.bias()->value[oc], tol)
              << "bits=" << bits;
    }
  }
}

TEST(PackedLinear, MatchesFloatFakeQuantPath) {
  for (int bits : {8, 4}) {
    Rng rng(303);
    nn::Linear ref(10, 7, /*bias=*/true, rng, "fc");
    ref.bias()->value = Tensor::normal({7}, rng, 0.0f, 0.2f);
    Tensor mask = bitmap_mask(ref.weight().value.shape(), 0.6, rng);
    ref.weight().mask = mask;
    ref.weight().value.mul_(mask);

    // The packed copy shares the reference's exact weights.
    Rng rng2(303);
    nn::Linear packed(10, 7, /*bias=*/true, rng2, "fc");
    packed.weight().value = ref.weight().value;
    packed.weight().mask = mask;
    packed.bias()->value = ref.bias()->value;

    qnn::LowerSpec spec;
    spec.weight_bits = bits;
    spec.group_size = 4;  // deliberately not a divisor of in_features
    spec.format = quant::StorageFormat::kBitmapSparse;
    ASSERT_TRUE(qnn::lower_layer(packed, spec));
    packed.set_training(false);
    ref.set_training(false);

    Tensor x = Tensor::normal({9, 10}, rng, 0.0f, 1.1f);
    const Tensor got = packed.forward(x);

    const auto* engine = dynamic_cast<qnn::PackedLinear*>(packed.engine());
    ASSERT_NE(engine, nullptr);
    const auto qa = qnn::quantize_acts(x, 8);
    ref.weight().value = qnn::unpack(
        qnn::pack(ref.weight().value, bits, 4,
                  quant::StorageFormat::kBitmapSparse, mask));
    const Tensor want = ref.forward(qnn::dequantize_acts(qa));
    const float tol = requant_step(engine->gemm(), qa);
    for (std::int64_t i = 0; i < got.numel(); ++i)
      ASSERT_NEAR(got[i], want[i], tol) << "bits=" << bits;
  }
}

TEST(PackedTensorStorage, MaskedPositionsAreNeverStored) {
  Rng rng(404);
  Tensor w = Tensor::normal({8, 4, 3, 3}, rng);
  for (const auto& pattern : one_per_family(2, 3)) {
    Tensor mask = prune::expand_kernel_mask(pattern, w.shape());
    Tensor wm = w;
    wm.mul_(mask);
    const auto p =
        qnn::pack(wm, 4, 9, quant::StorageFormat::kPatternSparse, mask);
    // Exactly the mask's surviving positions are stored, in ascending order.
    std::int64_t expected = 0;
    for (std::int64_t i = 0; i < mask.numel(); ++i)
      if (mask[i] != 0.0f) ++expected;
    ASSERT_EQ(p.stored_count(), expected) << pattern.key();
    for (std::int64_t i = 0; i < p.stored_count(); ++i) {
      ASSERT_NE(mask[p.flat_index(i)], 0.0f) << pattern.key();
      if (i > 0) {
        ASSERT_LT(p.flat_index(i - 1), p.flat_index(i));
      }
    }
    // And the GEMM engine carries no masked entry either (its entries are a
    // subset: surviving positions whose code is non-zero).
    const qnn::PackedGemm gemm(p, 8, 4 * 9);
    EXPECT_LE(gemm.entry_count(), expected);
  }
}

TEST(PackedDeterminism, BitwiseIdenticalAcrossThreadCounts) {
  const int original = parallel::thread_count();
  Rng rng(505);
  nn::Conv2d conv(4, 6, 3, 1, 1, /*bias=*/true, rng, "conv");
  nn::Linear lin(24, 12, /*bias=*/true, rng, "fc");
  qnn::LowerSpec spec;
  spec.weight_bits = 8;
  spec.group_size = 9;
  ASSERT_TRUE(qnn::lower_layer(conv, spec));
  ASSERT_TRUE(qnn::lower_layer(lin, spec));
  conv.set_training(false);
  lin.set_training(false);
  // Large enough spatial size that the row-parallel GEMM engages.
  Tensor xc = Tensor::normal({2, 4, 24, 24}, rng);
  Tensor xl = Tensor::normal({64, 24}, rng);

  parallel::set_thread_count(1);
  const Tensor yc1 = conv.forward(xc);
  const Tensor yl1 = lin.forward(xl);
  parallel::set_thread_count(4);
  const Tensor yc4 = conv.forward(xc);
  const Tensor yl4 = lin.forward(xl);
  parallel::set_thread_count(original);

  ASSERT_EQ(yc1.shape(), yc4.shape());
  EXPECT_EQ(std::memcmp(yc1.data(), yc4.data(),
                        sizeof(float) * static_cast<std::size_t>(yc1.numel())),
            0);
  ASSERT_EQ(yl1.shape(), yl4.shape());
  EXPECT_EQ(std::memcmp(yl1.data(), yl4.data(),
                        sizeof(float) * static_cast<std::size_t>(yl1.numel())),
            0);
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

/// Eval forward of a fresh conv carrying `weight`, lowered under `spec`:
/// the reference a lowered layer's output must match bitwise.
Tensor fresh_lowered_forward(const Tensor& weight, const qnn::LowerSpec& spec,
                             const Tensor& x) {
  Rng rng(1);
  nn::Conv2d conv(weight.dim(1), weight.dim(0), 3, 1, 1, /*bias=*/false, rng,
                  "fresh");
  conv.weight().value = weight;
  conv.weight().mark_mutated();
  EXPECT_TRUE(qnn::lower_layer(conv, spec));
  conv.set_training(false);
  return conv.forward(x);
}

TEST(PackedEngines, LayerBuiltAtAFreedLayersAddressPacksItsOwnWeights) {
  // A conv lowered where a freed conv of the same spec used to live must
  // run its own weights. Engines pack their weights themselves; a packed
  // image looked up by the parameter's address would hand the second conv
  // the first one's weights (both parameters sit at version 0).
  qnn::LowerSpec spec;
  spec.weight_bits = 8;
  spec.group_size = 9;
  Rng xrng(808);
  const Tensor x = Tensor::normal({1, 4, 6, 6}, xrng);
  std::optional<nn::Conv2d> slot;
  Rng rng_a(11);
  slot.emplace(4, 6, 3, 1, 1, /*bias=*/false, rng_a, "conv");
  ASSERT_TRUE(qnn::lower_layer(*slot, spec));
  slot->set_training(false);
  const Tensor ya = slot->forward(x);
  const void* param_a = &slot->weight();
  slot.reset();

  Rng rng_b(12);
  slot.emplace(4, 6, 3, 1, 1, /*bias=*/false, rng_b, "conv");
  ASSERT_EQ(static_cast<const void*>(&slot->weight()), param_a);
  ASSERT_TRUE(qnn::lower_layer(*slot, spec));
  slot->set_training(false);
  const Tensor yb = slot->forward(x);
  EXPECT_FALSE(bitwise_equal(ya, yb)) << "differently seeded convs agree";
  EXPECT_TRUE(
      bitwise_equal(yb, fresh_lowered_forward(slot->weight().value, spec, x)))
      << "the second conv ran weights other than its own";
}

TEST(PackedEngines, VersionBumpRepacksOnceThenStaysPacked) {
  qnn::LowerSpec spec;
  spec.weight_bits = 4;
  spec.group_size = 9;
  Rng rng(909);
  nn::Conv2d conv(4, 6, 3, 1, 1, /*bias=*/false, rng, "conv");
  ASSERT_TRUE(qnn::lower_layer(conv, spec));
  conv.set_training(false);
  const Tensor x = Tensor::normal({1, 4, 7, 7}, rng);
  const Tensor before = conv.forward(x);

  // Mutate the weight after lowering (an optimizer step would do the same).
  Tensor& w = conv.weight().value;
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = -0.5f * w[i];
  conv.weight().mark_mutated();

  const bool was_enabled = prof::enabled();
  prof::set_enabled(true);
  const auto builds = [] {
    return prof::counter_value(prof::Counter::kPanelBuilds);
  };
  const std::uint64_t b0 = builds();
  const Tensor after = conv.forward(x);
  const std::uint64_t b1 = builds();
  for (int i = 0; i < 3; ++i) (void)conv.forward(x);
  const std::uint64_t b2 = builds();
  prof::set_enabled(was_enabled);

  EXPECT_EQ(b1 - b0, 1u) << "a version bump must repack exactly once";
  EXPECT_EQ(b2 - b1, 0u) << "steady-state forwards must not repack";
  EXPECT_FALSE(bitwise_equal(before, after));
  EXPECT_TRUE(bitwise_equal(after, fresh_lowered_forward(w, spec, x)))
      << "the repacked engine diverges from a fresh lowering";
}

TEST(PackedEngines, TrainingModeStaysOnFloatPath) {
  Rng rng(606);
  nn::Conv2d with_engine(3, 4, 3, 1, 1, /*bias=*/false, rng, "conv");
  Rng rng2(606);
  nn::Conv2d without(3, 4, 3, 1, 1, /*bias=*/false, rng2, "conv");
  qnn::LowerSpec spec;
  spec.weight_bits = 4;  // coarse grid: the packed path would visibly differ
  ASSERT_TRUE(qnn::lower_layer(with_engine, spec));

  Tensor x = Tensor::normal({1, 3, 6, 6}, rng);
  with_engine.set_training(true);
  without.set_training(true);
  const Tensor a = with_engine.forward(x);
  const Tensor b = without.forward(x);
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<std::size_t>(a.numel())),
            0)
      << "training forward must ignore the engine";
  // Backward still works with an engine attached.
  Tensor g(a.shape());
  g.fill(1.0f);
  EXPECT_NO_THROW(with_engine.backward(g));

  // Eval mode uses the engine (4-bit output differs from float).
  with_engine.set_training(false);
  without.set_training(false);
  const Tensor c = with_engine.forward(x);
  EXPECT_NE(std::memcmp(c.data(), b.data(),
                        sizeof(float) * static_cast<std::size_t>(c.numel())),
            0);
}

TEST(PackedBlob, SaveLoadRoundTripsBitwise) {
  Rng rng(707);
  std::map<std::string, qnn::PackedTensor> blobs;
  Tensor w = Tensor::normal({4, 2, 3, 3}, rng);
  const auto pattern = one_per_family(2, 3)[1];
  Tensor mask = prune::expand_kernel_mask(pattern, w.shape());
  Tensor wm = w;
  wm.mul_(mask);
  blobs["conv"] = qnn::pack(wm, 4, 9, quant::StorageFormat::kPatternSparse, mask);
  blobs["fc"] = qnn::pack(Tensor::normal({6, 5}, rng), 8, 0,
                          quant::StorageFormat::kDense);
  const std::string path = ::testing::TempDir() + "/qnn_blob_test.packed";
  qnn::save_packed_map(path, blobs);
  const auto loaded = qnn::load_packed_map(path);
  ASSERT_EQ(loaded.size(), blobs.size());
  for (const auto& [name, p] : blobs) {
    const auto& q = loaded.at(name);
    EXPECT_EQ(q.shape, p.shape);
    EXPECT_EQ(q.bits, p.bits);
    EXPECT_EQ(q.group_size, p.group_size);
    EXPECT_EQ(q.format, p.format);
    EXPECT_EQ(q.data, p.data);
    EXPECT_EQ(q.stored, p.stored);
    ASSERT_EQ(q.scales.size(), p.scales.size());
    for (std::size_t i = 0; i < p.scales.size(); ++i)
      EXPECT_EQ(q.scales[i], p.scales[i]) << name;  // bitwise
  }
  std::filesystem::remove(path);
}

/// End-to-end regression: compress a tiny trained detector with UPAQ (HCK),
/// lower it onto the integer path, and pin the packed-path mAP against the
/// fake-quant float path on the same synthetic scenes.
TEST(QuantizedModel, IntegerPathMapMatchesFakeQuantPath) {
  zoo::ZooConfig cfg;
  cfg.cache_dir = ::testing::TempDir() + "/upaq_zoo_qnn_e2e";
  cfg.scene_count = 20;
  cfg.pp_iterations = 8;
  cfg.smoke_iterations = 2;
  cfg.batch_size = 1;
  cfg.verbose = false;
  std::error_code ec;
  std::filesystem::remove_all(cfg.cache_dir, ec);
  zoo::Zoo z(cfg);
  auto model = z.pointpillars();

  auto ucfg = core::UpaqConfig::hck();
  core::UpaqCompressor compressor(ucfg);
  auto result = compressor.compress(*model);

  const double map_float =
      detectors::evaluate_map(*model, z.dataset().test, 0.25);
  {
    core::QuantizedModel qmodel(*model, result.plan);
    EXPECT_GT(qmodel.lowered_layers(), 0);
    EXPECT_STREQ(qmodel.model_name(), "Quantized(PointPillars)");

    // Lowering census: every lowered layer carries a packed engine, and the
    // layers priced on the integer path are exactly those layers.
    std::set<std::string> engines, integer_rows;
    for (const auto& layer : model->layers())
      if (layer->engine() != nullptr) engines.insert(layer->name());
    EXPECT_EQ(static_cast<int>(engines.size()), qmodel.lowered_layers());
    for (const auto& l : qmodel.cost_profile())
      if (l.integer_path) integer_rows.insert(l.name);
    EXPECT_EQ(integer_rows, engines);
    const double map_int =
        detectors::evaluate_map(qmodel, z.dataset().test, 0.25);
    // int8 activations on top of the already-quantized weights: the packed
    // path must stay within a few mAP points of the fake-quant path.
    EXPECT_NEAR(map_int, map_float, 5.0);

    // The integer-path profile prices int GEMMs: modelled latency must not
    // exceed the weight-only execution of the same plan.
    const auto profile = qmodel.cost_profile();
    bool any_integer = false;
    for (const auto& l : profile) any_integer |= l.integer_path;
    EXPECT_TRUE(any_integer);
    const hw::CostModel cost(hw::device_spec(hw::Device::kJetsonOrinNano));
    auto weight_only = profile;
    for (auto& l : weight_only) l.integer_path = false;
    EXPECT_LE(cost.model_cost(profile).latency_s,
              cost.model_cost(weight_only).latency_s);

    // Training through the packed model is refused.
    std::vector<const data::Scene*> batch{&z.dataset().test.front()};
    EXPECT_THROW(qmodel.compute_loss_and_grad(batch), std::invalid_argument);
  }
  // The wrapper detaches its engines on destruction: float path is back.
  for (const auto& layer : model->layers())
    EXPECT_EQ(layer->engine(), nullptr) << layer->name();
  std::filesystem::remove_all(cfg.cache_dir, ec);
}

}  // namespace
}  // namespace upaq
