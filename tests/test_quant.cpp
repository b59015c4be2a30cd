// Tests for Algorithm 6 (mp_quantizer): grid properties, clipping, SQNR
// monotonicity across bitwidths (parameterized), storage accounting, and the
// packed-storage property tests (pack/unpack round trips, storage_bits vs
// actual buffer size, edge cases) shared with upaq::qnn.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "qnn/packed.h"
#include "quant/quantize.h"

namespace upaq {
namespace {

TEST(MpQuantizer, ValuesLandOnTheSymmetricGrid) {
  Rng rng(1);
  Tensor x = Tensor::normal({64}, rng, 0.0f, 1.0f);
  const auto q = quant::mp_quantize(x, 4);
  // Every output must be an integer multiple of the scale within +-(2^3 - 1).
  std::set<long> levels;
  for (std::int64_t i = 0; i < q.values.numel(); ++i) {
    const double level = q.values[i] / q.scale;
    EXPECT_NEAR(level, std::round(level), 1e-4);
    EXPECT_LE(std::fabs(level), 7.0 + 1e-6);
    levels.insert(static_cast<long>(std::round(level)));
  }
  EXPECT_LE(levels.size(), 15u);  // 4-bit symmetric: at most 15 levels
}

TEST(MpQuantizer, ScaleMapsAbsMaxToTopLevel) {
  Tensor x({3}, std::vector<float>{-2.0f, 0.5f, 1.0f});
  const auto q = quant::mp_quantize(x, 8);
  EXPECT_NEAR(q.scale, 2.0f / 127.0f, 1e-7);
  // The extreme value is representable exactly.
  EXPECT_NEAR(q.values[0], -2.0f, 1e-6);
}

TEST(MpQuantizer, ZeroStaysZero) {
  // Symmetric quantization must map 0 -> 0 exactly (pruned weights!).
  Rng rng(2);
  Tensor x = Tensor::normal({32}, rng);
  x[5] = 0.0f;
  x[17] = 0.0f;
  for (int bits : {2, 4, 8, 16}) {
    const auto q = quant::mp_quantize(x, bits);
    EXPECT_EQ(q.values[5], 0.0f);
    EXPECT_EQ(q.values[17], 0.0f);
  }
}

TEST(MpQuantizer, AllZeroTensorIsLossless) {
  Tensor x({8});
  const auto q = quant::mp_quantize(x, 8);
  EXPECT_TRUE(std::isinf(q.sqnr));
  EXPECT_EQ(q.values.abs_max(), 0.0f);
}

TEST(MpQuantizer, RejectsBadBitwidths) {
  Tensor x({4}, 1.0f);
  EXPECT_THROW(quant::mp_quantize(x, 1), std::invalid_argument);
  EXPECT_THROW(quant::mp_quantize(x, 33), std::invalid_argument);
}

class BitwidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(BitwidthSweep, ErrorBoundedByHalfScale) {
  const int bits = GetParam();
  Rng rng(3);
  Tensor x = Tensor::uniform({256}, rng, -3.0f, 3.0f);
  const auto q = quant::mp_quantize(x, bits);
  for (std::int64_t i = 0; i < x.numel(); ++i)
    EXPECT_LE(std::fabs(x[i] - q.values[i]), 0.5f * q.scale + 1e-6f);
}

INSTANTIATE_TEST_SUITE_P(Bits, BitwidthSweep, ::testing::Values(2, 4, 6, 8, 12, 16));

TEST(MpQuantizer, SqnrIncreasesWithBitwidth) {
  Rng rng(4);
  Tensor x = Tensor::normal({512}, rng);
  double prev = 0.0;
  for (int bits : {2, 4, 8, 12}) {
    const auto q = quant::mp_quantize(x, bits);
    EXPECT_GT(q.sqnr, prev) << "SQNR must grow with precision at " << bits;
    prev = q.sqnr;
  }
}

TEST(MpQuantizer, SqnrRoughly6dbPerBit) {
  Rng rng(5);
  Tensor x = Tensor::uniform({4096}, rng, -1.0f, 1.0f);
  const double db8 = quant::sqnr_db(quant::mp_quantize(x, 8).sqnr);
  const double db10 = quant::sqnr_db(quant::mp_quantize(x, 10).sqnr);
  EXPECT_NEAR(db10 - db8, 12.0, 3.0);  // ~6 dB per bit
}

TEST(SqnrDb, HandlesEdgeCases) {
  EXPECT_EQ(quant::sqnr_db(std::numeric_limits<double>::infinity()), 200.0);
  EXPECT_EQ(quant::sqnr_db(0.0), -200.0);
  EXPECT_NEAR(quant::sqnr_db(100.0), 20.0, 1e-9);
}

TEST(StorageBits, DenseBitmapPattern) {
  using quant::StorageFormat;
  // 100 weights, 25 kept, 8 bits.
  EXPECT_EQ(quant::storage_bits(100, 25, 8, StorageFormat::kDense), 800);
  EXPECT_EQ(quant::storage_bits(100, 25, 8, StorageFormat::kBitmapSparse),
            100 + 200);
  EXPECT_EQ(quant::storage_bits(100, 25, 8, StorageFormat::kPatternSparse),
            16 + 200);
}

TEST(StorageBits, Validation) {
  using quant::StorageFormat;
  EXPECT_THROW(quant::storage_bits(10, 11, 8, StorageFormat::kDense),
               std::invalid_argument);
  EXPECT_THROW(quant::storage_bits(10, 5, 0, StorageFormat::kDense),
               std::invalid_argument);
  EXPECT_EQ(quant::dense_fp32_bits(10), 320);
}

TEST(StorageBits, SparseFormatsBeatDenseAtHighSparsity) {
  using quant::StorageFormat;
  const std::int64_t n = 1000, nz = 200;
  EXPECT_LT(quant::storage_bits(n, nz, 8, StorageFormat::kBitmapSparse),
            quant::storage_bits(n, nz, 8, StorageFormat::kDense));
  EXPECT_LT(quant::storage_bits(n, nz, 8, StorageFormat::kPatternSparse),
            quant::storage_bits(n, nz, 8, StorageFormat::kBitmapSparse));
}

// ----------------------------------------------------------- packed storage

/// Property: unpack(pack(x, bits, g)) is bitwise identical to the fake-quant
/// grid of mp_quantize_grouped(x, bits, g) — the grid-sharing invariant the
/// integer inference path rests on. Holds for every storage format because
/// dropped positions carry exact zeros on both sides.
TEST(PackedRoundTrip, BitwiseEqualsGroupedFakeQuant) {
  using quant::StorageFormat;
  Rng rng(11);
  Tensor x = Tensor::normal({4, 3, 3, 3}, rng);  // numel 108
  // Sparsify so the sparse formats have real dropped positions.
  for (std::int64_t i = 0; i < x.numel(); i += 3) x[i] = 0.0f;
  for (int bits : {2, 4, 8, 16}) {
    for (std::int64_t group : {std::int64_t{5}, std::int64_t{9},
                               std::int64_t{108}}) {
      const auto want = quant::mp_quantize_grouped(x, bits, group);
      for (auto format : {StorageFormat::kDense, StorageFormat::kBitmapSparse,
                          StorageFormat::kPatternSparse}) {
        const auto p = qnn::pack(x, bits, group, format);
        const Tensor got = qnn::unpack(p);
        for (std::int64_t i = 0; i < x.numel(); ++i)
          ASSERT_EQ(got[i], want.values[i])
              << "bits=" << bits << " group=" << group
              << " format=" << static_cast<int>(format) << " i=" << i;
      }
    }
  }
}

TEST(PackedRoundTrip, PerTensorScaleMatchesUngroupedQuantizer) {
  Rng rng(12);
  Tensor x = Tensor::uniform({37}, rng, -2.0f, 2.0f);
  for (int bits : {2, 4, 8, 16}) {
    const auto want = quant::mp_quantize(x, bits);
    const auto p = qnn::pack(x, bits, /*group=*/0, quant::StorageFormat::kDense);
    ASSERT_EQ(p.scales.size(), 1u);
    EXPECT_EQ(p.scales[0], want.scale);
    const Tensor got = qnn::unpack(p);
    for (std::int64_t i = 0; i < x.numel(); ++i)
      ASSERT_EQ(got[i], want.values[i]) << "bits=" << bits;
  }
}

TEST(PackedStorage, StorageBitsAgreesWithBufferSize) {
  using quant::StorageFormat;
  Rng rng(13);
  Tensor x = Tensor::normal({6, 5}, rng);  // numel 30
  for (std::int64_t i = 0; i < x.numel(); i += 2) x[i] = 0.0f;
  const std::int64_t nz = x.count_nonzero();
  for (int bits : {2, 4, 8, 16}) {
    for (auto format : {StorageFormat::kDense, StorageFormat::kBitmapSparse,
                        StorageFormat::kPatternSparse}) {
      const auto p = qnn::pack(x, bits, 7, format);
      // Same accounting rule as quant::storage_bits with the actual counts.
      EXPECT_EQ(p.storage_bits(),
                quant::storage_bits(x.numel(), p.stored_count(), bits, format));
      if (format != StorageFormat::kDense) {
        EXPECT_EQ(p.stored_count(), nz);
      }
      // The value buffer is exactly the value term, rounded up to bytes.
      EXPECT_EQ(static_cast<std::int64_t>(p.data.size()),
                (p.stored_count() * bits + 7) / 8);
      EXPECT_EQ(p.buffer_bits(), static_cast<std::int64_t>(p.data.size()) * 8);
    }
  }
}

TEST(PackedEdgeCases, AllZeroTensor) {
  Tensor x({3, 3});
  const auto dense = qnn::pack(x, 8, 4, quant::StorageFormat::kDense);
  ASSERT_EQ(dense.scales.size(), 3u);  // ceil(9 / 4) groups
  for (float s : dense.scales) EXPECT_EQ(s, 1.0f);  // identity scale
  const Tensor got = qnn::unpack(dense);
  for (std::int64_t i = 0; i < got.numel(); ++i) EXPECT_EQ(got[i], 0.0f);

  const auto sparse = qnn::pack(x, 8, 4, quant::StorageFormat::kBitmapSparse);
  EXPECT_EQ(sparse.stored_count(), 0);
  EXPECT_TRUE(sparse.data.empty());
  EXPECT_EQ(sparse.storage_bits(), 9);  // bitmap only
}

TEST(PackedEdgeCases, SingleElement) {
  Tensor x({1}, std::vector<float>{-0.75f});
  for (int bits : {2, 8, 16}) {
    const auto p = qnn::pack(x, bits, 0, quant::StorageFormat::kDense);
    ASSERT_EQ(p.scales.size(), 1u);
    // The single element is the abs-max: it maps to the bottom grid level
    // and round-trips exactly.
    const Tensor got = qnn::unpack(p);
    EXPECT_FLOAT_EQ(got[0], -0.75f) << "bits=" << bits;
    EXPECT_EQ(p.code(0), -(1 << (bits - 1)) + 1);
  }
}

TEST(PackedEdgeCases, PartialTailChunkGetsItsOwnScale) {
  Rng rng(14);
  Tensor x = Tensor::uniform({10}, rng, -1.0f, 1.0f);
  x[9] = 8.0f;  // tail outlier must not distort the leading groups
  const auto p = qnn::pack(x, 8, 4, quant::StorageFormat::kDense);
  ASSERT_EQ(p.scales.size(), 3u);  // 4 + 4 + tail of 2
  const auto tail = quant::mp_quantize_codes(x.data() + 8, 2, 8);
  EXPECT_EQ(p.scales[2], tail.scale);
  EXPECT_LT(p.scales[0], p.scales[2]);  // outlier stays confined to the tail
}

TEST(Pack, RejectsNonZeroedDroppedPositions) {
  // Sparse packing of a tensor whose masked-out position still holds a
  // non-zero weight must throw: pruned weights are zeroed by project().
  Tensor x({4}, std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f});
  Tensor mask({4}, std::vector<float>{1.0f, 0.0f, 1.0f, 1.0f});
  EXPECT_THROW(qnn::pack(x, 8, 0, quant::StorageFormat::kBitmapSparse, mask),
               std::invalid_argument);
}

// ------------------------------------------------------ Algorithm 6 erratum

/// Regression for the Algorithm 6 line-8 erratum: SQNR must be evaluated
/// with the error in the *de-quantized* domain, var(x) / var(x - dequant(x_q)).
/// The paper's literal formula uses the integer-domain x_q, which changes
/// the answer by orders of magnitude; this pins the implemented definition
/// so a refactor cannot silently revert it.
TEST(MpQuantizer, ErratumSqnrUsesDequantizedDomainError) {
  Rng rng(15);
  Tensor x = Tensor::uniform({256}, rng, -1.0f, 1.0f);
  const auto q = quant::mp_quantize(x, 4);

  // Reference: de-quantized-domain definition, computed independently.
  Tensor err(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) err[i] = x[i] - q.values[i];
  const double expected =
      static_cast<double>(x.var()) / static_cast<double>(err.var());
  EXPECT_NEAR(q.sqnr, expected, 1e-9 * expected);

  // The integer-domain (erratum) variant is wildly different — make sure we
  // are not computing it.
  const auto codes = quant::mp_quantize_codes(x.data(), x.numel(), 4);
  Tensor err_int(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i)
    err_int[i] = x[i] - static_cast<float>(codes.codes[static_cast<std::size_t>(i)]);
  const double integer_variant =
      static_cast<double>(x.var()) / static_cast<double>(err_int.var());
  EXPECT_GT(std::fabs(std::log10(q.sqnr) - std::log10(integer_variant)), 1.0);
}

TEST(MpQuantizer, CodesAndFakeQuantShareTheGrid) {
  Rng rng(16);
  Tensor x = Tensor::normal({64}, rng);
  for (int bits : {2, 4, 8, 16}) {
    const auto q = quant::mp_quantize(x, bits);
    const auto codes = quant::mp_quantize_codes(x.data(), x.numel(), bits);
    EXPECT_EQ(codes.scale, q.scale);
    for (std::int64_t i = 0; i < x.numel(); ++i)
      ASSERT_EQ(q.values[i],
                quant::dequantize_code(
                    codes.codes[static_cast<std::size_t>(i)], codes.scale))
          << "bits=" << bits;
  }
}

}  // namespace
}  // namespace upaq
