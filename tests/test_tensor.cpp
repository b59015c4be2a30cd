// Unit tests for the tensor library: shapes, accessors, reductions,
// elementwise ops, GEMM/im2col correctness, and serialization round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>
#include <sstream>
#include <vector>

#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"

namespace upaq {
namespace {

TEST(Shape, NumelAndToString) {
  EXPECT_EQ(shape_numel({2, 3, 4}), 24);
  EXPECT_EQ(shape_numel({}), 1);
  EXPECT_EQ(shape_numel({0, 5}), 0);
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
  EXPECT_THROW(shape_numel({-1, 2}), std::invalid_argument);
}

TEST(Tensor, ConstructionAndFill) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.rank(), 2u);
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_EQ(t[i], 0.0f);
  Tensor u({2, 2}, 3.5f);
  EXPECT_EQ(u.sum(), 14.0f);
  Tensor v = Tensor::ones({4});
  EXPECT_EQ(v.sum(), 4.0f);
}

TEST(Tensor, DataVectorConstructorValidatesSize) {
  EXPECT_NO_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3}),
               std::invalid_argument);
}

TEST(Tensor, MultiDimAccessorsRowMajor) {
  Tensor t({2, 3, 4});
  t.at(1, 2, 3) = 7.0f;
  EXPECT_EQ(t[1 * 12 + 2 * 4 + 3], 7.0f);
  t.at(0, 0, 0) = 1.0f;
  EXPECT_EQ(t[0], 1.0f);
}

TEST(Tensor, ReshapePreservesDataAndValidates) {
  Tensor t = Tensor::arange(6);
  Tensor r = t.reshape({2, 3});
  EXPECT_EQ(r.at(1, 2), 5.0f);
  EXPECT_THROW(t.reshape({4, 2}), std::invalid_argument);
}

TEST(Tensor, Reductions) {
  Tensor t({5}, std::vector<float>{-3, 0, 1, 2, -1});
  EXPECT_FLOAT_EQ(t.sum(), -1.0f);
  EXPECT_FLOAT_EQ(t.mean(), -0.2f);
  EXPECT_FLOAT_EQ(t.min(), -3.0f);
  EXPECT_FLOAT_EQ(t.max(), 2.0f);
  EXPECT_FLOAT_EQ(t.abs_max(), 3.0f);
  EXPECT_EQ(t.count_nonzero(), 4);
  EXPECT_EQ(t.argmax(), 3);
}

TEST(Tensor, VarianceMatchesDefinition) {
  Tensor t({4}, std::vector<float>{1, 2, 3, 4});
  // mean 2.5, var = (2.25+0.25+0.25+2.25)/4 = 1.25
  EXPECT_NEAR(t.var(), 1.25f, 1e-6);
  EXPECT_NEAR(Tensor({1}, 5.0f).var(), 0.0f, 1e-9);
}

TEST(Tensor, ElementwiseOps) {
  Tensor a({3}, std::vector<float>{1, 2, 3});
  Tensor b({3}, std::vector<float>{4, 5, 6});
  EXPECT_EQ((a + b).sum(), 21.0f);
  EXPECT_EQ((b - a).sum(), 9.0f);
  EXPECT_EQ((a * b).sum(), 4.0f + 10.0f + 18.0f);
  EXPECT_EQ((a * 2.0f).sum(), 12.0f);
  Tensor c = a;
  c.apply_([](float v) { return v * v; });
  EXPECT_EQ(c.sum(), 14.0f);
}

TEST(Tensor, ElementwiseSizeMismatchThrows) {
  Tensor a({3});
  Tensor b({4});
  EXPECT_THROW(a.add_(b), std::invalid_argument);
}

TEST(Tensor, RandomInitIsDeterministicPerSeed) {
  Rng r1(99), r2(99), r3(100);
  Tensor a = Tensor::normal({16}, r1);
  Tensor b = Tensor::normal({16}, r2);
  Tensor c = Tensor::normal({16}, r3);
  for (std::int64_t i = 0; i < 16; ++i) EXPECT_EQ(a[i], b[i]);
  bool any_diff = false;
  for (std::int64_t i = 0; i < 16; ++i) any_diff |= a[i] != c[i];
  EXPECT_TRUE(any_diff);
}

TEST(Rng, EngineMatchesStdMt19937_64) {
  const std::uint64_t seeds[] = {0,
                                 5489,
                                 0x5eed,
                                 ~std::uint64_t{0},
                                 0x243f6a8885a308d3ULL,
                                 0x13198a2e03707344ULL,
                                 0xa4093822299f31d0ULL};
  for (const std::uint64_t seed : seeds) {
    Mt19937_64 ours(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 1000000; ++i) {
      const std::uint64_t a = ours(), b = ref();
      ASSERT_EQ(a, b) << "seed " << seed << " draw " << i;
    }
  }
  static_assert(Mt19937_64::min() == std::mt19937_64::min());
  static_assert(Mt19937_64::max() == std::mt19937_64::max());
}

TEST(Rng, EngineDefaultSeedTenThousandthDraw) {
  // The value the C++ standard requires of a default-constructed
  // mt19937_64 ([rand.predef]).
  Mt19937_64 e;
  std::uint64_t v = 0;
  for (int i = 0; i < 10000; ++i) v = e();
  EXPECT_EQ(v, 9981545732273789042ULL);
}

TEST(Rng, DrawsMatchStdEngineBackedDistributions) {
  // The same draws through std::mt19937_64 directly: the in-repo engine
  // must leave every std:: distribution's output unchanged.
  Rng rng(42);
  std::mt19937_64 ref(42);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(rng.uniform_int(-7, 300),
              std::uniform_int_distribution<int>(-7, 300)(ref));
    ASSERT_EQ(rng.uniform(-2.5f, 4.0f),
              std::uniform_real_distribution<float>(-2.5f, 4.0f)(ref));
    ASSERT_EQ(rng.bernoulli(0.3), std::bernoulli_distribution(0.3)(ref));
    ASSERT_EQ(rng.normal(1.5f, 0.25f),
              std::normal_distribution<float>(1.5f, 0.25f)(ref));
  }
  Rng child = rng.fork();
  std::mt19937_64 ref_child(ref() ^ 0x9e3779b97f4a7c15ULL);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(child.engine()(), ref_child());
  std::vector<int> a(257), b(257);
  std::iota(a.begin(), a.end(), 0);
  std::iota(b.begin(), b.end(), 0);
  std::shuffle(a.begin(), a.end(), rng.engine());
  std::shuffle(b.begin(), b.end(), ref);
  EXPECT_EQ(a, b);
  EXPECT_EQ(rng.engine()(), ref());
}

TEST(Rng, NormalFillMatchesScalarDraws) {
  const std::size_t lengths[] = {0, 1, 2, 511, 512, 513, 36864};
  const float sds[] = {0.0f, 0.02f, 0.05f};
  std::uint64_t seed = 1;
  for (const std::size_t n : lengths) {
    for (const float sd : sds) {
      // Start mid-block so rounds straddle an engine refill.
      Rng batched(++seed), scalar(seed);
      for (int i = 0; i < 7; ++i) {
        batched.engine()();
        scalar.engine()();
      }
      std::vector<float> got(n + 1, -9.0f);
      batched.normal_fill(got.data(), n, 0.25f, sd);
      for (std::size_t i = 0; i < n; ++i) {
        const float want = scalar.normal(0.25f, sd);
        std::uint32_t gb = 0, wb = 0;
        std::memcpy(&gb, &got[i], 4);
        std::memcpy(&wb, &want, 4);
        ASSERT_EQ(gb, wb) << "n " << n << " sd " << sd << " index " << i;
      }
      EXPECT_EQ(got[n], -9.0f) << "wrote past n=" << n;
      EXPECT_EQ(batched.engine()(), scalar.engine()())
          << "engine state differs after n " << n << " sd " << sd;
    }
  }
}

TEST(Tensor, KaimingScaleTracksFanIn) {
  Rng rng(1);
  Tensor w = Tensor::kaiming({64, 128, 3, 3}, rng);
  // stddev should be ~sqrt(2/fan_in) = sqrt(2/1152) ~= 0.0417
  EXPECT_NEAR(std::sqrt(w.var()), 0.0417, 0.004);
}

TEST(Ops, MatmulMatchesHandComputed) {
  Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
  Tensor c = ops::matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Ops, MatmulValidatesShapes) {
  Tensor a({2, 3});
  Tensor b({2, 3});
  EXPECT_THROW(ops::matmul(a, b), std::invalid_argument);
}

TEST(Ops, ConvOutSize) {
  EXPECT_EQ(ops::conv_out_size(8, 3, 1, 1), 8);
  EXPECT_EQ(ops::conv_out_size(8, 3, 2, 1), 4);
  EXPECT_EQ(ops::conv_out_size(7, 1, 1, 0), 7);
  EXPECT_THROW(ops::conv_out_size(2, 5, 1, 0), std::invalid_argument);
}

TEST(Ops, Im2colIdentityKernel) {
  // 1x1 kernel, stride 1, no pad: im2col is just a reshape.
  Rng rng(3);
  Tensor x = Tensor::uniform({2, 4, 5}, rng);
  Tensor cols = ops::im2col(x, 1, 1, 1, 0);
  ASSERT_EQ(cols.dim(0), 2);
  ASSERT_EQ(cols.dim(1), 20);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(cols[i], x[i]);
}

TEST(Ops, Im2colPaddingProducesZeros) {
  Tensor x = Tensor::ones({1, 2, 2});
  Tensor cols = ops::im2col(x, 3, 3, 1, 1);
  // Top-left kernel position at output (0,0) reads the padded corner.
  EXPECT_EQ(cols.at(0, 0), 0.0f);
  // Centre kernel position reads the actual input.
  EXPECT_EQ(cols.at(4, 0), 1.0f);
}

TEST(Ops, Col2imIsAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property the
  // conv backward pass relies on.
  Rng rng(5);
  Tensor x = Tensor::uniform({2, 6, 5}, rng);
  Tensor cols = ops::im2col(x, 3, 3, 2, 1);
  Tensor y = Tensor::uniform(cols.shape(), rng);
  Tensor back = ops::col2im(y, 2, 6, 5, 3, 3, 2, 1);
  double lhs = 0.0, rhs = 0.0;
  for (std::int64_t i = 0; i < cols.numel(); ++i)
    lhs += static_cast<double>(cols[i]) * y[i];
  for (std::int64_t i = 0; i < x.numel(); ++i)
    rhs += static_cast<double>(x[i]) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::max(1.0, std::fabs(lhs)));
}

TEST(Ops, SigmoidStableAtExtremes) {
  EXPECT_NEAR(ops::sigmoid(0.0f), 0.5f, 1e-7);
  EXPECT_NEAR(ops::sigmoid(100.0f), 1.0f, 1e-7);
  EXPECT_NEAR(ops::sigmoid(-100.0f), 0.0f, 1e-7);
  EXPECT_GT(ops::sigmoid(-100.0f), 0.0f - 1e-30);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(7);
  Tensor t = Tensor::uniform({3, 5}, rng, -10.0f, 10.0f);
  ops::softmax_rows_(t);
  for (int r = 0; r < 3; ++r) {
    double s = 0.0;
    for (int c = 0; c < 5; ++c) s += t.at(r, c);
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(Serialize, TensorRoundTrip) {
  Rng rng(11);
  Tensor t = Tensor::uniform({3, 4, 5}, rng);
  std::stringstream ss;
  io::write_tensor(ss, t);
  Tensor u = io::read_tensor(ss);
  ASSERT_EQ(u.shape(), t.shape());
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(u[i], t[i]);
}

TEST(Serialize, TensorMapRoundTripAndMagic) {
  const std::string path = ::testing::TempDir() + "/upaq_map_test.bin";
  Rng rng(13);
  std::map<std::string, Tensor> m;
  m["conv.weight"] = Tensor::uniform({4, 2, 3, 3}, rng);
  m["bn.gamma"] = Tensor::ones({4});
  io::save_tensor_map(path, m);
  EXPECT_TRUE(io::is_tensor_map_file(path));
  auto loaded = io::load_tensor_map(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.at("conv.weight").shape(), m.at("conv.weight").shape());
  for (std::int64_t i = 0; i < 72; ++i)
    EXPECT_EQ(loaded.at("conv.weight")[i], m.at("conv.weight")[i]);
  std::filesystem::remove(path);
}

TEST(Serialize, RejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/upaq_garbage.bin";
  {
    std::ofstream os(path, std::ios::binary);
    os << "definitely not a tensor map";
  }
  EXPECT_FALSE(io::is_tensor_map_file(path));
  EXPECT_THROW(io::load_tensor_map(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Serialize, RejectsHeaderWhoseElementCountOverflows) {
  // Every dimension passes the per-dimension bound (<= 2^32), but their
  // product (2^96) overflows int64: the reader must throw before
  // constructing the tensor.
  std::stringstream ss;
  const std::uint32_t rank = 3;
  ss.write(reinterpret_cast<const char*>(&rank), sizeof(rank));
  for (int i = 0; i < 3; ++i) {
    const std::int64_t d = std::int64_t{1} << 32;
    ss.write(reinterpret_cast<const char*>(&d), sizeof(d));
  }
  EXPECT_THROW(io::read_tensor(ss), std::runtime_error);
}

}  // namespace
}  // namespace upaq
