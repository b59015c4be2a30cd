// Tests for the packed path's integer GEMM (tensor/gemm_kernel.h
// s8_gemm_segments, driven through qnn::PackedGemm):
//   - the kernel against a test-local scalar replay of the segment contract
//     (bias, then per scale segment t = (scale * sx) * float(exact integer
//     sum) and y += t, in ascending order), bitwise, over edge shapes,
//     multi-stripe n, odd k and k = 515, groups 9/7/5/3, dividing groups and
//     per-tensor, weight bits 2..16 (including the int32 overflow split of
//     long 16-bit rows), 70% sparsity with an all-zero row, rows of 63 and
//     64 nonzero codes, at 1 and 4 threads;
//   - the codes_fit_i8 segment blocks (64- and 16-column) vs the generic
//     segment path, bitwise, around every block edge at 1 and 4 threads;
//   - 1-thread vs 4-thread bitwise determinism and the steady-state
//     zero-allocation contract;
//   - the packed conv's zero-padded planes against the frozen int8 im2col
//     reference, bitwise, and inside exactly sized buffers;
//   - the activation quantizer's vector body and tail vs the scalar
//     expression, bitwise;
//   - the qgemm_macs counter (surviving entries x columns).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "nn/conv.h"
#include "parallel/thread_pool.h"
#include "prof/prof.h"
#include "prune/pattern.h"
#include "qnn/packed.h"
#include "qnn/qgemm.h"
#include "qnn/qlayers.h"
#include "quant/quantize.h"
#include "tensor/gemm_kernel.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"

namespace upaq {
namespace {

using qnn::PackedGemm;

/// Weight matrix with an exact fraction of zeroed entries (deterministic
/// stripe pattern so the zero count is shape-independent of rng state).
Tensor make_weight(std::int64_t rows, std::int64_t k, double zero_frac,
                   Rng& rng) {
  Tensor w = Tensor::normal({rows, k}, rng);
  if (zero_frac > 0.0)
    for (std::int64_t i = 0; i < w.numel(); ++i)
      if (static_cast<double>(i % 100) < zero_frac * 100.0) w[i] = 0.0f;
  return w;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.numel(), b.numel());
  for (std::int64_t i = 0; i < a.numel(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]))
        << what << " diverges at flat index " << i;
}

/// Scalar replay of the segment contract, written from the packed tensor
/// alone: out(rows, n) for activations qx laid out (k, n). A row's segments
/// are its runs of nonzero codes that share a scale group, in ascending
/// column order, each cut after `safe_len` entries so its integer sum fits
/// int32 (the overflow split PackedGemm documents). Per output: the bias
/// (0 when null), then per segment t = (scale * sx) * float(exact sum),
/// rounded to float before y += t (the volatile store pins contraction).
Tensor replay_reference(const qnn::PackedTensor& p, std::int64_t rows,
                        std::int64_t k, const std::int8_t* qx, float sx,
                        std::int64_t n, const float* bias) {
  std::vector<std::int32_t> codes(static_cast<std::size_t>(rows * k), 0);
  for (std::int64_t i = 0; i < p.stored_count(); ++i)
    codes[static_cast<std::size_t>(p.flat_index(i))] = p.code(i);
  const std::int64_t group = p.effective_group();
  const std::int64_t max_w = (std::int64_t{1} << (p.bits - 1)) - 1;
  const std::int64_t safe_len = std::max<std::int64_t>(
      1, ((std::int64_t{1} << 31) - 1) / (max_w * 127));

  Tensor y({rows, n});
  std::vector<std::int64_t> sum(static_cast<std::size_t>(n));
  for (std::int64_t r = 0; r < rows; ++r) {
    float* yr = y.data() + r * n;
    std::fill(yr, yr + n, bias != nullptr ? bias[r] : 0.0f);
    std::int64_t seg_group = -1, seg_len = 0;
    const auto flush = [&] {
      if (seg_len == 0) return;
      const float m = p.scales[static_cast<std::size_t>(seg_group)] * sx;
      for (std::int64_t j = 0; j < n; ++j) {
        volatile float t =
            m * static_cast<float>(sum[static_cast<std::size_t>(j)]);
        yr[j] += t;
      }
      seg_len = 0;
    };
    for (std::int64_t c = 0; c < k; ++c) {
      const std::int32_t w = codes[static_cast<std::size_t>(r * k + c)];
      if (w == 0) continue;
      const std::int64_t g = (r * k + c) / group;
      if (g != seg_group || seg_len == safe_len) {
        flush();
        seg_group = g;
        std::fill(sum.begin(), sum.end(), 0);
      }
      for (std::int64_t j = 0; j < n; ++j)
        sum[static_cast<std::size_t>(j)] +=
            std::int64_t{w} * qx[static_cast<std::size_t>(c * n + j)];
      ++seg_len;
    }
    flush();
  }
  return y;
}

/// Packs `w` at (bits, group), runs PackedGemm on random activations and a
/// random bias at 1 and 4 threads, and asserts both outputs equal the
/// scalar replay bit for bit.
void check_against_replay(const Tensor& w, std::int64_t rows, std::int64_t k,
                          std::int64_t n, int bits, std::int64_t group,
                          Rng& rng, const char* what,
                          std::int64_t empty_row = -1) {
  const qnn::PackedTensor packed =
      qnn::pack(w, bits, group, quant::StorageFormat::kDense);
  const PackedGemm g(packed, rows, k);
  const qnn::QuantizedActs qa =
      qnn::quantize_acts(Tensor::uniform({k, n}, rng), 8);
  std::vector<float> bias(static_cast<std::size_t>(rows));
  for (auto& b : bias) b = rng.uniform(-1.0f, 1.0f);
  // A row with no surviving code keeps its bias bit for bit: -0.0 must not
  // pick up a +0.0 requantization.
  if (empty_row >= 0) bias[static_cast<std::size_t>(empty_row)] = -0.0f;
  const Tensor want = replay_reference(packed, rows, k, qa.codes.data(),
                                       qa.scale, n, bias.data());
  for (const int threads : {1, 4}) {
    parallel::set_thread_count(threads);
    Tensor got({rows, n});
    g.run(qa, bias.data(), got);
    parallel::set_thread_count(1);
    expect_bitwise_equal(got, want, what);
  }
}

TEST(QgemmKernel, SegmentKernelMatchesScalarReplayBitwise) {
  struct Case {
    std::int64_t rows, k, n;
  };
  Rng rng(4242);
  // Ragged shapes, k = 520 (16-bit per-tensor rows pass the int32 overflow
  // split at 516 entries) and n = 300 (several parallel row chunks and
  // column blocks). Groups: per tensor (0), an odd non-divisor (9), a
  // power of two (8) and per row (k).
  for (const Case c : {Case{1, 1, 1}, Case{6, 48, 8}, Case{7, 33, 13},
                       Case{5, 9, 3}, Case{23, 64, 72}, Case{13, 520, 40},
                       Case{10, 64, 300}})
    for (int bits = 2; bits <= 16; ++bits)
      for (const std::int64_t group :
           {std::int64_t{0}, std::int64_t{9}, std::int64_t{8}, c.k})
        for (const double zero_frac : {0.0, 0.3}) {
          const Tensor w = make_weight(c.rows, c.k, zero_frac, rng);
          char what[128];
          std::snprintf(what, sizeof(what),
                        "m=%lld k=%lld n=%lld bits=%d group=%lld zeros=%.1f",
                        static_cast<long long>(c.rows),
                        static_cast<long long>(c.k),
                        static_cast<long long>(c.n), bits,
                        static_cast<long long>(group), zero_frac);
          check_against_replay(w, c.rows, c.k, c.n, bits, group, rng, what);
        }
  // Odd k (47, 129, 515) with small odd groups {9, 7, 5, 3} that do and do
  // not divide k, so scale boundaries drift across rows.
  for (const Case c : {Case{6, 47, 16}, Case{11, 129, 24}, Case{9, 515, 18}})
    for (const std::int64_t group : {std::int64_t{9}, std::int64_t{7},
                                     std::int64_t{5}, std::int64_t{3}})
      for (int bits = 2; bits <= 16; ++bits) {
        const Tensor w = make_weight(c.rows, c.k, 0.2, rng);
        char what[128];
        std::snprintf(what, sizeof(what),
                      "odd m=%lld k=%lld n=%lld bits=%d group=%lld",
                      static_cast<long long>(c.rows),
                      static_cast<long long>(c.k),
                      static_cast<long long>(c.n), bits,
                      static_cast<long long>(group));
        check_against_replay(w, c.rows, c.k, c.n, bits, group, rng, what);
      }
  // 70% sparsity: short and all-zero groups; row 0 has no code at all.
  {
    const std::int64_t rows = 19, k = 96, n = 37;
    Tensor w = make_weight(rows, k, 0.7, rng);
    for (std::int64_t c = 0; c < k; ++c) w[c] = 0.0f;
    for (const std::int64_t group : {std::int64_t{16}, std::int64_t{0}})
      check_against_replay(w, rows, k, n, 4, group, rng, "70% sparse", 0);
  }
  // Rows of 63 and 64 nonzero codes in one per-tensor segment each (+-1
  // weights, so no code rounds to zero and drops out of the entry list).
  for (const std::int64_t k : {63, 64}) {
    Tensor w({8, k});
    for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = i % 3 ? 1.0f : -1.0f;
    for (const int bits : {4, 8})
      check_against_replay(w, 8, k, 200, bits, 0, rng,
                           k == 63 ? "63-entry rows" : "64-entry rows");
  }
}

TEST(QgemmKernel, ThreadCountInvariantBitwise) {
  // Multi-chunk n and several row chunks so the parallel dispatch actually
  // splits work; 1-thread and 4-thread runs must be bitwise equal (the
  // requantization order is a property of the entry layout). Operands:
  // 6-bit codes with a k-dividing group, 4-bit codes with an odd
  // non-dividing group over an odd k, and 16-bit codes on the generic int32
  // path. After a 1-thread warm-up, further runs must also be
  // allocation-free: their scratch comes from the workspace arena.
  Rng rng(999);
  struct TCase {
    std::int64_t rows, k, n;
    int bits;
    std::int64_t group;
  };
  for (const TCase c : {TCase{30, 128, 520, 6, 32}, TCase{27, 131, 530, 4, 7},
                        TCase{24, 300, 310, 16, 9}}) {
    const Tensor w = make_weight(c.rows, c.k, 0.25, rng);
    const PackedGemm g(
        qnn::pack(w, c.bits, c.group, quant::StorageFormat::kDense), c.rows,
        c.k);
    const Tensor x = Tensor::uniform({c.k, c.n}, rng);
    const qnn::QuantizedActs qa = qnn::quantize_acts(x, 8);
    std::vector<float> bias(static_cast<std::size_t>(c.rows), 0.125f);

    parallel::set_thread_count(4);
    Tensor y4({c.rows, c.n});
    g.run(qa, bias.data(), y4);
    parallel::set_thread_count(1);
    { workspace::Scope flush; }  // drain earlier cached blocks
    Tensor y1({c.rows, c.n});
    g.run(qa, bias.data(), y1);  // warm-up
    expect_bitwise_equal(y1, y4, "segment thread-count divergence");

    const workspace::Stats warm = workspace::stats();
    for (int i = 0; i < 5; ++i) g.run(qa, bias.data(), y1);
    const workspace::Stats steady = workspace::stats();
    EXPECT_EQ(steady.block_allocs, warm.block_allocs)
        << "steady-state run() grew the workspace arena";
    EXPECT_GT(steady.reuses, warm.reuses)
        << "run() did not route its scratch through the arena";
    expect_bitwise_equal(y1, y4, "segment steady-state divergence");
  }
}

TEST(QgemmKernel, SegmentI8BlocksMatchGenericPathBitwise) {
  // s8_gemm_segments' codes_fit_i8 path (64-column AVX-512 blocks where the
  // ISA has them, 16-column AVX2 blocks, fused scalar-order tails) against
  // the generic int32 path on the same entry lists. Widths straddle every
  // block edge; segment lengths 1..5 cover lone entries, odd pair tails and
  // multi-pair segments; codes and activations include +/-127, the int16
  // pair-sum extreme (2 * 127^2). Both thread counts must agree too.
  Rng rng(2024);
  const std::int64_t rows = 9, k = 40;
  std::vector<std::int32_t> cols, codes;
  std::vector<gemm::QSegment> segs;
  std::vector<std::int64_t> row_segs{0};
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t len = 1; len <= 5; ++len) {
      gemm::QSegment seg;
      seg.scale = rng.uniform(0.01f, 0.2f);
      seg.begin = static_cast<std::int64_t>(codes.size());
      for (std::int64_t e = 0; e < len; ++e) {
        // Distinct ascending columns per segment; rows 0 and 1 pin the
        // code extremes, the rest draw from the full 8-bit range.
        cols.push_back(static_cast<std::int32_t>((r + 7 * len + 3 * e) % k));
        const std::int32_t code =
            r == 0 ? 127
            : r == 1 ? (e % 2 == 0 ? -127 : 127)
                     : static_cast<std::int32_t>(rng.uniform(-127.0f, 127.99f));
        codes.push_back(code);
      }
      seg.end = static_cast<std::int64_t>(codes.size());
      segs.push_back(seg);
    }
    row_segs.push_back(static_cast<std::int64_t>(segs.size()));
  }
  std::vector<float> bias(static_cast<std::size_t>(rows));
  for (auto& b : bias) b = rng.uniform(-1.0f, 1.0f);
  const float sx = 0.0173f;

  for (std::int64_t n : {16, 31, 32, 63, 64, 65, 80, 127, 128, 192, 1024}) {
    std::vector<std::int8_t> qx(static_cast<std::size_t>(k * n));
    for (std::size_t i = 0; i < qx.size(); ++i) {
      // Every 5th code sits at an extreme so the +/-127 x +/-127 products
      // land in every block position.
      qx[i] = i % 5 == 0 ? static_cast<std::int8_t>(i % 2 == 0 ? 127 : -127)
                         : static_cast<std::int8_t>(
                               rng.uniform(-127.0f, 127.99f));
    }
    std::vector<std::int32_t> row_off(static_cast<std::size_t>(k));
    for (std::int64_t p = 0; p < k; ++p)
      row_off[static_cast<std::size_t>(p)] = static_cast<std::int32_t>(p * n);
    std::vector<Tensor> outs;
    for (int threads : {1, 4}) {
      parallel::set_thread_count(threads);
      for (bool fit : {false, true}) {
        Tensor y({rows, n});
        gemm::s8_gemm_segments(cols.data(), codes.data(), segs.data(),
                               row_segs.data(), rows, k, qx.data(),
                               row_off.data(), sx, n, bias.data(), y.data(),
                               fit);
        outs.push_back(std::move(y));
      }
    }
    parallel::set_thread_count(1);
    char what[96];
    std::snprintf(what, sizeof(what), "i8 segment blocks vs generic n=%lld",
                  static_cast<long long>(n));
    for (std::size_t i = 1; i < outs.size(); ++i)
      expect_bitwise_equal(outs[0], outs[i], what);
  }
}

/// The int8 im2col gather the packed conv ran before it read zero-padded
/// planes, frozen here as the reference layout: row (ch*k + ky)*k + kx holds
/// tap (ky, kx) of channel ch for every output position, code 0 where the
/// tap falls in the padding.
std::vector<std::int8_t> reference_im2col(const std::int8_t* in, std::int64_t c,
                                          std::int64_t h, std::int64_t w, int k,
                                          int stride, int pad,
                                          std::int64_t oh, std::int64_t ow) {
  std::vector<std::int8_t> out(static_cast<std::size_t>(c * k * k * oh * ow));
  for (std::int64_t row = 0; row < c * k * k; ++row) {
    const std::int64_t ch = row / (k * k);
    const int ky = static_cast<int>((row / k) % k);
    const int kx = static_cast<int>(row % k);
    for (std::int64_t oy = 0; oy < oh; ++oy)
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        const std::int64_t iy = oy * stride - pad + ky;
        const std::int64_t ix = ox * stride - pad + kx;
        out[static_cast<std::size_t>((row * oh + oy) * ow + ox)] =
            iy < 0 || iy >= h || ix < 0 || ix >= w
                ? std::int8_t{0}
                : in[(ch * h + iy) * w + ix];
      }
  }
  return out;
}

/// A conv whose 3x3 kernels each keep one of the `taps`-weight UPAQ
/// patterns (cycling through all of them, so a layer mixes masks as a
/// searched plan does). 1x1 kernels stay dense.
std::unique_ptr<nn::Conv2d> make_pattern_conv(std::int64_t cin,
                                              std::int64_t cout, int k,
                                              int stride, int pad, int taps,
                                              Rng& rng) {
  auto conv = std::make_unique<nn::Conv2d>(cin, cout, k, stride, pad, true,
                                           rng, "ref_conv");
  if (k == 3) {
    const auto pats = prune::all_patterns(taps, 3);
    Tensor& wv = conv->weight().value;
    for (std::int64_t kern = 0; kern < cout * cin; ++kern) {
      const prune::KernelPattern& pat =
          pats[static_cast<std::size_t>(kern * 5 + kern / cin) % pats.size()];
      for (int t = 0; t < 9; ++t) {
        bool keep = false;
        for (const auto& [r, col] : pat.positions) keep |= r * 3 + col == t;
        if (!keep) wv[kern * 9 + t] = 0.0f;
      }
    }
    conv->weight().mark_mutated();
  }
  return conv;
}

TEST(QgemmKernel, PlaneConvMatchesFrozenIm2colReferenceBitwise) {
  // PackedConv2d::forward reads its taps from zero-padded int8 planes. The
  // frozen reference quantizes the same map, gathers the old im2col matrix
  // and runs PackedGemm::run over it: every output must agree bit for bit,
  // over kernel {1, 3} x stride {1, 2} x pad {0, 1} x three maps x batch
  // {1, 2} x weight bits {4, 8, 16} x HCK/LCK patterns x 1 and 4 threads.
  struct Map {
    std::int64_t h, w;
  };
  const std::int64_t cin = 3, cout = 5;
  Rng rng(2718);
  for (const int k : {1, 3})
    for (const int stride : {1, 2})
      for (const int pad : {0, 1})
        for (const Map map : {Map{13, 11}, Map{8, 8}, Map{64, 64}})
          for (const int taps : {2, 3}) {
            if (k == 1 && taps == 3) continue;  // 1x1 kernels have no pattern
            const auto conv =
                make_pattern_conv(cin, cout, k, stride, pad, taps, rng);
            for (const std::int64_t batch : {1, 2}) {
              const Tensor x =
                  Tensor::uniform({batch, cin, map.h, map.w}, rng, -2.0f, 2.0f);
              for (const int bits : {4, 8, 16}) {
                qnn::LowerSpec spec;
                spec.weight_bits = bits;
                spec.group_size = k * k;
                qnn::PackedConv2d eng(*conv, spec);
                const std::int64_t oh = (map.h + 2 * pad - k) / stride + 1;
                const std::int64_t ow = (map.w + 2 * pad - k) / stride + 1;
                Tensor want({batch, cout, oh, ow});
                for (std::int64_t b = 0; b < batch; ++b) {
                  const qnn::QuantizedActs q = qnn::quantize_acts(
                      x.data() + b * cin * map.h * map.w, cin,
                      map.h * map.w, eng.act_bits());
                  const auto cols = reference_im2col(
                      q.codes.data(), cin, map.h, map.w, k, stride, pad, oh,
                      ow);
                  eng.gemm().run(cols.data(), q.scale, oh * ow,
                                 conv->bias()->value.data(),
                                 want.data() + b * cout * oh * ow);
                }
                for (const int threads : {1, 4}) {
                  parallel::set_thread_count(threads);
                  const Tensor got = eng.forward(x, {});
                  parallel::set_thread_count(1);
                  char what[160];
                  std::snprintf(what, sizeof(what),
                                "k%d s%d p%d %lldx%lld taps%d batch%lld "
                                "bits%d threads%d",
                                k, stride, pad, static_cast<long long>(map.h),
                                static_cast<long long>(map.w), taps,
                                static_cast<long long>(batch), bits, threads);
                  ASSERT_EQ(got.shape(), want.shape()) << what;
                  expect_bitwise_equal(got, want, what);
                }
              }
            }
          }
}

TEST(QgemmKernel, ActQuantizerMatchesScalarReferenceBitwise) {
  // The activation quantizer's vector body and its scalar tail against a
  // test-local copy of the scalar expression. Lengths straddle the vector
  // width; a grid with scale exactly 1 plants exact halves (rounded away
  // from zero), -0.0 and the clamp bound in both the body and the tail.
  Rng rng(2718);
  for (const int bits : {4, 8}) {
    const float maxv = static_cast<float>((1 << (bits - 1)) - 1);
    for (const std::int64_t n : {1, 7, 8, 15, 16, 17, 31, 33, 64, 70, 203}) {
      for (const bool unit_grid : {true, false}) {
        const float m = unit_grid ? maxv : 1.3f;
        Tensor x = Tensor::uniform({n}, rng, -m, m);
        if (unit_grid) {
          for (std::int64_t i = 0; i < n; ++i) {
            if (i % 5 == 1)
              x[i] = static_cast<float>(i % ((1 << bits) - 2)) - maxv + 0.5f;
            if (i % 7 == 3) x[i] = -0.0f;
          }
          x[n / 2] = -maxv;  // alpha = maxv: scale 1, every half exact
        }
        float alpha = 0.0f;
        for (std::int64_t i = 0; i < n; ++i)
          alpha = std::max(alpha, std::fabs(x[i]));
        const float scale =
            static_cast<float>(alpha / (std::pow(2.0, bits - 1) - 1.0));
        const float inv = 1.0f / scale;
        std::vector<std::int8_t> got(static_cast<std::size_t>(n));
        ASSERT_EQ(qnn::quantize_acts_into(x.data(), n, bits, got.data()),
                  scale);
        for (std::int64_t i = 0; i < n; ++i) {
          float v = x[i] * inv;
          v = std::min(std::max(v, -maxv), maxv);
          const auto want = static_cast<std::int8_t>(
              static_cast<std::int32_t>(v + std::copysign(0.5f, v)));
          ASSERT_EQ(got[static_cast<std::size_t>(i)], want)
              << "bits " << bits << " n " << n << " elem " << i << " x "
              << x[i];
        }
      }
    }
  }
}

TEST(QgemmKernel, PlaneBuildAndKernelsStayInsideExactBuffers) {
  // The packed conv carves its planes from the workspace arena, whose
  // neighbouring blocks would hide an over-read from AddressSanitizer. Here
  // the plane pack, the segment GEMM and the output grid run on exactly
  // sized std::vectors, so any byte read past PlaneLayout::bytes (or written
  // past the grid) faults under the sanitizer build. The grid columns are
  // also checked against the frozen im2col reference, and every plane byte
  // against the padded map it encodes.
  struct Geom {
    std::int64_t c, h, w;
    int k, stride, pad;
  };
  Rng rng(314);
  for (const Geom g :
       {Geom{3, 13, 11, 3, 1, 1}, Geom{4, 9, 7, 3, 2, 1}, Geom{2, 8, 8, 3, 2, 0},
        Geom{3, 17, 70, 3, 1, 1}, Geom{5, 6, 66, 1, 1, 0},
        Geom{2, 11, 35, 3, 3, 2}}) {
    const gemm::PlaneLayout l =
        gemm::plane_layout(g.c, g.h, g.w, g.k, g.stride, g.pad);
    const std::int64_t k = g.c * g.k * g.k, rows = 6;
    std::vector<std::int32_t> row_off(static_cast<std::size_t>(k));
    gemm::plane_row_offsets(l, row_off.data());
    const std::int64_t max_off = *std::max_element(row_off.begin(), row_off.end());
    ASSERT_EQ(l.bytes, std::max(l.planes_bytes, max_off + l.n));
    const Tensor x = Tensor::uniform({g.c, g.h, g.w}, rng, -1.0f, 1.0f);
    // Prefilled, so a padding or slack byte the build forgets shows.
    std::vector<std::int8_t> planes(static_cast<std::size_t>(l.bytes), 0x5A);
    const float sx = gemm::s8_quantize_planes(x.data(), l, 8, planes.data());

    // Planes hold the flat codes at their padded positions and 0 elsewhere.
    std::vector<std::int8_t> flat(static_cast<std::size_t>(g.c * g.h * g.w));
    ASSERT_EQ(qnn::quantize_acts_into(x.data(), x.numel(), 8, flat.data()), sx);
    const int s = g.stride;
    for (std::int64_t ch = 0; ch < g.c; ++ch)
      for (std::int64_t py = 0; py < l.hq * s; ++py)
        for (std::int64_t px = 0; px < l.wq * s; ++px) {
          const std::int64_t iy = py - g.pad, ix = px - g.pad;
          const std::int8_t want =
              iy < 0 || iy >= g.h || ix < 0 || ix >= g.w
                  ? std::int8_t{0}
                  : flat[static_cast<std::size_t>((ch * g.h + iy) * g.w + ix)];
          const std::int64_t at =
              ((ch * s + py % s) * s + px % s) * l.plane + (py / s) * l.wq +
              px / s;
          ASSERT_EQ(planes[static_cast<std::size_t>(at)], want)
              << "plane byte of ch " << ch << " at padded (" << py << ", "
              << px << ")";
        }
    for (std::int64_t i = l.planes_bytes; i < l.bytes; ++i)
      ASSERT_EQ(planes[static_cast<std::size_t>(i)], 0) << "slack byte " << i;

    const auto cols = reference_im2col(flat.data(), g.c, g.h, g.w, g.k, s,
                                       g.pad, l.oh, l.ow);
    const Tensor wt = make_weight(rows, k, 0.5, rng);
    const auto packed =
        qnn::pack(wt, 8, g.k * g.k, quant::StorageFormat::kDense);
    const PackedGemm gm(packed, rows, k);
    std::vector<float> grid(static_cast<std::size_t>(rows * l.n));
    gm.run(planes.data(), row_off.data(), sx, l.n, l.oh * l.ow, nullptr,
           grid.data());
    Tensor want({rows, l.oh * l.ow});
    gm.run(cols.data(), sx, l.oh * l.ow, nullptr, want.data());
    for (std::int64_t r = 0; r < rows; ++r)
      for (std::int64_t oy = 0; oy < l.oh; ++oy)
        for (std::int64_t ox = 0; ox < l.ow; ++ox)
          ASSERT_EQ(std::bit_cast<std::uint32_t>(
                        grid[static_cast<std::size_t>(r * l.n + oy * l.wq +
                                                      ox)]),
                    std::bit_cast<std::uint32_t>(want.at(r, oy * l.ow + ox)))
              << "grid column (" << oy << ", " << ox << ") of row " << r;
  }
  // Offsets are int32: a map whose planes pass 2^31 bytes is refused.
  EXPECT_THROW(gemm::plane_layout(std::int64_t{1} << 16, 512, 512, 3, 1, 1),
               std::invalid_argument);
}

TEST(QgemmKernel, QgemmMacsCounterCountsEntriesTimesColumns) {
  // Counters only accumulate while tracing is on. The GEMM charges
  // surviving entries x output columns.
  Rng rng(555);
  const std::int64_t rows = 11, k = 40, n = 23;
  const Tensor w = make_weight(rows, k, 0.4, rng);
  const auto packed = qnn::pack(w, 8, 8, quant::StorageFormat::kDense);
  const Tensor x = Tensor::uniform({k, n}, rng);
  const qnn::QuantizedActs qa = qnn::quantize_acts(x, 8);
  Tensor y({rows, n});

  const PackedGemm g(packed, rows, k);
  prof::set_enabled(true);
  const std::uint64_t before = prof::counter_value(prof::Counter::kQgemmMacs);
  g.run(qa, nullptr, y);
  const std::uint64_t delta =
      prof::counter_value(prof::Counter::kQgemmMacs) - before;
  prof::set_enabled(false);
  EXPECT_EQ(delta, static_cast<std::uint64_t>(g.entry_count()) *
                       static_cast<std::uint64_t>(n));
}

}  // namespace
}  // namespace upaq
