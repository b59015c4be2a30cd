// Micro-benchmarks (google-benchmark) for the design choices DESIGN.md calls
// out: the cache-blocked vs naive GEMM, the zero-skipping GEMM path that
// makes pattern-pruned kernels fast on real hardware, the workspace arena,
// per-kernel vs per-tensor quantization, Algorithm-2 pattern generation, and
// the rotated-IoU/NMS geometry kernels.
//
// main() additionally runs a hard equivalence gate before any timing: the
// blocked GEMM is checked against a double-precision naive reference on a
// few shapes and the binary exits non-zero on mismatch, so check.sh's
// perf-smoke stage fails on correctness even though timing stays warn-only.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "data/scenario.h"
#include "detectors/pointpillars.h"
#include "eval/box.h"
#include "nn/conv.h"
#include "obs/obs.h"
#include "prune/pattern.h"
#include "qnn/qgemm.h"
#include "qnn/qlayers.h"
#include "quant/quantize.h"
#include "tensor/gemm_kernel.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"

namespace {

using namespace upaq;

// Blocked-vs-naive float GEMM ablation on a dense conv-sized product
// ((out_c, in_c*9) x (in_c*9, oh*ow)): the naive i-k-j loop is the PR-3
// kernel, BM_GemmBlocked is the panel kernel behind ops::gemm_accumulate,
// and the Prepacked row drops the per-call A pack (the conv weight cache).
constexpr std::int64_t kGemmM = 128, kGemmK = 288, kGemmN = 2304;

void naive_gemm(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = a[i * k + kk];
      if (av == 0.0f) continue;
      for (std::int64_t j = 0; j < n; ++j) c[i * n + j] += av * b[kk * n + j];
    }
}

void BM_GemmNaive(benchmark::State& state) {
  Rng rng(7);
  Tensor a = Tensor::uniform({kGemmM, kGemmK}, rng);
  Tensor b = Tensor::uniform({kGemmK, kGemmN}, rng);
  Tensor c({kGemmM, kGemmN});
  for (auto _ : state) {
    naive_gemm(a.data(), b.data(), c.data(), kGemmM, kGemmK, kGemmN);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmNaive);

void BM_GemmBlocked(benchmark::State& state) {
  Rng rng(7);
  Tensor a = Tensor::uniform({kGemmM, kGemmK}, rng);
  Tensor b = Tensor::uniform({kGemmK, kGemmN}, rng);
  Tensor c({kGemmM, kGemmN});
  for (auto _ : state) {
    ops::gemm_accumulate(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmBlocked);

void BM_GemmBlockedPrepacked(benchmark::State& state) {
  Rng rng(7);
  Tensor a = Tensor::uniform({kGemmM, kGemmK}, rng);
  Tensor b = Tensor::uniform({kGemmK, kGemmN}, rng);
  Tensor c({kGemmM, kGemmN});
  const gemm::PackedA pa = gemm::pack_a(a.data(), kGemmM, kGemmK);
  for (auto _ : state) {
    gemm::gemm_packed(pa, b.data(), c.data(), kGemmN, 1.0f);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmBlockedPrepacked);

// Workspace arena on/off over the full conv forward: the "off" row frees the
// arena blocks at every release-to-empty, pricing the heap traffic the arena
// removes from the steady-state path.
void BM_ConvWorkspaceReuse(benchmark::State& state) {
  const bool reuse = state.range(0) != 0;
  Rng rng(1);
  nn::Conv2d conv(32, 32, 3, 1, 1, false, rng, "c");
  conv.set_training(false);
  Tensor x = Tensor::uniform({1, 32, 48, 48}, rng);
  workspace::set_reuse(reuse);
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(x));
  workspace::set_reuse(true);
}
BENCHMARK(BM_ConvWorkspaceReuse)->Arg(1)->Arg(0);

// Dense vs pattern-pruned convolution: the GEMM skips zero weight entries,
// so semi-structured sparsity translates into genuine CPU time savings —
// the mechanism behind the hardware model's SparsityMode::kSemiStructured.
void BM_ConvDense(benchmark::State& state) {
  Rng rng(1);
  nn::Conv2d conv(32, 32, 3, 1, 1, false, rng, "c");
  conv.set_training(false);
  Tensor x = Tensor::uniform({1, 32, 48, 48}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(x));
}
BENCHMARK(BM_ConvDense);

void BM_ConvPatternPruned(benchmark::State& state) {
  const int nonzeros = static_cast<int>(state.range(0));
  Rng rng(1);
  nn::Conv2d conv(32, 32, 3, 1, 1, false, rng, "c");
  conv.set_training(false);
  const auto cands = prune::generate_candidates(nonzeros, 3, 16, rng);
  Tensor mask(conv.weight().value.shape());
  // Apply per-kernel best-L2 masks like the UPAQ compressor does.
  const float* w = conv.weight().value.data();
  for (std::int64_t k = 0; k < 32 * 32; ++k) {
    double best_l2 = -1.0;
    const prune::KernelPattern* best = nullptr;
    for (const auto& c : cands) {
      double l2 = 0.0;
      for (const auto& [r, cc] : c.positions) {
        const float v = w[k * 9 + r * 3 + cc];
        l2 += static_cast<double>(v) * v;
      }
      if (l2 > best_l2) {
        best_l2 = l2;
        best = &c;
      }
    }
    for (const auto& [r, cc] : best->positions) mask[k * 9 + r * 3 + cc] = 1.0f;
  }
  conv.weight().mask = mask;
  conv.weight().project();
  Tensor x = Tensor::uniform({1, 32, 48, 48}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(x));
}
BENCHMARK(BM_ConvPatternPruned)->Arg(2)->Arg(3);

// The packed integer path, split into its two cost centres: per-call int8
// activation quantization and the sparse integer GEMM itself. Same conv
// geometry as BM_ConvPatternPruned so the float and packed paths are
// directly comparable.
Tensor hck_mask(const Tensor& weight, Rng& rng) {
  const auto cands = prune::generate_candidates(2, 3, 16, rng);
  Tensor mask(weight.shape());
  const float* w = weight.data();
  const std::int64_t kernels = weight.numel() / 9;
  for (std::int64_t k = 0; k < kernels; ++k) {
    double best_l2 = -1.0;
    const prune::KernelPattern* best = nullptr;
    for (const auto& c : cands) {
      double l2 = 0.0;
      for (const auto& [r, cc] : c.positions) {
        const float v = w[k * 9 + r * 3 + cc];
        l2 += static_cast<double>(v) * v;
      }
      if (l2 > best_l2) {
        best_l2 = l2;
        best = &c;
      }
    }
    for (const auto& [r, cc] : best->positions) mask[k * 9 + r * 3 + cc] = 1.0f;
  }
  return mask;
}

void BM_QuantizeActs(benchmark::State& state) {
  Rng rng(6);
  // im2col matrix of a 32->32 3x3 conv on 48x48: (32*9, 48*48).
  Tensor m = Tensor::uniform({288, 2304}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(qnn::quantize_acts(m, 8));
}
BENCHMARK(BM_QuantizeActs);

void BM_PackedGemmInt(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  Rng rng(6);
  Tensor w = Tensor::normal({32, 32, 3, 3}, rng);
  Tensor mask = hck_mask(w, rng);
  for (std::int64_t i = 0; i < w.numel(); ++i)
    if (mask[i] == 0.0f) w[i] = 0.0f;
  const auto p =
      qnn::pack(w, bits, 9, quant::StorageFormat::kPatternSparse, mask);
  qnn::PackedGemm gemm(p, 32, 288);
  Tensor m = Tensor::uniform({288, 2304}, rng);
  const auto qa = qnn::quantize_acts(m, 8);
  Tensor out({32, 2304});
  for (auto _ : state) {
    gemm.run(qa, nullptr, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_PackedGemmInt)->Arg(8)->Arg(4);

void BM_PackedConv(benchmark::State& state) {
  Rng rng(6);
  nn::Conv2d conv(32, 32, 3, 1, 1, false, rng, "c");
  conv.set_training(false);
  conv.weight().mask = hck_mask(conv.weight().value, rng);
  conv.weight().project();
  qnn::LowerSpec spec;
  spec.weight_bits = 4;
  spec.group_size = 9;
  spec.format = quant::StorageFormat::kPatternSparse;
  qnn::lower_layer(conv, spec);
  Tensor x = Tensor::uniform({1, 32, 48, 48}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(x));
  conv.set_engine(nullptr);
}
BENCHMARK(BM_PackedConv);

// Always-on observability overhead: full detect() with the obs layer
// enabled (Arg 1) vs runtime-disabled (Arg 0). The obs hot path per detect
// is one histogram record (its count is the detect-call count) + a handful
// of arena gauge ratchets; the two rows must agree within the noise floor
// (the acceptance bar is 2% on detect p50).
void BM_DetectObs(benchmark::State& state) {
  const bool obs_on = state.range(0) != 0;
  Rng rng(4242);
  detectors::PointPillars model(detectors::PointPillarsConfig::scaled(), rng);
  model.set_training(false);
  const auto scenes =
      data::make_scenario_scenes(data::ScenarioFamily::kBaseline, 4, 99);
  (void)model.detect(scenes.front());  // warm caches/arena outside timing
  obs::set_enabled(obs_on);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.detect(scenes[i % scenes.size()]));
    ++i;
  }
  obs::set_enabled(true);
}
BENCHMARK(BM_DetectObs)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

void BM_QuantizePerTensor(benchmark::State& state) {
  Rng rng(2);
  Tensor w = Tensor::normal({64, 64, 3, 3}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(quant::mp_quantize(w, 8));
}
BENCHMARK(BM_QuantizePerTensor);

void BM_QuantizePerKernel(benchmark::State& state) {
  Rng rng(2);
  Tensor w = Tensor::normal({64, 64, 3, 3}, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(quant::mp_quantize_grouped(w, 8, 9));
}
BENCHMARK(BM_QuantizePerKernel);

void BM_PatternGeneration(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state)
    benchmark::DoNotOptimize(prune::generate_pattern(2, 3, rng));
}
BENCHMARK(BM_PatternGeneration);

void BM_PatternCandidates(benchmark::State& state) {
  Rng rng(4);
  for (auto _ : state)
    benchmark::DoNotOptimize(prune::generate_candidates(3, 3, 24, rng));
}
BENCHMARK(BM_PatternCandidates);

void BM_RotatedIouBev(benchmark::State& state) {
  eval::Box3D a, b;
  a.x = 10; a.y = 2; a.length = 4.2f; a.width = 1.8f; a.height = 1.5f; a.yaw = 0.4f;
  b = a;
  b.x = 10.8f;
  b.yaw = 1.1f;
  for (auto _ : state) benchmark::DoNotOptimize(eval::iou_bev(a, b));
}
BENCHMARK(BM_RotatedIouBev);

void BM_NmsBev(benchmark::State& state) {
  Rng rng(5);
  std::vector<eval::Box3D> boxes;
  for (int i = 0; i < 128; ++i) {
    eval::Box3D b;
    b.x = rng.uniform(0, 46);
    b.y = rng.uniform(-22, 22);
    b.length = 4.2f;
    b.width = 1.8f;
    b.height = 1.5f;
    b.yaw = rng.uniform(-1.5f, 1.5f);
    b.score = rng.uniform();
    boxes.push_back(b);
  }
  for (auto _ : state) {
    auto copy = boxes;
    benchmark::DoNotOptimize(eval::nms_bev(std::move(copy), 0.2));
  }
}
BENCHMARK(BM_NmsBev);

/// Blocked-vs-reference equivalence gate. Compares ops::gemm_accumulate
/// against a double-precision naive product on a few deliberately awkward
/// shapes (1, primes, non-multiples of the 6/8/256 tile grains). Returns
/// false on any element outside rtol 1e-5 + k-scaled atol.
bool gemm_equivalence_gate() {
  struct Shape { std::int64_t m, k, n; };
  const Shape shapes[] = {{1, 1, 1}, {7, 13, 5}, {64, 97, 130},
                          {130, 257, 33}, {6, 256, 8}, {61, 300, 259}};
  Rng rng(11);
  for (const auto& s : shapes) {
    Tensor a = Tensor::uniform({s.m, s.k}, rng);
    Tensor b = Tensor::uniform({s.k, s.n}, rng);
    Tensor c({s.m, s.n});
    ops::gemm_accumulate(a, b, c, 1.0f);
    for (std::int64_t i = 0; i < s.m; ++i)
      for (std::int64_t j = 0; j < s.n; ++j) {
        double ref = 0.0;
        for (std::int64_t kk = 0; kk < s.k; ++kk)
          ref += static_cast<double>(a.at(i, kk)) *
                 static_cast<double>(b.at(kk, j));
        const double got = static_cast<double>(c.at(i, j));
        const double tol =
            1e-5 * std::fabs(ref) + 3e-7 * static_cast<double>(s.k);
        if (std::fabs(got - ref) > tol) {
          std::fprintf(stderr,
                       "GEMM equivalence FAILED at (%lld,%lld,%lld)[%lld,%lld]:"
                       " got %.9g want %.9g\n",
                       static_cast<long long>(s.m), static_cast<long long>(s.k),
                       static_cast<long long>(s.n), static_cast<long long>(i),
                       static_cast<long long>(j), got, ref);
          return false;
        }
      }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (!gemm_equivalence_gate()) return 1;
  std::printf("GEMM equivalence gate: OK\n");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
