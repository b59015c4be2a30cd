// Tests for the empirical per-layer kernel auto-tuner (qnn::tune_gemm) and
// the persistent packed-panel cache (qnn::PanelCache):
//   - deterministic winner pinning through the injectable scripted timer,
//     relying on the documented clock contract (exactly 2 calls per timed
//     rep, candidates in fixed order float/segment/int8);
//   - min-of-reps timing, strict-< tie-breaking toward the earlier
//     fixed-order candidate, and the float_margin near-tie gate;
//   - the candidate list narrowing with the spec's code width (no int8
//     panel above 8 bits);
//   - PanelCache hit/miss accounting, Parameter::version-bump invalidation
//     (rebuild yields a fresh image, bitwise-identical output when the value
//     itself is unchanged), and the winner's image staying cached after a
//     tune so lowering does not re-pack;
//   - the obs "autotune.pin" event carrying the winner and one <kernel>_ns
//     field per candidate.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "obs/obs.h"
#include "qnn/autotune.h"
#include "qnn/qcache.h"
#include "qnn/qgemm.h"
#include "quant/quantize.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace upaq {
namespace {

using qnn::TunedKernel;

/// Scripted monotonic clock: timed rep r (0-based, across the whole
/// tune_gemm call) reports duration durs[r]. Each rep makes exactly two
/// clock calls (start/stop) and eviction makes none, so with reps = R the
/// reps of candidate c occupy durs[c*R .. c*R+R-1] in candidate order.
struct ScriptedClock {
  std::vector<std::uint64_t> durs;
  std::shared_ptr<std::size_t> calls = std::make_shared<std::size_t>(0);

  std::function<std::uint64_t()> fn() const {
    auto d = durs;
    auto c = calls;
    return [d, c]() -> std::uint64_t {
      const std::size_t call = (*c)++;
      const std::size_t rep = call / 2;
      const std::uint64_t base = 1'000'000ull * (rep + 1);
      const std::uint64_t dur = rep < d.size() ? d[rep] : 1'000'000ull;
      return call % 2 == 0 ? base : base + dur;
    };
  }
};

qnn::TuneOptions scripted(const ScriptedClock& clk, int reps = 1,
                          double float_margin = 1.0) {
  qnn::TuneOptions opt;
  opt.reps = reps;
  opt.evict_bytes = 0;  // cache-hot: eviction would not change clock calls,
                        // but there is no point thrashing in a scripted test
  opt.float_margin = float_margin;
  opt.now_ns = clk.fn();
  return opt;
}

qnn::LowerSpec spec4() {
  qnn::LowerSpec spec;
  spec.weight_bits = 4;
  spec.group_size = 8;
  spec.act_bits = 8;
  return spec;
}

TEST(Autotune, ScriptedTimerPinsFastestIntegerCandidate) {
  Rng rng(7);
  nn::Parameter w("w", Tensor::normal({8, 32}, rng));
  // Candidate order float, segment, int8_panel.
  ScriptedClock clk{{400, 300, 100}};
  const qnn::TuneDecision d =
      qnn::tune_gemm(w, 8, 32, 16, spec4(), "l.pin", scripted(clk));
  ASSERT_EQ(d.candidates.size(), 3u);
  EXPECT_EQ(d.candidates[0].kernel, TunedKernel::kFloat);
  EXPECT_EQ(d.candidates[1].kernel, TunedKernel::kSegment);
  EXPECT_EQ(d.candidates[2].kernel, TunedKernel::kInt8Panel);
  EXPECT_EQ(d.candidates[0].ns, 400u);
  EXPECT_EQ(d.candidates[2].ns, 100u);
  EXPECT_EQ(d.winner, TunedKernel::kInt8Panel);
  // The clock contract the scripting relies on: 2 calls per timed rep.
  EXPECT_EQ(*clk.calls, 2u * 3u);
}

TEST(Autotune, KeepsMinOfReps) {
  Rng rng(8);
  nn::Parameter w("w", Tensor::normal({6, 24}, rng));
  // 3 reps per candidate; each candidate's ns must be its per-rep minimum.
  ScriptedClock clk{{900, 400, 800,     // float  -> 400
                     300, 700, 350,     // segment -> 300
                     600, 250, 900}};   // int8   -> 250
  const qnn::TuneDecision d = qnn::tune_gemm(w, 6, 24, 16, spec4(), "l.reps",
                                             scripted(clk, /*reps=*/3));
  ASSERT_EQ(d.candidates.size(), 3u);
  EXPECT_EQ(d.candidates[0].ns, 400u);
  EXPECT_EQ(d.candidates[1].ns, 300u);
  EXPECT_EQ(d.candidates[2].ns, 250u);
  EXPECT_EQ(d.winner, TunedKernel::kInt8Panel);
  EXPECT_EQ(*clk.calls, 2u * 3u * 3u);
}

TEST(Autotune, IntegerTieKeepsEarlierFixedOrderCandidate) {
  Rng rng(9);
  nn::Parameter w("w", Tensor::normal({8, 32}, rng));
  ScriptedClock clk{{500, 200, 200}};
  const qnn::TuneDecision d =
      qnn::tune_gemm(w, 8, 32, 16, spec4(), "l.tie", scripted(clk));
  EXPECT_EQ(d.winner, TunedKernel::kSegment);
}

TEST(Autotune, FloatMarginGatesNearTies) {
  Rng rng(10);
  nn::Parameter w("w", Tensor::normal({8, 32}, rng));
  // Float is 5% faster than the best integer candidate. Plain fastest-wins
  // (margin 1.0) pins float; the default-style 0.9 margin demands a
  // decisive >10% win, so the near-tie stays on the packed path.
  {
    ScriptedClock clk{{95, 100, 110}};
    const qnn::TuneDecision d = qnn::tune_gemm(
        w, 8, 32, 16, spec4(), "l.m1", scripted(clk, 1, /*float_margin=*/1.0));
    EXPECT_EQ(d.winner, TunedKernel::kFloat);
  }
  {
    ScriptedClock clk{{95, 100, 110}};
    const qnn::TuneDecision d = qnn::tune_gemm(
        w, 8, 32, 16, spec4(), "l.m2", scripted(clk, 1, /*float_margin=*/0.9));
    EXPECT_EQ(d.winner, TunedKernel::kSegment);
  }
  // A decisive float win clears any margin.
  {
    ScriptedClock clk{{50, 100, 110}};
    const qnn::TuneDecision d = qnn::tune_gemm(
        w, 8, 32, 16, spec4(), "l.m3", scripted(clk, 1, /*float_margin=*/0.9));
    EXPECT_EQ(d.winner, TunedKernel::kFloat);
  }
}

TEST(Autotune, CandidateListNarrowsWithCodeWidth) {
  Rng rng(11);
  nn::Parameter w("w", Tensor::normal({8, 32}, rng));
  // Codes that fit int8 (4 and 8 bits alike) race all three candidates.
  for (int bits : {4, 8}) {
    qnn::LowerSpec spec = spec4();
    spec.weight_bits = bits;
    ScriptedClock clk{{400, 300, 200}};
    const qnn::TuneDecision d =
        qnn::tune_gemm(w, 8, 32, 16, spec, "l.narrow", scripted(clk));
    ASSERT_EQ(d.candidates.size(), 3u) << bits << "-bit codes";
    EXPECT_EQ(d.candidates[0].kernel, TunedKernel::kFloat);
    EXPECT_EQ(d.candidates[1].kernel, TunedKernel::kSegment);
    EXPECT_EQ(d.candidates[2].kernel, TunedKernel::kInt8Panel);
    EXPECT_EQ(d.winner, TunedKernel::kInt8Panel);
  }
  // Codes wider than 8 bits do not fit the panel: segment races float
  // alone.
  qnn::LowerSpec s12 = spec4();
  s12.weight_bits = 12;
  {
    ScriptedClock clk{{400, 300}};
    const qnn::TuneDecision d =
        qnn::tune_gemm(w, 8, 32, 16, s12, "l.w12", scripted(clk));
    ASSERT_EQ(d.candidates.size(), 2u);
    EXPECT_EQ(d.candidates.back().kernel, TunedKernel::kSegment);
    EXPECT_EQ(d.winner, TunedKernel::kSegment);
  }
}

TEST(Autotune, WinnersPackedImageStaysCachedForLowering) {
  qnn::PanelCache& cache = qnn::PanelCache::instance();
  cache.clear();
  cache.reset_stats();
  Rng rng(12);
  nn::Parameter w("w", Tensor::normal({8, 32}, rng));
  ScriptedClock clk{{400, 300, 100}};
  const qnn::TuneDecision d =
      qnn::tune_gemm(w, 8, 32, 16, spec4(), "l.cache", scripted(clk));
  EXPECT_EQ(d.winner, TunedKernel::kInt8Panel);
  // The tune built each integer candidate exactly once through the cache...
  EXPECT_EQ(cache.stats().misses, 2u);
  // ...so attaching the winner's engine afterwards is a pure cache hit.
  const qnn::LowerSpec spec = spec4();
  (void)cache.get_or_build(w, 8, 32, spec.weight_bits, spec.group_size,
                           spec.format, qnn::tuned_mode(d.winner));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(Autotune, PanelCacheVersionBumpInvalidates) {
  qnn::PanelCache& cache = qnn::PanelCache::instance();
  cache.clear();
  cache.reset_stats();
  Rng rng(13);
  nn::Parameter w("w", Tensor::normal({10, 40}, rng));
  const auto mode = qnn::PackedGemm::PanelMode::kForcePanel;

  const auto g1 = cache.get_or_build(w, 10, 40, 4, 8,
                                     quant::StorageFormat::kDense, mode);
  const auto g2 = cache.get_or_build(w, 10, 40, 4, 8,
                                     quant::StorageFormat::kDense, mode);
  EXPECT_EQ(g1.get(), g2.get()) << "repeat lookup must hit, not rebuild";
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().invalidations, 0u);

  // A version bump (optimizer step / manual mutation) forces a rebuild into
  // a FRESH image — g1 stays valid for any engine still holding it.
  w.mark_mutated();
  const auto g3 = cache.get_or_build(w, 10, 40, 4, 8,
                                     quant::StorageFormat::kDense, mode);
  EXPECT_NE(g1.get(), g3.get());
  EXPECT_EQ(cache.stats().invalidations, 1u);

  // The value itself did not change, so the rebuilt image computes the
  // bitwise-identical result (requant-replay is deterministic in the codes).
  std::vector<std::int8_t> qx(static_cast<std::size_t>(40 * 12));
  for (std::size_t i = 0; i < qx.size(); ++i)
    qx[i] = static_cast<std::int8_t>(static_cast<int>((i * 37 + 11) % 255) -
                                     127);
  Tensor y1({10, 12}), y3({10, 12});
  g1->run(qx.data(), 0.5f, 12, nullptr, y1.data());
  g3->run(qx.data(), 0.5f, 12, nullptr, y3.data());
  for (std::int64_t i = 0; i < y1.numel(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(y1[i]),
              std::bit_cast<std::uint32_t>(y3[i]))
        << "rebuilt panel image diverges at flat index " << i;

  // Distinct forced modes are distinct cache entries (separate images);
  // an invalidation rebuild is counted as invalidation, not a second miss.
  (void)cache.get_or_build(w, 10, 40, 4, 8, quant::StorageFormat::kDense,
                           qnn::PackedGemm::PanelMode::kForceSegment);
  EXPECT_EQ(cache.stats().misses, 2u);
  cache.clear();
}

TEST(Autotune, EmitsObsPinEventWithPerCandidateTimings) {
  obs::set_enabled(true);
  obs::set_log_level(obs::Level::kInfo);
  obs::set_ring_capacity(1024);
  obs::reset();
  Rng rng(14);
  nn::Parameter w("w", Tensor::normal({8, 32}, rng));
  ScriptedClock clk{{400, 300, 100}};
  (void)qnn::tune_gemm(w, 8, 32, 16, spec4(), "l.obs", scripted(clk));

  obs::Event pin;
  for (const auto& e : obs::events())
    if (e.name == "autotune.pin") pin = e;
  ASSERT_FALSE(pin.name.empty()) << "tune_gemm must log an autotune.pin event";
  auto field = [&](const std::string& key) -> std::string {
    for (const auto& f : pin.fields)
      if (f.key == key) return f.value;
    return "<missing>";
  };
  EXPECT_EQ(field("layer"), "l.obs");
  EXPECT_EQ(field("kernel"), "int8_panel");
  EXPECT_EQ(field("float_ns"), "400");
  EXPECT_EQ(field("segment_ns"), "300");
  EXPECT_EQ(field("int8_panel_ns"), "100");
  obs::reset();
}

}  // namespace
}  // namespace upaq
